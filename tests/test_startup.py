"""Unitary and joint commands start without scipy's linear algebra.

``scipy.linalg`` costs about a quarter second of import and serves only
``qrf.expm``, so bornlab loads it where a GKLS generator is constructed.
The steps run in a fresh interpreter, since the test process itself has long
imported it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

STEPS = """
import json, sys
from bornlab.cli import main
from bornlab.config import load_config

configs, out = sys.argv[1], sys.argv[2]
loaded = []

def record(step):
    loaded.append([step, "scipy.linalg" in sys.modules])

record("import bornlab.cli")
for name in ("rabi", "dephasing"):
    load_config(f"{configs}/{name}.yaml")
    record(f"load {name}")
for argv in (["analyze", f"{configs}/rabi.yaml", "--out", f"{out}/rabi.json"],
             ["sample", f"{configs}/rabi.yaml", "--out", f"{out}/rabi.csv"],
             ["simulate", f"{configs}/dephasing.yaml", "--out", f"{out}/dephasing.json"]):
    assert main(argv) == 0
    record(" ".join(argv[:1]))
load_config(f"{configs}/rtn.yaml")
record("load rtn")
print(json.dumps(loaded))
"""


def test_scipy_linalg_is_imported_only_when_a_gkls_model_is_built(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", STEPS, str(ROOT / "configs"), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert [step for step, _ in loaded] == [
        "import bornlab.cli", "load rabi", "load dephasing", "analyze", "sample", "simulate",
        "load rtn"]
    # GKLS configs pay the import while loading, before the command runs
    assert [imported for _, imported in loaded] == [False] * 6 + [True]
