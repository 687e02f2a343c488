"""No bornlab command imports scipy.

``scipy.linalg`` costs about a third of a second of import. GKLS maps come
from ``qrf.expm``, a numpy Padé exponential, so no config kind needs it, and
reports name no scipy version: after each step below, in a fresh interpreter
(the test process itself has long imported scipy for the oracles), neither
``scipy.linalg`` nor ``scipy`` is loaded.
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
    loaded.append([step, "scipy.linalg" in sys.modules, "scipy" in sys.modules])

record("import bornlab.cli")
for name in ("rabi", "dephasing", "rtn"):
    load_config(f"{configs}/{name}.yaml")
    record(f"load {name}")
for argv in (["analyze", f"{configs}/rabi.yaml", "--out", f"{out}/rabi.json"],
             ["sample", f"{configs}/rabi.yaml", "--out", f"{out}/rabi.csv"],
             ["simulate", f"{configs}/dephasing.yaml", "--out", f"{out}/dephasing.json"],
             ["qrf", f"{configs}/rtn.yaml", "--out", f"{out}/rtn.json"]):
    assert main(argv) == 0
    record(" ".join(argv[:1]))
print(json.dumps(loaded))
"""


def test_no_step_of_any_kind_imports_scipy_linalg(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", STEPS, str(ROOT / "configs"), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert [step for step, _, _ in loaded] == [
        "import bornlab.cli", "load rabi", "load dephasing", "load rtn", "analyze", "sample",
        "simulate", "qrf"]
    assert [linalg for _, linalg, _ in loaded] == [False] * 8
    assert [scipy for _, _, scipy in loaded] == [False] * 8
