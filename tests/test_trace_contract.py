"""The benchmark's tracer finds every bornlab name it wraps.

``perfbench/tracing.py`` replaces functions at the names their callers look
up, with ``getattr``; a name the library stops binding would crash every
traced benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_the_library():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import tracing; tracing.install(tracing.Recorder('contract'))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "perfbench", env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


TRACED_RUN = """
import json, sys
import tracing
from bornlab import cli

recorder = tracing.install(tracing.Recorder("contract"))
config, out = sys.argv[1], sys.argv[2]
for argv in (["sample", config + "/rtn.yaml", "--out", out + "/rtn.csv"],
             ["simulate", config + "/dephasing.yaml", "--out", out + "/dephasing.json"]):
    assert recorder.call(tracing.ROOT, cli.main, (argv,), {}) == 0
recorder.dump(out + "/trace.json")
with open(out + "/trace.json", encoding="utf-8") as fh:
    summary = tracing.aggregate(json.load(fh))
with open(out + "/sums.json", "w", encoding="utf-8") as fh:
    json.dump(summary["sums"], fh)
"""


def test_traced_runs_sum_the_sampling_and_surrogate_notes(tmp_path):
    # rtn: 20000 trajectories over 2^3 histories; dephasing: 10000 over 2
    # histories (a static observable), each averaged at 5 probe times
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(ROOT / "configs"), str(tmp_path)],
                          cwd=ROOT / "perfbench", env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    sums = json.loads((tmp_path / "sums.json").read_text(encoding="utf-8"))
    assert sums["trajectories"] == 30000
    assert sums["distinct_histories"] == 10
    assert sums["propagations"] == 50000
