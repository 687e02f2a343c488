"""The benchmark's tracer finds every bornlab name it wraps.

``perfbench/tracing.py`` replaces functions at the names their callers look
up, with ``getattr``; a name the library stops binding would crash every
traced benchmark run.
"""

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
