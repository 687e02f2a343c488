"""What a fresh bornlab process loads, step by step.

Each step below runs in one fresh interpreter (the test process itself has
long imported scipy for the oracles), and after each the loaded modules of
interest are recorded:

* ``scipy.linalg`` costs about a third of a second of import. GKLS maps come
  from ``qrf.expm``, a numpy Padé exponential, so no config kind needs it,
  and reports name no scipy version: neither ``scipy`` nor ``scipy.linalg``
  is loaded after any step.
* ``dataclasses`` is loaded after no step: bornlab's records are NamedTuples
  or plain classes, which are several times cheaper to define.
* ``bornlab.observer`` loads only with a ``kind: joint`` config and
  ``bornlab.qrf`` only with a ``kind: qrf`` config, so neither is loaded
  after ``import bornlab.cli`` or after loading a unitary config.
* ``argparse``, and the ``gettext`` and ``locale`` it loads when it builds a
  parser, are loaded after no step: ``bornlab.cli`` reads its four commands'
  grammar itself, so neither set-up nor a timed command pays for them.
* What every command needs (``consistency``, ``sampler``, ``reporting`` and
  ``json``) is loaded by ``import bornlab.cli``, so none of that import is
  paid inside ``main``, where the benchmark times a command.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TRACKED = ("scipy.linalg", "scipy", "dataclasses", "bornlab.observer", "bornlab.qrf",
           "bornlab.consistency", "bornlab.sampler", "bornlab.reporting", "json",
           "argparse", "gettext", "locale")

STEPS = """
import json, sys
from bornlab.cli import main
from bornlab.config import load_config

configs, out, tracked = sys.argv[1], sys.argv[2], sys.argv[3].split(",")
loaded = []

def record(step):
    loaded.append([step, [name for name in tracked if name in sys.modules]])

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


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """The tracked modules loaded after each step, by step name, in step order."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", STEPS, str(ROOT / "configs"),
                           str(tmp_path_factory.mktemp("out")), ",".join(TRACKED)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {step: set(names) for step, names in json.loads(proc.stdout.splitlines()[-1])}


def test_no_step_of_any_kind_imports_scipy_linalg(loaded):
    assert list(loaded) == [
        "import bornlab.cli", "load rabi", "load dephasing", "load rtn", "analyze", "sample",
        "simulate", "qrf"]
    assert ["scipy.linalg" in names for names in loaded.values()] == [False] * 8
    assert ["scipy" in names for names in loaded.values()] == [False] * 8


def test_each_step_loads_only_what_its_config_kind_needs(loaded):
    assert ["dataclasses" in names for names in loaded.values()] == [False] * 8
    command_modules = {"bornlab.consistency", "bornlab.sampler", "bornlab.reporting", "json"}
    assert loaded["import bornlab.cli"] == command_modules
    assert loaded["load rabi"] == command_modules
    assert loaded["load dephasing"] == command_modules | {"bornlab.observer"}
    assert "bornlab.qrf" in loaded["load rtn"]


def test_no_step_loads_argparse_gettext_or_locale(loaded):
    assert [names & {"argparse", "gettext", "locale"} for names in loaded.values()] == [set()] * 8
