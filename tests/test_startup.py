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
* ``numpy.random`` is loaded after no step, ``sample`` and ``simulate``
  included: ``sampler._uniforms`` computes numpy's PCG64 stream itself, so no
  command pays numpy's lazy import of its random module.
* ``yaml`` is loaded after no step: configs are read without PyYAML, by
  ``json.loads`` if they are JSON and by ``config._read_yaml`` otherwise. The
  last two steps load a config whose ``kind`` is quoted and the JSON form of
  rabi.yaml.

A second process makes ``yaml`` unimportable and runs every command on every
shipped config and on its JSON forms; each exits as it does with PyYAML
installed.
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
           "argparse", "gettext", "locale", "yaml", "numpy.random")

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
rabi = open(f"{configs}/rabi.yaml", encoding="utf-8").read()
with open(f"{out}/greek.yaml", "w", encoding="utf-8") as fh:
    fh.write(rabi.replace("schema: 1", "# γ — ε\\nschema: 1"))
load_config(f"{out}/greek.yaml")
record("load non-ASCII comment")
for argv in (["analyze", f"{configs}/rabi.yaml", "--out", f"{out}/rabi.json"],
             ["sample", f"{configs}/rabi.yaml", "--out", f"{out}/rabi.csv"],
             ["simulate", f"{configs}/dephasing.yaml", "--out", f"{out}/dephasing.json"],
             ["qrf", f"{configs}/rtn.yaml", "--out", f"{out}/rtn.json"]):
    assert main(argv) == 0
    record(" ".join(argv[:1]))
with open(f"{out}/quoted.yaml", "w", encoding="utf-8") as fh:
    fh.write(rabi.replace("kind: unitary", 'kind: "unitary"'))
load_config(f"{out}/quoted.yaml")
record("load quoted kind")
with open(f"{out}/rabi.json", "w", encoding="utf-8") as fh:
    json.dump(load_config(f"{configs}/rabi.yaml").raw, fh)
load_config(f"{out}/rabi.json")
record("load JSON")
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
        "import bornlab.cli", "load rabi", "load dephasing", "load rtn", "load non-ASCII comment",
        "analyze", "sample", "simulate", "qrf", "load quoted kind", "load JSON"]
    assert ["scipy.linalg" in names for names in loaded.values()] == [False] * 11
    assert ["scipy" in names for names in loaded.values()] == [False] * 11


def test_each_step_loads_only_what_its_config_kind_needs(loaded):
    assert ["dataclasses" in names for names in loaded.values()] == [False] * 11
    command_modules = {"bornlab.consistency", "bornlab.sampler", "bornlab.reporting", "json"}
    assert loaded["import bornlab.cli"] == command_modules
    assert loaded["load rabi"] == command_modules
    assert loaded["load dephasing"] == command_modules | {"bornlab.observer"}
    assert "bornlab.qrf" in loaded["load rtn"]


def test_no_step_loads_argparse_gettext_or_locale(loaded):
    assert [names & {"argparse", "gettext", "locale"} for names in loaded.values()] == [set()] * 11


def test_no_step_loads_yaml(loaded):
    assert ["yaml" in names for names in loaded.values()] == [False] * 11


def test_no_step_loads_numpy_random(loaded):
    assert ["numpy.random" in names for names in loaded.values()] == [False] * 11


WITHOUT_YAML = """
import contextlib, io, json, sys
sys.modules["yaml"] = None
from bornlab.cli import main
from bornlab.config import load_config

configs, out = sys.argv[1], sys.argv[2]
exits = {}
for name in ("dephasing", "quasistatic", "rabi", "rabi_joint", "rotation", "rtn"):
    paths = {"yaml": f"{configs}/{name}.yaml"}
    for form, indent in (("json", None), ("indented", 2)):
        paths[form] = f"{out}/{name}.{form}"
        with open(paths[form], "w", encoding="utf-8") as fh:
            json.dump(load_config(paths["yaml"]).raw, fh, indent=indent)
    for command in ("analyze", "sample", "simulate", "qrf"):
        for form, path in paths.items():
            argv = [command, path, "--out", f"{out}/{name}.{form}.out"]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                exits[f"{command} {name} {form}"] = main(argv)
print(json.dumps(exits))
"""
# the exit code of simulate and qrf on the shipped configs with PyYAML installed: 2 where
# the config is of another kind, 4 where simulate's surrogate-field gate fails; analyze and
# sample exit 0 on each
EXITS = {"simulate": {"dephasing": 0, "rabi_joint": 4}, "qrf": {"rotation": 0, "rtn": 0}}


def test_every_command_exits_as_before_without_pyyaml(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", WITHOUT_YAML, str(ROOT / "configs"), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    exits = json.loads(proc.stdout.splitlines()[-1])
    assert len(exits) == 4 * 6 * 3
    for run, code in exits.items():
        command, name, _ = run.split()
        assert code == (EXITS[command].get(name, 2) if command in EXITS else 0), run
