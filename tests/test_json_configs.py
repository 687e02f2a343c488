"""JSON configs run as their YAML forms run.

A config whose first non-blank character is ``{`` is read by ``json.loads``.
``json.dumps`` of each shipped config, compact and indented, runs every
command its YAML form runs, and writes the same report and CSV bytes, save
``config.path`` and ``config.sha256``, which name the file a run read. A JSON
config holds numbers as ``json.dumps`` writes them, ``1e-05`` included.
"""

import json
from pathlib import Path

import pytest
import yaml

from bornlab.cli import main
from bornlab.config import load_config
from bornlab.reporting import dump

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# each command and shipped config the YAML form runs with, and the flags it needs
RUNS = [(command, path.stem, []) for command in ("analyze", "sample")
        for path in sorted(CONFIGS.glob("*.yaml"))] + [
    ("simulate", "dephasing", []), ("simulate", "rabi_joint", ["--force"]),
    ("qrf", "rtn", []), ("qrf", "rotation", [])]


def _report(path):
    """The report at ``path`` as written, with the two fields naming the config file set aside."""
    text = path.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert dump(payload) == text
    payload["config"]["path"] = payload["config"]["sha256"] = None
    return dump(payload)


@pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indented"])
@pytest.mark.parametrize("command,name,flags", RUNS, ids=[f"{c}-{n}" for c, n, _ in RUNS])
def test_json_forms_of_shipped_configs_write_the_yaml_forms_bytes(command, name, flags, indent, tmp_path):
    data = yaml.safe_load((CONFIGS / f"{name}.yaml").read_bytes())
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(data, indent=indent), encoding="utf-8")
    outs = []
    for path in (CONFIGS / f"{name}.yaml", config):
        outs.append(tmp_path / f"{path.name}.{command}")
        assert main([command, str(path), "--out", str(outs[-1]), *flags]) == 0
    if command == "sample":
        assert outs[1].read_bytes() == outs[0].read_bytes()
    else:
        assert _report(outs[1]) == _report(outs[0])


def test_a_tolerance_json_writes_with_an_exponent_runs(tmp_path):
    data = yaml.safe_load((CONFIGS / "rabi.yaml").read_bytes())
    data["tolerances"] = {"consistency": 0.00001}
    for indent in (None, 2):
        text = json.dumps(data, indent=indent)
        assert "1e-05" in text
        config = tmp_path / "rabi.json"
        config.write_text(text, encoding="utf-8")
        assert load_config(config).tolerances.consistency == 1e-05
        assert main(["analyze", str(config), "--out", str(tmp_path / "r.json")]) == 0
