import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from bornlab import config, process, qrf
from bornlab.cli import main
from bornlab.config import load_config, parse_complex, parse_matrix
from bornlab.errors import ConfigError
from bornlab.process import QuantumSystem

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def write(tmp_path, text, name="scenario.yaml"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


RABI_YAML = """
schema: 1
kind: unitary
system:
  H: [[0, 0.5], [0.5, 0]]
  F: [[1, 0], [0, -1]]
  rho: [[1, 0], [0, 0]]
grids:
  main: [0.7853981633974483, 1.5707963267948966]
n_max: 2
sampling: {N: 200, seed: 7}
"""

DEPHASING_YAML = """
schema: 1
kind: joint
system:
  H: [[0, 0], [0, 0]]
  F: [[1, 0], [0, -1]]
  rho: [[0.5, 0], [0, 0.5]]
observer:
  H_o: [[0, 0], [0, 0]]
  G_o: [[1, 0], [0, -1]]
  rho_o: [[0.5, 0.5], [0.5, 0.5]]
  coupling: 0.25
grids:
  main: [0.5, 1.0, 1.5]
n_max: 2
sampling: {N: 400, seed: 11}
"""

# each integer field of RABI_YAML, set to a given YAML scalar
INTEGER_FIELDS = {
    "n_max": lambda v: RABI_YAML.replace("n_max: 2", f"n_max: {v}"),
    "caps.table_entries": lambda v: RABI_YAML + f"caps: {{table_entries: {v}}}\n",
    "caps.joint_dim": lambda v: RABI_YAML + f"caps: {{joint_dim: {v}}}\n",
    "sampling.N": lambda v: RABI_YAML.replace("N: 200", f"N: {v}"),
    "sampling.seed": lambda v: RABI_YAML.replace("seed: 7", f"seed: {v}"),
}
# a seed need only be non-negative
BAD_INTEGERS = [(field, value) for field in INTEGER_FIELDS
                for value in ("abc", "2.7", "true", "null", "-3", "0")
                if (field, value) != ("sampling.seed", "0")]

RTN_YAML = (CONFIGS / "rtn.yaml").read_text(encoding="utf-8")
# each float field, set to a given YAML scalar, in a config of a kind that reads it
NUMBER_FIELDS = {
    "grids.main": lambda v: RABI_YAML.replace("1.5707963267948966]", f"{v}]"),
    "tolerances.consistency": lambda v: RABI_YAML + f"tolerances: {{consistency: {v}}}\n",
    "tolerances.cluster": lambda v: RABI_YAML + f"tolerances: {{cluster: {v}}}\n",
    "observer.coupling": lambda v: DEPHASING_YAML.replace("coupling: 0.25", f"coupling: {v}"),
    "simulate.probe_times": lambda v: DEPHASING_YAML + f"simulate: {{probe_times: [0.5, {v}]}}\n",
    "qrf.mu": lambda v: RTN_YAML.replace("mu: 1.0", f"mu: {v}"),
    "qrf.rates[0].omega": lambda v: RTN_YAML.replace("omega: 0.0", f"omega: {v}"),
    "system.H[0][0]": lambda v: RABI_YAML.replace("H: [[0, 0.5]", f"H: [[{v}, 0.5]"),
    "qrf.rates[0].gamma": lambda v: RTN_YAML.replace("gamma: 0.35", f"gamma: {v}"),
}
RAW_GENERATOR_YAML = """
schema: 1
kind: qrf
qrf:
  generator: [[0, 0, 0, 0], [0, -1.4, 1.4, 0], [0, 1.4, -1.4, 0], [0, 0, 0, 0]]
  F_a: [[0.5, 0], [0, -0.5]]
  rho_a: [[0.5, 0], [0, 0.5]]
grids:
  main: [0.4, 1.1]
"""
# inputs within the config's tolerances that a later check refused against another number
WITHIN_TOLERANCE = {
    "unitary-H-hermiticity": RABI_YAML.replace("[0.5, 0]]", "[0.500000001, 0]]")
    + "tolerances: {hermiticity: 1.0e-6}\n",
    "unitary-rho-trace": RABI_YAML.replace("rho: [[1, 0]", "rho: [[1.0000001, 0]")
    + "tolerances: {density: 1.0e-6}\n",
    "qrf-rho_a-trace": RTN_YAML.replace("rho_a: [[0.5, 0]", "rho_a: [[0.5000001, 0]")
    + "tolerances: {density: 1.0e-6}\n",
    "raw-generator-F_a-hermiticity": RAW_GENERATOR_YAML.replace("F_a: [[0.5, 0]",
                                                                "F_a: [[0.5, 0.000000001]")
    + "tolerances: {hermiticity: 1.0e-6}\n",
}

# a number must be finite and not a boolean; a tolerance ≥ 0, the cluster width > 0
BAD_NUMBERS = [(field, value) for field in NUMBER_FIELDS for value in ("abc", ".nan", "true")] + [
    ("tolerances.consistency", "-1.0"), ("tolerances.consistency", "null"),
    ("tolerances.cluster", "0.0"), ("qrf.mu", ".inf"),
    pytest.param("qrf.mu", "9" * 400, id="qrf.mu-beyond-float-range")] + [
    # a complex entry is checked part by part: finite, and within float range
    pytest.param(field, value, id=f"{field}-{name}")
    for field in ("system.H[0][0]", "qrf.rates[0].gamma")
    for name, value in ((".inf", ".inf"), ("[0.35, .inf]", "[0.35, .inf]"),
                        ("beyond-float-range", "9" * 400),
                        ("imaginary-beyond-float-range", f"[0.35, {'9' * 400}]"))]


class TestConfigParsing:
    def test_complex_entries(self):
        assert parse_complex(1.5, "x") == 1.5 + 0j
        assert parse_complex([1, -2], "x") == 1 - 2j
        with pytest.raises(ConfigError):
            parse_complex("nope", "x")
        with pytest.raises(ConfigError):
            parse_complex([1, 2, 3], "x")

    def test_matrix_field_diagnostics(self):
        with pytest.raises(ConfigError) as err:
            parse_matrix([[1, "bad"]], "system.H")
        assert "system.H[0][1]" in str(err.value)

    def test_minimal_unitary_roundtrip(self, tmp_path):
        cfg = load_config(write(tmp_path, RABI_YAML))
        assert cfg.kind == "unitary"
        sys = cfg.build_system()
        assert sys.dim == 2
        assert cfg.grids["main"].n == 2
        assert cfg.sampling.size == 200
        assert len(cfg.sha256) == 64

    def test_schema_version_enforced(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, RABI_YAML.replace("schema: 1", "schema: 9")))

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, RABI_YAML + "\nbogus: 1\n"))

    def test_kind_requires_sections(self, tmp_path):
        text = RABI_YAML.replace("kind: unitary", "kind: joint")
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text))
        assert "observer" in str(err.value)

    def test_non_hermitian_matrix_names_field(self, tmp_path):
        text = RABI_YAML.replace("H: [[0, 0.5], [0.5, 0]]", "H: [[0, 1], [0, 0]]")
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text))
        assert "system" in str(err.value)
        assert "hermiticity" in str(err.value)

    def test_yaml_error_reports_line(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, "schema: 1\nkind: [unclosed"))
        assert "line" in str(err.value)

    def test_probe_times_must_lie_in_grid_span(self, tmp_path):
        text = DEPHASING_YAML + "simulate:\n  grid: main\n  probe_times: [9.0]\n"
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text))
        assert "probe" in str(err.value)


RTN_YAML = (CONFIGS / "rtn.yaml").read_text(encoding="utf-8")

# a config holding one unknown key, and the refusal naming its section and the key
UNKNOWN_KEYS = {
    "caps": (RABI_YAML + "caps: {table_entris: 2}\n", "caps: unknown keys ['table_entris']"),
    "report": (RABI_YAML + "report: {max_table_entrys: 1}\n",
               "report: unknown keys ['max_table_entrys']"),
    "sampling": (RABI_YAML.replace("{N: 200, seed: 7}", "{N: 200, seed: 7, gird: main}"),
                 "sampling: unknown keys ['gird']"),
    "simulate": (DEPHASING_YAML + "simulate: {grid: main, probes: [0.5]}\n",
                 "simulate: unknown keys ['probes']"),
    "system": (RABI_YAML.replace("  rho:", "  rho0: 1\n  rho:"), "system: unknown keys ['rho0']"),
    "observer": (DEPHASING_YAML.replace("  coupling:", "  lambda: 1\n  coupling:"),
                 "observer: unknown keys ['lambda']"),
    "qrf": (RTN_YAML.replace("  mu:", "  nu: 1\n  mu:"), "qrf: unknown keys ['nu']"),
    "qrf.rates": (RTN_YAML.replace("gamma: 0.35}", "gamma: 0.35, gama: 0.35}"),
                  "qrf.rates[0]: unknown keys ['gama']"),
    "top-level keys of two types": (RABI_YAML + "1: x\nbogus: y\n",
                                    "unknown top-level keys [1, 'bogus']"),
}

# each kind, a config of it and a section it does not read
FOREIGN_SECTIONS = {
    f"{kind}-{section}": (kind, text, section)
    for kind, text, sections in [
        ("unitary", RABI_YAML, ("observer", "qrf", "simulate")),
        ("joint", DEPHASING_YAML, ("qrf",)),
        ("qrf", RTN_YAML, ("system", "observer", "simulate")),
    ]
    for section in sections
}
# a well-formed body of each such section
SECTION_BODIES = {
    "system": "{H: [[0]], F: [[1]], rho: [[1]]}",
    "observer": "{H_o: [[0]], G_o: [[1]], rho_o: [[1]], coupling: 0.25}",
    "qrf": "{generator: [[0]], F_a: [[1]], rho_a: [[1]]}",
    "simulate": "{grid: main}",
}
JOINT_WITHOUT_SAMPLING = DEPHASING_YAML.replace("sampling: {N: 400, seed: 11}\n", "")


class TestExitCodes:
    def test_config_error_exits_2(self, tmp_path, capsys):
        bad = write(tmp_path, RABI_YAML.replace("H: [[0, 0.5], [0.5, 0]]", "H: [[0, 1], [0, 0]]"))
        code = main(["analyze", bad, "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "system" in capsys.readouterr().err

    def test_cap_error_exits_3(self, tmp_path):
        text = RABI_YAML + "caps: {table_entries: 2}\n"
        code = main(["analyze", write(tmp_path, text), "--out", str(tmp_path / "r.json")])
        assert code == 3

    def test_joint_dim_cap_exits_3(self, tmp_path):
        text = DEPHASING_YAML + "caps: {joint_dim: 2}\n"
        code = main(["simulate", write(tmp_path, text), "--out", str(tmp_path / "r.json")])
        assert code == 3

    def test_sf_refusal_exits_4_and_force_overrides(self, tmp_path):
        text = DEPHASING_YAML.replace("H: [[0, 0], [0, 0]]\n  F", "H: [[0, 0.5], [0.5, 0]]\n  F", 1)
        text = text.replace("rho: [[0.5, 0], [0, 0.5]]", "rho: [[1, 0], [0, 0]]")
        path = write(tmp_path, text)
        out = str(tmp_path / "sim.json")
        assert main(["simulate", path, "--out", out]) == 4
        assert main(["simulate", path, "--out", out, "--force"]) == 0
        report = json.loads(Path(out).read_text())
        assert report["forced"] is True
        assert report["sf_gate"]["verdict"] == "fail"

    def test_io_error_exits_5(self, tmp_path):
        path = write(tmp_path, RABI_YAML)
        code = main(["sample", path, "--out", str(tmp_path / "no_dir" / "x.csv")])
        assert code == 5

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["analyze", str(tmp_path / "absent.yaml")]) == 2

    @pytest.mark.parametrize("value", ["abc", "-3", "0", "2.7", "true", "null", "[4]"])
    def test_max_table_entries_must_be_a_positive_integer(self, value, tmp_path, capsys):
        path = write(tmp_path, RABI_YAML + f"report: {{max_table_entries: {value}}}\n")
        with pytest.raises(ConfigError, match="report.max_table_entries"):
            load_config(path)
        out = tmp_path / "r.json"
        assert main(["analyze", path, "--out", str(out)]) == 2
        assert "report.max_table_entries" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field,value", BAD_INTEGERS)
    def test_integer_fields_are_strict(self, field, value, tmp_path, capsys):
        path = write(tmp_path, INTEGER_FIELDS[field](value))
        with pytest.raises(ConfigError, match=field):
            load_config(path)
        out = tmp_path / "r.json"
        assert main(["analyze", path, "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field,value", BAD_NUMBERS)
    def test_number_fields_are_strict(self, field, value, tmp_path, capsys):
        path = write(tmp_path, NUMBER_FIELDS[field](value))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value).startswith(field + ":")
        out = tmp_path / "r.json"
        assert main(["analyze", path, "--out", str(out)]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not out.exists()

    def test_tolerances_must_be_a_mapping(self, tmp_path):
        with pytest.raises(ConfigError, match="tolerances: expected a mapping"):
            load_config(write(tmp_path, RABI_YAML + "tolerances: [1.0e-8]\n"))

    def test_zero_tolerance_and_null_cluster_are_accepted(self, tmp_path):
        text = RABI_YAML + "tolerances: {consistency: 0, cluster: null}\n"
        tol = load_config(write(tmp_path, text)).tolerances
        assert tol.consistency == 0.0 and tol.cluster is None

    @pytest.mark.parametrize("name,command", [
        ("unitary-H-hermiticity", "analyze"), ("unitary-H-hermiticity", "sample"),
        ("unitary-rho-trace", "analyze"), ("qrf-rho_a-trace", "qrf"),
        ("raw-generator-F_a-hermiticity", "qrf"),
    ])
    def test_an_input_within_the_config_tolerance_runs(self, name, command, tmp_path):
        out = tmp_path / "out"
        assert main([command, write(tmp_path, WITHIN_TOLERANCE[name]), "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("key", ["unitarity", "prob_floor"])
    def test_a_tolerance_no_check_reads_is_refused(self, key, tmp_path, capsys):
        path = write(tmp_path, RABI_YAML + f"tolerances: {{{key}: 1.0e-10}}\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        assert main(["analyze", path, "--out", str(tmp_path / "r.json")]) == 2
        assert f"tolerances: unknown keys ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("section", list(UNKNOWN_KEYS))
    def test_an_unknown_key_in_any_section_is_refused(self, section, tmp_path, capsys):
        text, message = UNKNOWN_KEYS[section]
        out = tmp_path / "r.json"
        assert main(["analyze", write(tmp_path, text), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"bornlab: config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("section", list(FOREIGN_SECTIONS))
    def test_a_section_the_kind_does_not_read_is_refused(self, section, tmp_path, capsys):
        kind, text, name = FOREIGN_SECTIONS[section]
        out = tmp_path / "r.json"
        path = write(tmp_path, text + f"{name}: {SECTION_BODIES[name]}\n")
        assert main(["analyze", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"bornlab: config error: {name}: kind {kind!r} reads no {name!r} section\n")
        assert not out.exists()

    @pytest.mark.parametrize("value,shown", [("[]", "[]"), ("0", "0"), ("false", "False"),
                                             ("''", "''")], ids=["list", "zero", "false", "empty"])
    @pytest.mark.parametrize("section", ["caps", "report", "tolerances", "sampling", "simulate"])
    def test_a_section_that_is_not_a_mapping_is_refused(self, section, value, shown, tmp_path,
                                                        capsys):
        text = JOINT_WITHOUT_SAMPLING + f"{section}: {value}\n"
        out = tmp_path / "r.json"
        assert main(["analyze", write(tmp_path, text), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"bornlab: config error: {section}: expected a mapping, got {shown}\n")
        assert not out.exists()

    @pytest.mark.parametrize("section", ["caps", "report", "tolerances", "sampling", "simulate"])
    def test_a_null_section_reads_as_absent(self, section, tmp_path):
        absent = load_config(write(tmp_path, JOINT_WITHOUT_SAMPLING, "absent.yaml"))
        path = write(tmp_path, JOINT_WITHOUT_SAMPLING + f"{section}: null\n")
        null = load_config(path)
        assert (null.tolerances, null.table_cap, null.joint_dim_cap, null.report_max_entries,
                null.sampling, null.simulate) == (
            absent.tolerances, absent.table_cap, absent.joint_dim_cap,
            absent.report_max_entries, absent.sampling, absent.simulate)
        out = tmp_path / "r.json"
        assert main(["analyze", path, "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("section", list(FOREIGN_SECTIONS))
    def test_a_null_foreign_section_reads_as_absent(self, section, tmp_path):
        _, text, name = FOREIGN_SECTIONS[section]
        out = tmp_path / "r.json"
        assert main(["analyze", write(tmp_path, text + f"{name}: null\n"), "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("section", ["system", "observer"])
    def test_a_null_required_section_is_missing(self, section, tmp_path, capsys):
        text = re.sub(f"\n{section}:\n(  .*\n)+", f"\n{section}: null\n", DEPHASING_YAML)
        out = tmp_path / "r.json"
        assert main(["analyze", write(tmp_path, text), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"bornlab: config error: {section}: kind 'joint' requires the {section!r} section\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["H_a", "G_a", "rates", "mu"])
    def test_the_generator_form_refuses_the_rate_form_keys(self, key, tmp_path, capsys):
        value = {"H_a": "[[0, 0], [0, 0]]", "G_a": "[[0, 1], [1, 0]]",
                 "rates": "[{omega: 0.0, gamma: 0.35}]", "mu": "1.0"}[key]
        text = RAW_GENERATOR_YAML.replace("  F_a:", f"  {key}: {value}\n  F_a:")
        out = tmp_path / "r.json"
        assert main(["qrf", write(tmp_path, text), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"bornlab: config error: qrf: the generator form reads no ['{key}']\n")
        assert not out.exists()

    @pytest.mark.parametrize("field,old,new,message", [
        ("schema", "schema: 1", "schema: true", "expected schema 1, got True"),
        ("schema", "schema: 1", "schema: 1.0", "expected schema 1, got 1.0"),
        ("kind", "kind: unitary", "kind: [unitary]",
         "kind must be one of ['joint', 'qrf', 'unitary'], got ['unitary']"),
        ("kind", "kind: unitary", "kind: {a: 1}",
         "kind must be one of ['joint', 'qrf', 'unitary'], got {'a': 1}"),
    ], ids=["schema-true", "schema-float", "kind-list", "kind-mapping"])
    def test_schema_and_kind_are_read_strictly(self, field, old, new, message, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["analyze", write(tmp_path, RABI_YAML.replace(old, new)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"bornlab: config error: {field}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("out", [["--out="], ["--out", ""]], ids=["joined", "separate"])
    def test_an_empty_out_is_a_usage_error(self, out, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", str(CONFIGS / "rabi.yaml"), *out]) == 2
        err = capsys.readouterr().err
        assert err.endswith("bornlab: usage error: --out needs a non-empty path\n")
        assert list(tmp_path.iterdir()) == []

    def test_seed_zero_is_accepted(self, tmp_path):
        assert load_config(write(tmp_path, INTEGER_FIELDS["sampling.seed"](0))).sampling.seed == 0

    @pytest.mark.parametrize("command", ["sample", "simulate"])
    def test_seed_override_must_be_a_non_negative_integer(self, command, tmp_path, capsys):
        path = write(tmp_path, DEPHASING_YAML)
        out = tmp_path / "out"
        assert main([command, path, "--out", str(out), "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()
        assert main([command, path, "--out", str(out), "--seed", "2.7"]) == 2
        assert "bornlab: config error: --seed: " in capsys.readouterr().err
        assert not out.exists()


class TestAnalyzeCommand:
    def test_rabi_report_contents(self, tmp_path):
        path = write(tmp_path, RABI_YAML)
        out = str(tmp_path / "rabi.json")
        assert main(["analyze", path, "--out", out]) == 0
        report = json.loads(Path(out).read_text())
        assert report["command"] == "analyze"
        assert report["tool"]["name"] == "bornlab"
        assert report["tool"]["rng"].startswith("numpy.random.PCG64")
        assert report["config"]["sha256"]
        n2 = [a for a in report["analyses"] if a["n"] == 2][0]
        kc = [r for r in n2["consistency"] if r["condition"] == "KC"][0]
        assert kc["verdict"] == "fail"
        assert abs(kc["max_abs_violation"] - 0.25) <= 1e-9
        assert kc["witness"]["index"] == 1
        assert kc["coverage"]["indices"] == [1, 2]
        sf = [r for r in n2["consistency"] if r["condition"] == "SF"][0]
        assert sf["verdict"] == "fail"

    def test_quasistatic_all_pass(self, tmp_path):
        out = str(tmp_path / "qs.json")
        assert main(["analyze", str(CONFIGS / "quasistatic.yaml"), "--out", out]) == 0
        report = json.loads(Path(out).read_text())
        for entry in report["analyses"]:
            for rec in entry["consistency"]:
                assert rec["verdict"] == "pass", rec

    def test_exit_zero_despite_failed_verdicts(self, tmp_path):
        path = write(tmp_path, RABI_YAML)
        assert main(["analyze", path, "--out", str(tmp_path / "r.json")]) == 0


class TestSampleCommand:
    def test_csv_format_and_determinism(self, tmp_path):
        path = write(tmp_path, RABI_YAML)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["sample", path, "--out", a]) == 0
        assert main(["sample", path, "--out", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()
        lines = Path(a).read_text().strip().split("\n")
        assert lines[0] == "t_1,t_2"
        assert len(lines) == 201

    def test_seed_override_changes_output(self, tmp_path):
        path = write(tmp_path, RABI_YAML)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["sample", path, "--out", a])
        main(["sample", path, "--out", b, "--seed", "12345"])
        assert Path(a).read_bytes() != Path(b).read_bytes()

    def test_kc_warning_emitted_for_rabi(self, tmp_path, capsys):
        path = write(tmp_path, RABI_YAML)
        main(["sample", path, "--out", str(tmp_path / "t.csv")])
        assert "measurement-contextual" in capsys.readouterr().err

    def test_no_warning_for_consistent_system(self, tmp_path, capsys):
        out = str(tmp_path / "qs.csv")
        main(["sample", str(CONFIGS / "quasistatic.yaml"), "--out", out, "--seed", "3"])
        assert "measurement-contextual" not in capsys.readouterr().err

    def test_kc_skipped_at_the_cap_is_noted(self, tmp_path, capsys):
        path = write(tmp_path, RABI_YAML + "caps: {table_entries: 2}\n")
        assert main(["sample", path, "--out", str(tmp_path / "t.csv")]) == 0
        err = capsys.readouterr().err
        assert "KC not checked at n=2" in err
        assert "exceeding the cap of 2" in err
        assert "violate Kolmogorov consistency" not in err

    def test_threads_is_not_an_option(self, tmp_path):
        path = write(tmp_path, RABI_YAML)
        assert main(["sample", path, "--out", str(tmp_path / "a.csv"), "--threads", "1"]) == 2
        assert not (tmp_path / "a.csv").exists()

    def test_rtn_csv_switch_rate(self, tmp_path):
        # read the shipped RTN scenario's CSV back and estimate the flip rate
        out = str(tmp_path / "rtn.csv")
        assert main(["sample", str(CONFIGS / "rtn.yaml"), "--out", out]) == 0
        rows = [
            [float(v) for v in line.split(",")]
            for line in Path(out).read_text().strip().split("\n")[1:]
        ]
        gamma = 0.7
        times = [0.4, 1.1, 1.9]
        flips = total = 0
        for row in rows:
            for a, b in zip(row, row[1:]):
                flips += a != b
                total += 1
        # pooled over unequal gaps: expected flip fraction is the gap average
        expected = np.mean(
            [0.5 * (1 - np.exp(-2 * gamma * (t2 - t1)))
             for t1, t2 in zip(times, times[1:])]
        )
        se = np.sqrt(expected * (1 - expected) / total)
        assert abs(flips / total - expected) <= 3.0 * se


class TestSimulateCommand:
    def test_zero_coupling_zero_distance(self, tmp_path):
        text = DEPHASING_YAML.replace("coupling: 0.25", "coupling: 0.0")
        out = str(tmp_path / "sim.json")
        assert main(["simulate", write(tmp_path, text), "--out", out]) == 0
        report = json.loads(Path(out).read_text())
        for c in report["comparisons"]:
            assert c["trace_distance"] <= 1e-10

    def test_dephasing_report_structure(self, tmp_path):
        out = str(tmp_path / "sim.json")
        assert main(["simulate", write(tmp_path, DEPHASING_YAML), "--out", out]) == 0
        report = json.loads(Path(out).read_text())
        assert report["forced"] is False
        assert report["sf_gate"]["verdict"] == "pass"
        assert report["seed"] == 11
        assert report["sampling"]["N"] == 400
        for c in report["comparisons"]:
            assert c["trace_distance"] <= 0.2
            assert len(c["mc_stderr"]) == 2

    def test_report_determinism(self, tmp_path):
        path = write(tmp_path, DEPHASING_YAML)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["simulate", path, "--out", a]) == 0
        assert main(["simulate", path, "--out", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_requires_joint_kind(self, tmp_path):
        assert main(["simulate", write(tmp_path, RABI_YAML),
                     "--out", str(tmp_path / "x.json")]) == 2


class TestQrfCommand:
    def test_rtn_report(self, tmp_path):
        out = str(tmp_path / "rtn.json")
        assert main(["qrf", str(CONFIGS / "rtn.yaml"), "--out", out]) == 0
        report = json.loads(Path(out).read_text())
        bs = report["block_structure"]
        assert bs["lower_triangular"] and bs["upper_triangular"]
        assert set(bs["labels"]) == {"coherence non-activating", "coherence non-generating"}
        entry = report["grids"][0]
        assert entry["ncgd"]["verdict"] == "pass"
        assert entry["cm"]["verdict"] == "pass"
        assert entry["sf"]["verdict"] == "pass"
        assert entry["ncgd_cm_equivalence"]["agree"] is True

    def test_rotation_report(self, tmp_path):
        out = str(tmp_path / "rot.json")
        assert main(["qrf", str(CONFIGS / "rotation.yaml"), "--out", out]) == 0
        report = json.loads(Path(out).read_text())
        bs = report["block_structure"]
        assert not bs["lower_triangular"] and not bs["upper_triangular"]
        entry = report["grids"][0]
        assert entry["ncgd"]["verdict"] == "fail"
        assert entry["cm"]["verdict"] == "fail"
        assert entry["ncgd_cm_equivalence"]["agree"] is True

    @pytest.mark.parametrize("gamma", ["8.0e+307", "1.0e+150"])
    def test_a_map_that_is_not_finite_exits_1_with_one_line(self, gamma, tmp_path):
        text = (CONFIGS / "rtn.yaml").read_text(encoding="utf-8").replace(
            "gamma: 0.35", f"gamma: {gamma}")
        out = tmp_path / "rtn.json"
        proc = subprocess.run(
            [sys.executable, "-m", "bornlab.cli", "qrf", write(tmp_path, text), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["bornlab: Λ(τ) is not finite at τ = 0.4"]
        assert not out.exists()

    def test_a_map_that_moves_the_trace_exits_1_naming_tau(self, tmp_path, capsys):
        # finite, but its squarings leave vec(1)ᵀΛ(0.4) off by about 1.6e-2
        out = tmp_path / "rtn.json"
        text = RTN_YAML.replace("gamma: 0.35", "gamma: 1.0e+14")
        assert main(["qrf", write(tmp_path, text), "--out", str(out)]) == 1
        assert re.fullmatch(r"bornlab: Λ\(τ\) does not preserve the trace at τ = 0\.4: .* beyond 1e-10",
                            capsys.readouterr().err.splitlines()[-1])
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "sample"])
    def test_a_refused_map_names_the_step_as_written(self, command, tmp_path, capsys):
        # the step from 0.4 to 1.1 is 0.7000000000000001 in floating point
        out = tmp_path / "rtn.out"
        text = RTN_YAML.replace("gamma: 0.35", "gamma: 1.0e+6")
        assert main([command, write(tmp_path, text), "--out", str(out)]) == 1
        assert re.fullmatch(r"bornlab: Λ\(τ\) does not preserve the trace at τ = 0\.7: .* beyond 1e-10",
                            capsys.readouterr().err.splitlines()[-1])
        assert not out.exists()

    def test_requires_qrf_kind(self, tmp_path):
        assert main(["qrf", write(tmp_path, RABI_YAML),
                     "--out", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("command, kind, config, given_kind", [
        ("qrf", "qrf", "rabi", "unitary"), ("qrf", "qrf", "dephasing", "joint"),
        ("simulate", "joint", "rtn", "qrf"), ("simulate", "joint", "quasistatic", "unitary"),
    ])
    def test_a_kind_mismatch_names_the_field_once_and_the_kind_given(
            self, command, kind, config, given_kind, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main([command, str(CONFIGS / f"{config}.yaml"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"bornlab: config error: kind: the {command} command needs {kind!r}, "
            f"got {given_kind!r}\n")
        assert not out.exists()

    def test_raw_generator_config(self, tmp_path):
        text = """
schema: 1
kind: qrf
qrf:
  generator:
    - [0, 0, 0, 0]
    - [0, -1.4, 1.4, 0]
    - [0, 1.4, -1.4, 0]
    - [0, 0, 0, 0]
  F_a: [[0.5, 0], [0, -0.5]]
  rho_a: [[0.5, 0], [0, 0.5]]
grids:
  main: [0.4, 1.1]
n_max: 2
"""
        out = str(tmp_path / "raw.json")
        assert main(["qrf", write(tmp_path, text), "--out", out]) == 0
        report = json.loads(Path(out).read_text())
        assert report["grids"][0]["sf"]["verdict"] == "pass"

    @pytest.mark.parametrize("row,col,entry,broken", [(0, 0, "-1", "trace"),
                                                      (1, 1, "[0, 1]", "Hermiticity")])
    def test_raw_generator_must_preserve_trace_and_hermiticity(self, row, col, entry, broken,
                                                               tmp_path, capsys):
        rows = [["0"] * 4 for _ in range(4)]
        rows[row][col] = entry
        generator = "[" + ", ".join("[" + ", ".join(r) + "]" for r in rows) + "]"
        text = (f"schema: 1\nkind: qrf\nqrf:\n  generator: {generator}\n"
                "  F_a: [[0.5, 0], [0, -0.5]]\n  rho_a: [[0.5, 0], [0, 0.5]]\n"
                "grids:\n  main: [0.4, 1.1]\n")
        out = tmp_path / "raw.json"
        assert main(["qrf", write(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: qrf: generator does not preserve " + broken in err
        assert not out.exists()


def test_the_readme_schema_block_lists_every_section_and_key():
    schema = (ROOT / "README.md").read_text(encoding="utf-8").split("## Config schema", 1)[1]
    block = schema.split("```yaml\n", 1)[1].split("```", 1)[0]
    # the block writes qrf's generator form as a comment beside the rate form
    listed = yaml.safe_load(block.replace("# generator:", "generator:"))
    assert set(listed) == config._TOP_LEVEL_KEYS
    assert {name: set(listed[name]) for name in config._SECTIONS} == {
        name: set(keys) for name, keys in config._SECTIONS.items()}


def test_shipped_configs_load():
    for name in ("quasistatic", "rabi", "dephasing", "rabi_joint", "rtn", "rotation"):
        cfg = load_config(str(CONFIGS / f"{name}.yaml"))
        assert cfg.kind in ("unitary", "joint", "qrf")


@pytest.mark.parametrize("command,name,systems,generators", [
    ("simulate", "dephasing", 1, 0),
    ("analyze", "rabi", 1, 0),
    ("qrf", "rtn", 0, 1),
])
def test_a_command_builds_its_source_once_after_loading(command, name, systems, generators,
                                                       monkeypatch, tmp_path, capsys):
    # load_config builds the source to validate it and keeps it for the command
    calls = {"systems": 0, "generators": 0}
    from_operators, build_gkls = QuantumSystem.from_operators.__func__, qrf.build_gkls

    def counted_system(cls, *args, **kwargs):
        calls["systems"] += 1
        return from_operators(cls, *args, **kwargs)

    def counted_gkls(*args, **kwargs):
        calls["generators"] += 1
        return build_gkls(*args, **kwargs)

    monkeypatch.setattr(QuantumSystem, "from_operators", classmethod(counted_system))
    monkeypatch.setattr(qrf, "build_gkls", counted_gkls)  # build_qrf imports it from qrf
    out = tmp_path / f"{name}.{command}.json"
    assert main([command, str(CONFIGS / f"{name}.yaml"), "--out", str(out)]) == 0
    assert calls == {"systems": systems, "generators": generators}


@pytest.mark.parametrize("command,name,module,attr", [
    ("qrf", "rtn", qrf, "expm"),
    ("analyze", "rabi", process, "propagator"),
], ids=["qrf-rtn-expm", "analyze-rabi-propagator"])
def test_a_command_forms_each_map_once(command, name, module, attr, monkeypatch, tmp_path,
                                       capsys):
    # every table, check and classification of a command reads its source's one map cache
    formed, form = [], getattr(module, attr)

    def counted(*args):
        formed.append(tuple(np.asarray(a).tobytes() for a in args))
        return form(*args)

    monkeypatch.setattr(module, attr, counted)
    out = tmp_path / f"{name}.{command}.json"
    assert main([command, str(CONFIGS / f"{name}.yaml"), "--out", str(out)]) == 0
    assert formed and len(formed) == len(set(formed))
