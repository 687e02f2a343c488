import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from bornlab import config, consistency, process, qrf
from bornlab.cli import main
from bornlab.config import load_config, parse_complex, parse_matrix
from bornlab.errors import ConfigError
from bornlab.process import QuantumSystem
from bornlab.spectral import SpectralDecomposition
import oracles

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

# a joint config whose F = Q diag(−1e5, 1e5, 1e5) Q† is exactly Hermitian, while the
# joint Hamiltonian formed from its projectors is off Hermitian by 1e-12 from roundoff
LARGE_F_JOINT_YAML = """
schema: 1
kind: joint
system:
  H: [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
  F:
  - [-13443.412437339213, [10390.014495808853, 44810.474790306325], [-62820.685286904874, 61293.59762624026]]
  - [[10390.014495808853, -44810.474790306325], 81348.13642595123, [-18457.54932334034, -30428.087696164625]]
  - [[-62820.685286904874, -61293.59762624026], [-18457.54932334034, 30428.087696164625], 32095.276011387978]
  rho: [[0.5, 0, 0], [0, 0.25, 0], [0, 0, 0.25]]
observer:
  H_o: [[0, 0], [0, 0]]
  G_o: [[1, 0], [0, -1]]
  rho_o: [[0.5, 0.5], [0.5, 0.5]]
  coupling: 0.25
grids:
  main: [0.5, 1.0]
n_max: 2
sampling: {N: 200, seed: 11}
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

    def test_two_grids_whose_names_read_as_one_are_refused(self, tmp_path):
        # YAML reads 1 and "1" as two keys; a key must be a string, so the first is refused
        with pytest.raises(ConfigError, match=f"^{re.escape(UNQUOTED_GRID_NAME)}$"):
            load_config(write(tmp_path, DUPLICATE_GRIDS_YAML))

    def test_probe_times_must_lie_in_grid_span(self, tmp_path):
        text = DEPHASING_YAML + "simulate:\n  grid: main\n  probe_times: [9.0]\n"
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text))
        assert "probe" in str(err.value)


# a sampling or simulate section naming its grid by a value that is not a string, and the
# refusal; "1" names a grid, so an int 1 would select it if it were read as a string
GRID_NAMES = {"int": ("1", "1"), "bool": ("true", "True"), "list": ("[main]", "['main']")}
TWO_GRIDS_YAML = RABI_YAML.replace("grids:\n", 'grids:\n  "1": [0.5, 1.0]\n')


@pytest.mark.parametrize("section", ["sampling", "simulate"])
@pytest.mark.parametrize("value, shown", GRID_NAMES.values(), ids=GRID_NAMES)
def test_a_grid_name_that_is_not_a_string_is_refused(section, value, shown, tmp_path, capsys):
    if section == "sampling":
        text, command = TWO_GRIDS_YAML.replace("seed: 7}", f"seed: 7, grid: {value}}}"), "sample"
    else:
        text = DEPHASING_YAML.replace("grids:\n", 'grids:\n  "1": [0.5, 1.0]\n')
        text, command = text + f"simulate: {{grid: {value}}}\n", "simulate"
    message = f"{section}.grid: expected the name of a grid, got {shown}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(write(tmp_path, text))
    assert main([command, write(tmp_path, text), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"bornlab: config error: {message}\n"
    assert not (tmp_path / "out").exists()


DUPLICATE_GRIDS_YAML = RABI_YAML.replace(
    "grids:\n  main: [0.7853981633974483, 1.5707963267948966]",
    'grids: {1: [0.5, 1.0], "1": [0.7]}')
UNQUOTED_GRID_NAME = "line 8, column 9: expected a key: a word or a quoted string followed by a colon"

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
    "top-level keys of digits and a word": (RABI_YAML + '"1": x\nbogus: y\n',
                                            "unknown top-level keys ['1', 'bogus']"),
}

RABI_CONFIG = (CONFIGS / "rabi.yaml").read_text(encoding="utf-8")
RABI_JSON = json.dumps(yaml.safe_load(RABI_CONFIG), indent=2)
# configs/rabi.yaml with one key repeated, in YAML and in indented JSON, and the refusal
# naming the key and the line of its second occurrence
REPEATED_KEYS = {
    "grids-yaml": (RABI_CONFIG + "grids:\n  main: [0.5]\n", "line 15, column 1: duplicate key 'grids'"),
    "grid-main-yaml": (RABI_CONFIG.replace("n_max:", "  main: [0.5]\nn_max:"),
                       "line 11, column 3: duplicate key 'main'"),
    "system.H-yaml": (RABI_CONFIG.replace("  rho:", "  H: [[0, 1], [1, 0]]\n  rho:"),
                      "line 8, column 3: duplicate key 'H'"),
    "grids-json": (RABI_JSON[:-2] + ',\n  "grids": {"main": [0.5]}\n}',
                   "line 47, column 3: duplicate key 'grids'"),
    "grid-main-json": (RABI_JSON.replace('"grids": {', '"grids": {\n    "main": [0.5],'),
                       "line 38, column 5: duplicate key 'main'"),
    "system.H-json": (RABI_JSON.replace('"system": {', '"system": {\n    "H": [[0, 1], [1, 0]],'),
                      "line 6, column 5: duplicate key 'H'"),
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


THREE_BY_THREE = "[[1, 0, 0], [0, -1, 0], [0, 0, 2]]"
# a section whose matrices disagree in dimension is a config error (exit 2), not exit 3:
# DimensionMismatch is raised while the section is built, which names it
DIMENSION_MISMATCHES = {
    "system": ("analyze", RABI_YAML.replace("F: [[1, 0], [0, -1]]", f"F: {THREE_BY_THREE}"),
               "system: inconsistent dims: H 2, F 3, rho0 2"),
    "observer": ("simulate", DEPHASING_YAML.replace("G_o: [[1, 0], [0, -1]]",
                                                    f"G_o: {THREE_BY_THREE}"),
                 "observer: H_o, G_o, rho_o must share one dimension"),
    "qrf": ("qrf", RTN_YAML.replace("F_a: [[0.5, 0], [0, -0.5]]", f"F_a: {THREE_BY_THREE}"),
            "qrf: observable dim 3 vs generator dim 2"),
}
# F ∝ 1 (one outcome) on one time more than a Q_n the installed numpy holds: the entry cap
# admits every order, but Q_n needs two axes per time
ONE_OUTCOME_TIMES = [0.1 * (k + 1) for k in range(process.MAX_AXES // 2 + 1)]
TOO_MANY_AXES = (f"bi-probability table would need {process.MAX_AXES + 2} axes, more than the "
                 f"{process.MAX_AXES} an ndarray has in numpy {np.__version__}")
# only the caps, and the axes an ndarray holds, exit 3
CAP_ERRORS = {
    "caps.joint_dim": ("simulate", DEPHASING_YAML + "caps: {joint_dim: 2}\n",
                       "joint dimension 4 exceeds cap 2"),
    "caps.table_entries": ("analyze", RABI_YAML + "caps: {table_entries: 2}\n",
                           "bi-probability table would hold 4 entries, exceeding the cap of 2"),
    "axes-unitary": ("analyze", RABI_YAML.replace("F: [[1, 0], [0, -1]]", "F: [[0.5, 0], [0, 0.5]]")
                     .replace("main: [0.7853981633974483, 1.5707963267948966]",
                              f"main: {ONE_OUTCOME_TIMES}")
                     .replace("n_max: 2", f"n_max: {len(ONE_OUTCOME_TIMES)}"), TOO_MANY_AXES),
    "axes-qrf": ("qrf", RTN_YAML.replace("F_a: [[0.5, 0], [0, -0.5]]", "F_a: [[0.5, 0], [0, 0.5]]")
                 .replace("main: [0.4, 1.1, 1.9]", f"main: {ONE_OUTCOME_TIMES}")
                 .replace("n_max: 3", f"n_max: {len(ONE_OUTCOME_TIMES)}"), TOO_MANY_AXES),
}


class TestExitCodes:
    def test_config_error_exits_2(self, tmp_path, capsys):
        bad = write(tmp_path, RABI_YAML.replace("H: [[0, 0.5], [0.5, 0]]", "H: [[0, 1], [0, 0]]"))
        code = main(["analyze", bad, "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "system" in capsys.readouterr().err

    @pytest.mark.parametrize("section", list(DIMENSION_MISMATCHES))
    def test_a_dimension_mismatch_is_a_config_error(self, section, tmp_path, capsys):
        command, text, message = DIMENSION_MISMATCHES[section]
        out = tmp_path / "r.json"
        assert main([command, write(tmp_path, text), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"bornlab: config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("cap", list(CAP_ERRORS))
    def test_only_a_cap_exits_3(self, cap, tmp_path, capsys):
        command, text, message = CAP_ERRORS[cap]
        assert main([command, write(tmp_path, text), "--out", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err == f"bornlab: dimension/cap error: {message}\n"

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

    def test_two_grids_with_one_name_exit_2(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["analyze", write(tmp_path, DUPLICATE_GRIDS_YAML), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"bornlab: config error: {UNQUOTED_GRID_NAME}"]
        assert not out.exists()

    @pytest.mark.parametrize("name", list(REPEATED_KEYS))
    def test_a_repeated_key_is_refused(self, name, tmp_path, capsys):
        text, message = REPEATED_KEYS[name]
        assert yaml.safe_load(text)  # PyYAML reads each, keeping the last value
        out = tmp_path / "r.json"
        assert main(["analyze", write(tmp_path, text), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"bornlab: config error: {message}\n"
        assert not out.exists()

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
        text = NUMBER_FIELDS[field](value)
        if ".inf" in value or ".nan" in value:  # the YAML reader refuses these; JSON writes them
            text = json.dumps(yaml.safe_load(text))
        path = write(tmp_path, text)
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

    def test_a_joint_hamiltonian_off_hermitian_by_roundoff_runs(self, tmp_path):
        out = tmp_path / "joint.json"
        assert main(["simulate", write(tmp_path, LARGE_F_JOINT_YAML), "--out", str(out),
                     "--force"]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["comparisons"]

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

    @pytest.mark.parametrize("name", ["rtn", "rotation"])
    def test_block_structure_is_the_classification_as_written(self, name, tmp_path):
        out = tmp_path / f"{name}.json"
        assert main(["qrf", str(CONFIGS / f"{name}.yaml"), "--out", str(out)]) == 0
        cfg = load_config(CONFIGS / f"{name}.yaml")
        structure = qrf.classify_block_structure(cfg.source, cfg.tolerances.consistency,
                                                 sample_times=next(iter(cfg.grids.values())).times)
        assert json.loads(out.read_text())["block_structure"] == json.loads(
            json.dumps(structure._asdict()))

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["analyze", "qrf", "sample"])
    @pytest.mark.parametrize("old,new", [("gamma: 0.35", "gamma: 1.0e+308"),
                                         ("mu: 1.0", "mu: 1.0e+200")], ids=["gamma", "mu"])
    def test_a_generator_that_overflows_exits_2_at_load(self, command, old, new, tmp_path,
                                                        capsys):
        # 2γ, or μ², overflows, so ℒ would hold NaN or inf: it is refused where it is formed
        out = tmp_path / "rtn.out"
        assert main([command, write(tmp_path, RTN_YAML.replace(old, new)), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "bornlab: config error: qrf: the generator formed from the rates and mu is not finite"]
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

    @pytest.mark.parametrize("command, text, refusal, model_error", [
        ("simulate", RTN_YAML.replace("gamma: 0.35", "gamma: 1.0e+308"),
         "kind: the simulate command needs 'joint', got 'qrf'",
         "qrf: the generator formed from the rates and mu is not finite"),
        ("sample", RABI_YAML.replace("sampling: {N: 200, seed: 7}\n", "").replace(
            "H: [[0, 0.5]", "H: [[0, 0.6]"),
         "sampling: sample requires a sampling section",
         "system: H: hermiticity defect 1.000e-01 exceeds tolerance 1.000e-12"),
    ], ids=["kind", "sampling"])
    def test_a_command_refuses_a_config_it_cannot_run_before_building_the_model(
            self, command, text, refusal, model_error, tmp_path, capsys):
        # the model would be refused too, but the command's needs are checked first
        path, out = write(tmp_path, text), tmp_path / "out"
        assert main([command, path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"bornlab: config error: {refusal}\n"
        assert not out.exists()
        with pytest.raises(ConfigError) as refused:  # loaded for no command, the model is built
            load_config(path)
        assert str(refused.value) == model_error

    def test_a_command_refused_for_its_kind_builds_no_model(self, monkeypatch, tmp_path,
                                                           capsys):
        calls, build_gkls = [], qrf.build_gkls
        monkeypatch.setattr(qrf, "build_gkls",
                            lambda *args: calls.append(args) or build_gkls(*args))
        out = tmp_path / "rtn.json"
        assert main(["simulate", str(CONFIGS / "rtn.yaml"), "--out", str(out)]) == 2
        assert calls == []
        load_config(CONFIGS / "rtn.yaml")
        assert len(calls) == 1

    def test_a_command_samples_if_and_only_if_it_takes_a_seed(self, tmp_path):
        # a config of the kind each command needs (None: any kind), with no sampling section
        unsampled = {None: RABI_YAML.replace("sampling: {N: 200, seed: 7}\n", ""),
                     "joint": JOINT_WITHOUT_SAMPLING,
                     "qrf": RTN_YAML.replace("sampling:\n  N: 20000\n  seed: 20260801\n", "")}
        assert not any("sampling" in text for text in unsampled.values())
        sampling = set()
        for command, (options, kind) in config.COMMANDS.items():
            path = write(tmp_path, unsampled[kind], f"{command}.yaml")
            if "--seed" in options:
                sampling.add(command)
                refusal = f"^sampling: {command} requires a sampling section$"
                with pytest.raises(ConfigError, match=refusal):
                    load_config(path, command)
            else:
                assert load_config(path, command).sampling is None
        assert sampling == {"sample", "simulate"}

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


def _returned(monkeypatch, module, name):
    """The values ``module.name`` returns from now on, in call order; of a generator
    (``analyze``), the values it yields."""
    returned, call = [], getattr(module, name)

    def yielding(values):
        for value in values:
            returned.append(value)
            yield value

    def recording(*args):
        value = call(*args)
        if inspect.isgenerator(value):
            return yielding(value)
        returned.append(value)
        return value

    monkeypatch.setattr(module, name, recording)
    return returned


def _as_written(record):
    return json.loads(json.dumps(record._asdict()))


@pytest.mark.parametrize("command,name", [
    ("analyze", "rabi"), ("analyze", "quasistatic"), ("qrf", "rtn"), ("qrf", "rotation"),
    ("simulate", "dephasing"),
])
def test_each_written_record_is_the_record_the_library_returns(command, name, monkeypatch,
                                                               tmp_path, capsys):
    returned = {attr: _returned(monkeypatch, module, attr) for module, attr in (
        (consistency, "analyze"), (consistency, "check_cm"), (consistency, "check_sf"),
        (qrf, "check_ncgd"))}
    out = tmp_path / f"{name}.{command}.json"
    assert main([command, str(CONFIGS / f"{name}.yaml"), "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    if command == "analyze":
        written = [entry["consistency"] for entry in report["analyses"]]
        records = [list(records) for records, _, _ in returned["analyze"]]
    elif command == "qrf":
        written = [[entry["cm"], entry["sf"], entry["ncgd"], entry["ncgd_cm_equivalence"]["cm"],
                    entry["ncgd_cm_equivalence"]["ncgd"]] for entry in report["grids"]]
        records = [[cm, sf, ncgd, cm, ncgd] for (cm, _), sf, ncgd in zip(
            returned["check_cm"], returned["check_sf"], returned["check_ncgd"], strict=True)]
    else:
        gate = {key: value for key, value in report["sf_gate"].items() if key != "gated_times"}
        written, records = [[gate]], [returned["check_sf"]]
    assert written and written == [[_as_written(r) for r in group] for group in records]
    # the record's fields are the keys the reports wrote through the old converter
    assert all(r._asdict() == oracles.record_json(r) for group in records for r in group)


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


def test_simulate_forms_the_joint_hamiltonian_once(monkeypatch, tmp_path, capsys):
    # F enters the joint Hamiltonian once, not once per probe time
    calls, observable = [], SpectralDecomposition.observable
    monkeypatch.setattr(SpectralDecomposition, "observable",
                        lambda sd: calls.append(sd) or observable(sd))
    out = tmp_path / "dephasing.simulate.json"
    assert main(["simulate", str(CONFIGS / "dephasing.yaml"), "--out", str(out)]) == 0
    assert len(calls) == 1
    assert len(json.loads(out.read_text())["comparisons"]) == 5


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


@pytest.mark.parametrize("command,name,checked", [
    ("simulate", "dephasing", ["H", "observable", "rho0", "H_o", "G_o", "rho_o"]),
    ("qrf", "rtn", ["observable", "H_a", "G_a", "qrf.rho_a"]),
])
def test_a_command_checks_each_input_matrix_once(command, name, checked, monkeypatch, tmp_path,
                                                 capsys):
    # a matrix is checked where it enters; what the library forms from it is not checked again
    from bornlab import linalg, observer  # noqa: F401  (observer binds require_hermitian)
    names, check = [], linalg.require_hermitian

    def counted(A, tol=linalg.DEFAULT_TOLERANCES.hermiticity, name="matrix"):
        names.append(name)
        return check(A, tol, name)

    bindings = [module for module_name, module in sorted(sys.modules.items())
                if module_name.startswith("bornlab")
                and getattr(module, "require_hermitian", None) is check]
    for module in bindings:
        monkeypatch.setattr(module, "require_hermitian", counted)
    assert {module.__name__ for module in bindings} >= {
        "bornlab.linalg", "bornlab.observer", "bornlab.process", "bornlab.qrf",
        "bornlab.spectral"}
    out = tmp_path / f"{name}.{command}.json"
    assert main([command, str(CONFIGS / f"{name}.yaml"), "--out", str(out)]) == 0
    assert sorted(names) == sorted(checked)
