import json
from pathlib import Path

import numpy as np
import pytest

from bornlab.cli import main
from bornlab.config import load_config, parse_complex, parse_matrix
from bornlab.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


class TestAnalyzeCommand:
    def test_rabi_report_contents(self, tmp_path):
        path = write(tmp_path, RABI_YAML)
        out = str(tmp_path / "rabi.json")
        assert main(["analyze", path, "--out", out]) == 0
        report = json.loads(Path(out).read_text())
        assert report["command"] == "analyze"
        assert report["tool"]["name"] == "bornlab"
        assert report["tool"]["rng"].startswith("numpy.random.Philox")
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

    def test_threads_do_not_change_output(self, tmp_path):
        path = write(tmp_path, RABI_YAML)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["sample", path, "--out", a, "--threads", "1"])
        main(["sample", path, "--out", b, "--threads", "4"])
        assert Path(a).read_bytes() == Path(b).read_bytes()

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

    def test_requires_qrf_kind(self, tmp_path):
        assert main(["qrf", write(tmp_path, RABI_YAML),
                     "--out", str(tmp_path / "x.json")]) == 2

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


def test_shipped_configs_load():
    for name in ("quasistatic", "rabi", "dephasing", "rabi_joint", "rtn", "rotation"):
        cfg = load_config(str(CONFIGS / f"{name}.yaml"))
        assert cfg.kind in ("unitary", "joint", "qrf")
