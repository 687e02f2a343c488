"""Tests of the benchmark's own parts: the seeded generator, the span
arithmetic, the rescaling of times, the workers' peak resident set and the
G-test. They run no CLI invocation.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import subprocess
import sys
from pathlib import Path

import pytest

import checks
import generate
import run
import tracing


def _facts(tmp_path, seed):
    out = {}
    for name, text in generate.generate(seed).items():
        path = tmp_path / f"{seed}-{name}.yaml"
        path.write_text(text, encoding="utf-8")
        out[name] = run.scenario_facts(path)
    return out


def test_generated_bytes_are_a_function_of_the_seed():
    assert generate.generate(7) == generate.generate(7)
    first, other = generate.generate(7), generate.generate(8)
    assert all(first[name] != other[name] for name in generate.SHAPES)


@pytest.mark.parametrize("seed", [0, 8, 2**40 + 3])
def test_other_seeds_give_workloads_of_the_same_shape(tmp_path, seed):
    assert _facts(tmp_path, seed) == _facts(tmp_path, 7)


def test_generated_configs_load_with_the_declared_shape(tmp_path):
    from bornlab.config import load_config

    facts = _facts(tmp_path, 3)
    for name, shape in generate.SHAPES.items():
        cfg = load_config(tmp_path / f"3-{name}.yaml")
        source = cfg.build_qrf() if cfg.kind == "qrf" else cfg.build_system()
        sd = source.F_a if cfg.kind == "qrf" else source.F
        assert (cfg.kind, source.dim, sd.n_outcomes) == (shape["kind"], shape["d"], shape["m"])
        assert facts[name]["m"] == shape["m"]
        assert cfg.grid("main").n == shape["n"] and cfg.sampling.size == shape["N"]


def test_floats_are_written_so_yaml_reads_them_as_floats():
    import yaml

    for x in (1e-05, 2.5e16, -3.0, 0.1):
        assert yaml.safe_load(generate._num(x)) == x


def test_self_times_partition_the_root_span():
    spans = [["cli.main", 0, 100, -1], ["a", 10, 60, 0], ["b", 20, 30, 1], ["c", 70, 90, 0]]
    assert tracing.self_times(spans) == [30, 40, 10, 20]
    agg = tracing.aggregate({"spans": spans, "notes": {"1": {"entries": 4}}})
    assert agg["self_sum_ns"] == agg["root_ns"] == 100
    assert agg["sums"] == {"entries": 4}


def test_a_pass_is_rescaled_by_its_mean_reference_round():
    ref = run.REFERENCE_ROUND_NS
    # a host at half speed: the mean reference round takes twice the nominal time
    records = [{"setup_s": 0.5, "wall_s": 2.0, "rss_mb": 60.0,
                "reference_ns": [ref, 3 * ref], "after_ns": 9 * ref},
               {"setup_s": 0.5, "wall_s": 0.01, "rss_mb": 70.0,
                "reference_ns": [], "after_ns": 4 * ref},
               {"setup_s": 0.5, "wall_s": 0.99, "rss_mb": 50.0,
                "reference_ns": [2 * ref] * 2, "after_ns": 9 * ref}]
    p = {"records": records, "scale": run.pass_scale(records)}
    m = run.pass_metrics(p, units=300)
    assert p["scale"] == 0.5
    assert (m["raw_setup_s"], m["raw_wall_s"]) == (1.5, 3.0)
    assert (m["setup_s"], m["wall_s"], m["work_per_s"], m["peak_rss_mb"]) == (0.75, 1.5, 200.0, 70.0)
    # calls too short to be sampled: the rounds right after them stand in
    assert run.pass_scale(records[1:2]) == 0.25


def test_a_workers_peak_rss_is_its_own_not_its_parents():
    ballast = b"\1" * (96 << 20)  # the parent's resident set grows by 96 MiB
    out = subprocess.run([sys.executable, "-c", "import worker; print(worker.peak_rss_kb())"],
                         cwd=Path(__file__).parent, capture_output=True, text=True, check=True)
    assert len(ballast) and int(out.stdout) < 48 << 10


def test_g_test_accepts_exact_counts_and_rejects_skewed_ones():
    probs = {(0,): 0.5, (1,): 0.3, (2,): 0.2}
    exact = {k: int(10000 * p) for k, p in probs.items()}
    assert checks.g_test_pvalue(exact, probs, 10000) > 0.5
    skewed = {(0,): 5300, (1,): 2800, (2,): 1900}
    assert checks.g_test_pvalue(skewed, probs, 10000) < checks.G_TEST_ALPHA
    impossible = {(0,): 5000, (1,): 3000, (2,): 1999, (3,): 1}
    assert checks.g_test_pvalue(impossible, {**probs, (3,): 0.0}, 10000) == 0.0
