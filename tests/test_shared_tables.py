"""The consistency checks read one set of tables per grid, and deletions walk the grid's steps.

The records of ``check_kc``, ``check_bi_consistency``,
``verify_generalized_relation`` and each order of ``analyze`` are compared
field by field (``ConditionRecord ==``) with the per-check versions kept in
``tests/oracles.py``, which build their own full tables and take their
reduced ones from the library's deletion route. That route is held to the
merged-gap oracle (the table on the grid with t_i removed) to roundoff, and
on a long grid its identity records stay at roundoff where the merged gap's
do not. The build counts pin what the sharing saves: ``analyze`` on an
n-time grid builds n full tables and Σ_{k=2..n} (k − 1) deletion tables of
each kind, each once, and forms the diagonal-context sums of each index
once per order; and ``bornlab qrf`` builds each grid's bi-probability table
and runs CM on it once, and NCGD once on the pairs of the same grid.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import QuantumSystem, TimeGrid, cli, consistency, process, qrf, rtn_model
from bornlab.cli import main
from bornlab.process import _table, biprob_table, born_table
from conftest import (
    quasistatic_system,
    rabi_system,
    random_density,
    random_grid,
    random_hermitian,
    random_system,
    random_unitary,
)
import oracles
from test_kernel import drawn_case

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GRIDS = {2: TimeGrid((0.4, 1.1)), 4: TimeGrid((0.3, 0.8, 1.7, 2.2))}


def clustered_d4_m2(rng):
    """F with two eigenvalue pairs split by 1e-13, clustered into two outcomes."""
    V = random_unitary(rng, 4)
    F = (V * np.array([-1.0, -1.0 + 1e-13, 1.0, 1.0 + 1e-13])) @ V.conj().T
    return QuantumSystem.from_operators(random_hermitian(rng, 4), F, random_density(rng, 4))


SOURCES = {
    "rabi": lambda rng: rabi_system(),
    "quasistatic": lambda rng: quasistatic_system(),
    "rtn": lambda rng: rtn_model(0.7, random_density(rng, 2)),
    "clustered-d4-m2": clustered_d4_m2,
}


def assert_matches_oracles(source, grid):
    assert consistency.check_kc(source, grid) == oracles.check_kc(source, grid)
    assert (consistency.check_bi_consistency(source, grid)
            == oracles.check_bi_consistency(source, grid))
    assert (consistency.verify_generalized_relation(source, grid)
            == oracles.verify_generalized_relation(source, grid))
    orders = list(consistency.analyze(source, grid))
    assert len(orders) == grid.n
    for n, (records, born, bip) in enumerate(orders, 1):
        sub = grid.prefix(n)
        assert records == (oracles.analyze(source, sub) if n > 1
                           else (oracles.check_sf(biprob_table(source, sub)),))
        assert np.array_equal(born.dist, born_table(source, sub).dist)
        assert np.array_equal(bip.dist, biprob_table(source, sub).dist)


@pytest.mark.parametrize("n", list(GRIDS))
@pytest.mark.parametrize("name", list(SOURCES))
def test_records_equal_the_per_check_oracles(name, n, rng):
    assert_matches_oracles(SOURCES[name](rng), GRIDS[n])


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), n=st.integers(2, 4),
       degenerate=st.booleans())
def test_random_systems_match_the_per_check_oracles(seed, d, n, degenerate):
    rng = np.random.default_rng(seed)
    assert_matches_oracles(random_system(rng, d, degenerate_F=degenerate), random_grid(rng, n))


def test_one_time_grid_reports_sf_alone():
    sys, grid = rabi_system(), TimeGrid((0.7,))
    [(records, born, bip)] = consistency.analyze(sys, grid)
    assert records == (consistency.check_sf(biprob_table(sys, grid)),)
    assert np.array_equal(born.dist, born_table(sys, grid).dist)
    assert np.array_equal(bip.dist, biprob_table(sys, grid).dist)


@pytest.mark.parametrize("check", ["check_kc", "check_bi_consistency",
                                   "verify_generalized_relation"])
def test_deletion_checks_need_two_times(check):
    with pytest.raises(ValueError, match="n ≥ 2"):
        getattr(consistency, check)(rabi_system(), TimeGrid((0.7,)))


@pytest.fixture
def builds(monkeypatch):
    """Every table build through the names consistency and cli call, as (kind, times)."""
    log = []
    for module in (consistency, cli):
        for kind, fn in (("born", born_table), ("biprob", biprob_table)):
            def counted(source, grid, cap, kind=kind, fn=fn):
                log.append((kind, grid.times))
                return fn(source, grid, cap)
            monkeypatch.setattr(module, f"{kind}_table", counted)

    def deletion(source, grid, cap, diagonal, skip):
        table = _table(source, grid, cap, diagonal, skip)
        log.append(("born" if diagonal else "biprob", table.grid.times))
        return table
    monkeypatch.setattr(consistency, "_table", deletion)
    return log


@pytest.mark.parametrize("n", [2, 3, 4])
def test_analyze_builds_each_table_once(n, builds):
    grid = TimeGrid((0.3, 0.8, 1.7, 2.2)[:n])
    assert len(list(consistency.analyze(rabi_system(), grid))) == n
    # per kind: the n full tables, and k − 1 deletions at order k; the last is order k − 1's
    assert len(builds) == 2 * (n + sum(k - 1 for k in range(2, n + 1)))
    assert len(set(builds)) == len(builds)


def test_analyze_command_builds_six_tables_for_rabi(builds, tmp_path, capsys):
    # n = 1: the two full tables; n = 2: the two full ones and the deletion of t_1 of each kind
    assert main(["analyze", str(CONFIGS / "rabi.yaml"), "--out", str(tmp_path / "r.json")]) == 0
    assert len(builds) == 6
    assert len(set(builds)) == 6


def test_analyze_forms_the_context_sums_of_each_index_once_per_order(monkeypatch):
    calls, sums = [], consistency._diag_context_sums

    def counted(table, position):
        calls.append((table.n, position))
        return sums(table, position)
    monkeypatch.setattr(consistency, "_diag_context_sums", counted)
    list(consistency.analyze(rabi_system(), TimeGrid((0.3, 0.8, 1.7))))
    assert calls == [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4), n=st.integers(2, 4),
       degenerate=st.booleans(), semigroup=st.booleans())
def test_deletion_tables_equal_the_merged_gap_oracle(seed, d, n, degenerate, semigroup):
    source, grid = drawn_case(seed, d, n, degenerate, semigroup)
    for table in (born_table, biprob_table):
        for i in range(1, n):
            deletion = _table(source, grid, process.DEFAULT_TABLE_CAP, table is born_table,
                              skip=i - 1)
            oracle = oracles.merged_gap_table(table, source, grid, i)
            assert deletion.grid.times == oracle.grid.times
            assert np.max(np.abs(deletion.dist - oracle.dist)) <= 1e-13


@pytest.mark.parametrize("semigroup", [False, True], ids=["unitary", "gkls"])
def test_no_map_is_formed_over_a_merged_gap(semigroup, monkeypatch):
    module, name = (qrf, "expm") if semigroup else (process, "propagator")
    gaps, form = [], getattr(module, name)

    def logged(matrix, gap):
        gaps.append(gap)
        return form(matrix, gap)
    monkeypatch.setattr(module, name, logged)
    source = rtn_model(0.7, np.eye(2) / 2) if semigroup else rabi_system()
    times = (0.3, 0.8, 1.7, 2.2)
    list(consistency.analyze(source, TimeGrid(times)))
    assert sorted(gaps) == sorted({b - a for a, b in zip((0.0,) + times, times)})


@pytest.mark.parametrize("T", [1e3, 1e6, 1e7, 1e10])
def test_identity_records_hold_on_a_long_grid(T):
    # the merged gap's U(T) against U(T − 0.7)U(0.7) read 1.57e-10 ("fail") at T = 1e7
    *_, (records, _, _) = consistency.analyze(rabi_system(), TimeGrid((0.7, T)))
    by_name = {r.condition: r for r in records}
    for name in ("bi-consistency", "generalized-relation", "causality"):
        assert by_name[name].max_abs_violation <= 1e-15 and by_name[name].passed, name


def test_qrf_command_builds_the_table_and_runs_cm_once(monkeypatch, tmp_path, capsys):
    log, build, cm = [], cli.biprob_table, consistency.check_cm

    def counted_build(model, grid, cap):
        log.append(("table", grid.times))
        return build(model, grid, cap)

    def counted_cm(table, epsilon):
        log.append(("CM", table.grid.times))
        return cm(table, epsilon)
    monkeypatch.setattr(cli, "biprob_table", counted_build)
    for module in (consistency, qrf):
        monkeypatch.setattr(module, "check_cm", counted_cm)
    assert main(["qrf", str(CONFIGS / "rtn.yaml"), "--out", str(tmp_path / "q.json")]) == 0
    times = (0.4, 1.1, 1.9)
    assert log == [("table", times), ("CM", times)]


@pytest.mark.parametrize("n_max,pairs", [(3, [(1.1, 0.4), (1.9, 0.4), (1.9, 1.1)]),
                                         (2, [(1.1, 0.4)])])
def test_qrf_command_runs_ncgd_once_on_the_analysed_grid(n_max, pairs, monkeypatch, tmp_path,
                                                         capsys):
    calls, check = [], qrf.check_ncgd

    def counted(model, time_pairs, epsilon):
        calls.append(list(time_pairs))
        return check(model, time_pairs, epsilon)
    monkeypatch.setattr(qrf, "check_ncgd", counted)
    config = tmp_path / "rtn.yaml"
    config.write_text((CONFIGS / "rtn.yaml").read_text(encoding="utf-8")
                      .replace("n_max: 3", f"n_max: {n_max}"), encoding="utf-8")
    out = tmp_path / "q.json"
    assert main(["qrf", str(config), "--out", str(out)]) == 0
    assert calls == [pairs]
    entry = json.loads(out.read_text(encoding="utf-8"))["grids"][0]
    assert entry["ncgd"]["coverage"]["time_pairs"] == [list(p) for p in pairs]
    assert entry["ncgd"] == entry["ncgd_cm_equivalence"]["ncgd"]
