import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bornlab import (
    TimeGrid,
    analyze,
    biprob_table,
    check_bi_consistency,
    check_cm,
    check_kc,
    check_sf,
    verify_generalized_relation,
)
from bornlab.consistency import _diag_context_sums, _worst
from bornlab.process import BiProbTable, QuantumSystem
from conftest import (assert_same_bits, quasistatic_system, rabi_system, random_density,
                      random_grid, random_hermitian, random_system)
import oracles


def brute_force_kc_violation(sys, grid):
    """Independent oracle: dense loops, test-local Heisenberg projectors."""
    def U(t):
        w, V = np.linalg.eigh(sys.H)
        return (V * np.exp(-1j * t * w)) @ V.conj().T

    def heis(k, t):
        return U(t).conj().T @ sys.F.projectors[k] @ U(t)

    m = sys.F.n_outcomes
    times = grid.times
    n = len(times)

    def born(tup, ts):
        M = sys.rho0
        for k, t in zip(tup, ts):
            P = heis(k, t)
            M = P @ M @ P
        return np.trace(M).real

    worst = 0.0
    for i in range(n):
        reduced_times = times[:i] + times[i + 1:]
        for rest in itertools.product(range(m), repeat=n - 1):
            full_sum = 0.0
            for fi in range(m):
                tup = rest[:i] + (fi,) + rest[i:]
                full_sum += born(tup, times)
            worst = max(worst, abs(full_sum - born(rest, reduced_times)))
    return worst


class TestKC:
    def test_quasistatic_passes(self):
        kc, _ = check_kc(quasistatic_system(), TimeGrid((0.3, 0.9, 1.4)))
        assert kc.passed
        assert kc.max_abs_violation <= 1e-12

    def test_rabi_violation_matches_brute_force(self):
        t = np.pi / 4
        sys = rabi_system()
        grid = TimeGrid((t, 2 * t))
        kc, _ = check_kc(sys, grid)
        violation = kc.max_abs_violation
        assert violation > 0.05
        assert abs(violation - brute_force_kc_violation(sys, grid)) <= 1e-10
        assert kc.witness["index"] == 1

    def test_causality_always_passes(self, rng):
        for _ in range(5):
            sys = random_system(rng, 3)
            _, causality = check_kc(sys, random_grid(rng, 3))
            assert causality.passed

    def test_coverage_records_quantification(self):
        kc, _ = check_kc(rabi_system(), TimeGrid((0.5, 1.0)))
        cov = kc.coverage
        assert cov["n"] == 2 and cov["indices"] == [1, 2]

    def test_passed_is_the_verdict_read_as_a_bool(self):
        records = list(analyze(rabi_system(), TimeGrid((np.pi / 4, np.pi / 2))))[-1][0]
        assert {r.verdict for r in records} == {"pass", "fail"}
        for record in records:
            assert record.passed is (record.verdict == "pass")


class TestCM:
    def test_sf_passing_table_passes_cm(self):
        table = biprob_table(quasistatic_system(), TimeGrid((0.3, 0.9)))
        assert check_cm(table)[0].passed

    def test_rabi_cm_equals_kc_violation(self):
        t = np.pi / 4
        sys = rabi_system()
        grid = TimeGrid((t, 2 * t))
        kc = check_kc(sys, grid)[0].max_abs_violation
        cm = check_cm(biprob_table(sys, grid))[0].max_abs_violation
        assert abs(kc - cm) <= 1e-10

    def test_real_form_agreement(self, rng):
        sys = random_system(rng, 3)
        _, real_form = check_cm(biprob_table(sys, random_grid(rng, 3)))
        assert real_form.max_abs_violation <= 1e-12

    def test_single_time_trivially_passes(self, rng):
        table = biprob_table(random_system(rng, 3), TimeGrid((0.7,)))
        cm, _ = check_cm(table)
        assert cm.passed
        assert cm.max_abs_violation <= 1e-12


class TestSF:
    def test_quasistatic_passes_tightly(self):
        for n in (1, 2, 3):
            grid = TimeGrid(tuple(0.4 * (k + 1) for k in range(n)))
            table = biprob_table(quasistatic_system(), grid)
            assert check_sf(table).max_abs_violation <= 1e-12

    def test_rabi_fails_with_offdiagonal_witness(self):
        t = np.pi / 4
        table = biprob_table(rabi_system(), TimeGrid((t, 2 * t)))
        record = check_sf(table)
        assert not record.passed
        assert abs(record.max_abs_violation - 0.125) <= 1e-10  # pinned oracle
        w = record.witness
        assert w["outcomes"] != w["outcomes_minus"]
        assert w["outcomes"][0] != w["outcomes_minus"][0]  # first slot differs


class TestGeneralizedRelation:
    def test_random_system_identity(self, rng):
        sys = random_system(rng, 4)
        assert verify_generalized_relation(sys, random_grid(rng, 3)) <= 1e-10

    def test_quasistatic_both_sides_vanish(self):
        sys = quasistatic_system()
        grid = TimeGrid((0.3, 0.9))
        assert verify_generalized_relation(sys, grid) <= 1e-10
        assert check_kc(sys, grid)[0].max_abs_violation <= 1e-12

    def test_rabi_sides_large_but_residual_tiny(self):
        t = np.pi / 4
        sys = rabi_system()
        grid = TimeGrid((t, 2 * t))
        assert check_kc(sys, grid)[0].max_abs_violation > 0.05
        assert verify_generalized_relation(sys, grid) <= 1e-10


class TestImplicationChain:
    def test_sf_implies_cm_implies_kc(self, rng):
        scenarios = [quasistatic_system(), rabi_system()]
        scenarios += [random_system(rng, 3) for _ in range(4)]
        grid = TimeGrid((0.4, 1.1))
        for sys in scenarios:
            records = list(analyze(sys, grid))[-1][0]
            by_name = {r.condition: r for r in records}
            sf, cm, kc = (by_name[c].passed for c in ("SF", "CM", "KC"))
            if sf:
                assert cm
            if cm:
                assert kc

    def test_full_report_contains_all_conditions(self, rng):
        records = list(analyze(random_system(rng, 2), TimeGrid((0.5, 1.0))))[-1][0]
        by_name = {r.condition: r for r in records}
        assert {"KC", "causality", "CM", "CM-real-form", "SF",
                "bi-consistency", "generalized-relation"} <= set(by_name)
        assert by_name["bi-consistency"].passed
        assert by_name["generalized-relation"].passed


def test_bi_consistency_random(rng):
    for _ in range(5):
        sys = random_system(rng, 3)
        record = check_bi_consistency(sys, random_grid(rng, 3))
        assert record.max_abs_violation <= 1e-10


def test_each_check_returns_its_records_in_report_order(rng):
    sys, grid = random_system(rng, 3), random_grid(rng, 3)
    table = biprob_table(sys, grid)
    assert [r.condition for r in check_kc(sys, grid)] == ["KC", "causality"]
    assert [r.condition for r in check_cm(table)] == ["CM", "CM-real-form"]
    assert check_sf(table).condition == "SF"
    assert check_bi_consistency(sys, grid).condition == "bi-consistency"
    records = list(analyze(sys, grid))[-1][0]
    assert [r.condition for r in records] == ["KC", "causality", "CM", "CM-real-form", "SF",
                                              "bi-consistency", "generalized-relation"]


ULP_STEPS = {"one ulp down": 0.0, "tied": 0.25, "one ulp up": 1.0}


@pytest.mark.parametrize("toward", list(ULP_STEPS.values()), ids=list(ULP_STEPS))
def test_witness_is_the_first_of_entries_tied_to_one_ulp(toward):
    """Among entries within TIE_TOL of the peak the witness is the first in
    (index, C-order outcome) order, so a 1-ulp change does not move it."""
    near = float(np.nextafter(0.25, toward))
    first = np.array([[0.0, 0.25], [-near, 0.0]])
    second = np.array([[near, 0.0], [0.0, 0.0]])
    worst, witness = _worst([(1, first), (2, second)], lambda i, idx: (i, idx))
    assert worst == max(0.25, near)
    assert witness == (1, [0, 1])
    worst, witness = _worst([(1, second), (2, first)], lambda i, idx: (i, idx))
    assert witness == (1, [0, 0])


@pytest.mark.parametrize("toward", list(ULP_STEPS.values()), ids=list(ULP_STEPS))
def test_sf_witness_is_stable_across_a_conjugate_pair(toward):
    near = float(np.nextafter(0.25, toward))
    dist = np.array([[0.5, 0.25j], [-near * 1j, 0.5]])
    record = check_sf(BiProbTable(TimeGrid((1.0,)), np.array([-1.0, 1.0]), dist))
    assert record.max_abs_violation == max(0.25, near)
    assert record.witness == {"outcomes": [0], "outcomes_minus": [1]}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 4),
       tied=st.booleans(), scale=st.sampled_from([1.0, 1e-9, 1e-13]))
@example(seed=1, n=1, m=3, tied=True, scale=1.0)
@example(seed=2, n=3, m=1, tied=False, scale=1.0)
def test_sf_record_equals_the_mask_oracle_on_drawn_tables(seed, n, m, tied, scale):
    rng = np.random.default_rng(seed)
    shape = (m, m) * n
    draw = (lambda: rng.integers(-2, 3, shape) * 0.25) if tied else (lambda: rng.normal(size=shape))
    table = BiProbTable(random_grid(rng, n), np.arange(m, dtype=float),
                        scale * (draw() + 1j * draw()))
    assert check_sf(table) == oracles.check_sf(table)


def test_sf_check_makes_no_copy_of_the_complex_table():
    rng = np.random.default_rng(5)
    shape = (4, 4) * 5                      # 4¹⁰ entries, 16 MiB of complex128
    table = BiProbTable(random_grid(rng, 5), np.arange(4, dtype=float),
                        rng.normal(size=shape) + 1j * rng.normal(size=shape))
    tracemalloc.start()
    try:
        record = check_sf(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * table.dist.nbytes
    assert record == oracles.check_sf(table)


def test_witness_is_within_the_tie_tolerance_of_the_overall_peak():
    # the first entry of index 1 is within TIE_TOL of its own peak but not of the overall one
    first = np.array([0.25 * (1 - 0.9e-12), 0.25])
    second = np.array([0.25 * (1 + 0.5e-12)])
    assert _worst([(1, first), (2, second)], lambda i, idx: (i, idx)) == (second[0], (1, [1]))


def test_many_exact_ties_keep_the_first():
    defect = np.full((50, 40), -0.5)
    assert _worst([(1, defect)], lambda i, idx: (i, idx)) == (0.5, (1, [0, 0]))


def test_exact_zero_defects_have_no_witness():
    assert _worst([(1, np.zeros((2, 2))), (2, np.zeros(3))], lambda i, idx: (i, idx)) == (0.0, None)


def assert_context_sums_equal_the_oracle(table):
    for position in range(1, table.n + 1):
        got, want = _diag_context_sums(table, position), oracles._diag_context_sums(table, position)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert_same_bits(a, b)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 4),
       order=st.sampled_from("CF"), zeros=st.booleans())
@example(seed=3, n=4, m=1, order="F", zeros=True)
def test_context_sums_equal_the_subscript_loop_bit_for_bit(seed, n, m, order, zeros):
    """The pair-diagonal slice with a free pair gives the old einsum's sums, zero signs included."""
    rng = np.random.default_rng(seed)
    shape = (m, m) * n
    dist = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if zeros:  # −0.0 in both parts of some entries
        dist[rng.random(shape) < 0.3] = complex(-0.0, -0.0)
    table = BiProbTable(random_grid(rng, n), np.arange(m, dtype=float),
                        np.asarray(dist, order=order))
    assert_context_sums_equal_the_oracle(table)


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="numpy < 2 holds at most 32 axes; a 30-time Q_n has 60")
def test_a_one_outcome_source_is_analyzed_on_thirty_times():
    """m = 1 admits any order under the entry cap: order 30's Q_n has 60 axes, and the free
    pair's letters must follow every context letter up to the 30th."""
    rng = np.random.default_rng(30)
    sys = QuantumSystem.from_operators(random_hermitian(rng, 2), 0.5 * np.eye(2),
                                       random_density(rng, 2))
    grid = TimeGrid(tuple(0.1 * (k + 1) for k in range(30)))
    orders = list(analyze(sys, grid))
    assert len(orders) == 30
    assert all(record.passed for records, _, _ in orders for record in records)
    bip = orders[-1][2]
    assert bip.dist.ndim == 60
    assert_context_sums_equal_the_oracle(bip)
