import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from bornlab import (
    QRFModel,
    TimeGrid,
    build_gkls,
    check_cm,
    check_ncgd,
    check_sf,
    classify_block_structure,
    qrf,
    rtn_model,
    spectral_decompose,
    verify_ncgd_cm_equivalence,
)
from bornlab.errors import (
    NegativeRate,
    NonBlockDiagonalState,
    NonFinite,
    NonPositiveRate,
    NumericalInvariantViolation,
    UnmatchedFrequency,
)
from bornlab.linalg import Superoperator, vec
from bornlab.process import born_table
from bornlab.qrf import (
    GKLSGenerator,
    generator_from_matrix,
    grid_pairs,
    pair_superops,
    qrf_bi_probability,
    qrf_born,
    semigroup,
)
from conftest import I2, KET0, SX, SZ, random_density, random_hermitian, random_unitary
import oracles
from oracles import unvec
from test_kernel import drawn_case

HALF_SZ = 0.5 * SZ

# Higham (2005)'s θ_m: qrf.expm takes Padé degree m on ‖τℒ‖₁ ∈ (θ_prev, θ_m], and
# s squarings on (2^(s−1)·θ_13, 2^s·θ_13]
THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
         9: 2.097847961257068e0, 13: 5.371920351148152e0}
PADE_BANDS = {
    (3, 0): (0.0, THETA[3]), (5, 0): (THETA[3], THETA[5]), (7, 0): (THETA[5], THETA[7]),
    (9, 0): (THETA[7], THETA[9]), (13, 0): (THETA[9], THETA[13]),
    (13, 1): (THETA[13], 2 * THETA[13]), (13, 3): (4 * THETA[13], 8 * THETA[13]),
}


def comm_super(A):
    """Test-local superoperator oracle for [A, ·] (column stacking)."""
    d = A.shape[0]
    return np.kron(np.eye(d), A) - np.kron(A.T, np.eye(d))


def rotation_model(rho_a=None):
    """H_a = σ_x, no dissipation, F = σ_z/2: generates and detects coherence."""
    gen = build_gkls(SX, np.zeros((2, 2)), [], mu=0.0)
    return QRFModel(
        generator=gen,
        F_a=spectral_decompose(HALF_SZ),
        rho_a=KET0 if rho_a is None else rho_a,
    )


def choi(superop_matrix, dim):
    """Choi matrix Σ_kl E_kl ⊗ Λ(E_kl) of a column-stacking superoperator matrix."""
    C = np.zeros((dim * dim, dim * dim), dtype=complex)
    for k in range(dim):
        for l in range(dim):
            E = np.zeros((dim, dim), dtype=complex)
            E[k, l] = 1.0
            C += np.kron(E, unvec(superop_matrix @ vec(E), dim))
    return C


def superop(action, dim):
    """Column-stacking matrix of the linear map ``action``, read off the matrix units."""
    columns = []
    for l in range(dim):
        for k in range(dim):
            E = np.zeros((dim, dim), dtype=complex)
            E[k, l] = 1.0
            columns.append(vec(action(E)))
    return np.array(columns).T


def frozen_model(rho_a=None):
    gen = build_gkls(np.zeros((2, 2)), np.zeros((2, 2)), [], mu=0.0)
    return QRFModel(
        generator=gen,
        F_a=spectral_decompose(HALF_SZ),
        rho_a=I2 / 2 if rho_a is None else rho_a,
    )


class TestBuildGkls:
    def test_dephasing_double_commutator_identity(self):
        # mu² L = 2 mu² gamma (sx · sx − ·) must equal −(gamma'/2)[sx,[sx,·]]
        gamma, mu = 0.35, 1.3
        gen = build_gkls(np.zeros((2, 2)), SX, [(0.0, gamma)], mu)
        gamma_prime = 2.0 * mu**2 * gamma
        oracle = -0.5 * gamma_prime * (comm_super(SX) @ comm_super(SX))
        assert np.max(np.abs(gen.total.matrix - oracle)) <= 1e-12

    def test_zero_rates_pure_commutator(self, rng):
        H = random_hermitian(rng, 3)
        gen = build_gkls(H, random_hermitian(rng, 3), [], mu=1.0)
        assert np.max(np.abs(gen.total.matrix - (-1j) * comm_super(H))) <= 1e-12

    def test_trace_preservation_random_basis(self, rng):
        H = random_hermitian(rng, 3)
        rates = [(0.0, 0.2 + 0.1j)]
        gen = build_gkls(H, random_hermitian(rng, 3), rates, mu=0.8)
        for _ in range(10):
            X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            out = unvec(gen.total.matrix @ vec(X), 3)
            assert abs(np.trace(out)) <= 1e-11 * max(1.0, np.max(np.abs(X)))

    def test_hermiticity_preservation(self, rng):
        gen = build_gkls(random_hermitian(rng, 2), random_hermitian(rng, 2),
                         [(0.0, 0.4)], mu=1.0)
        X = random_hermitian(rng, 2)
        out = unvec(gen.total.matrix @ vec(X), 2)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12

    def test_negative_rate_rejected(self):
        with pytest.raises(NegativeRate):
            build_gkls(np.zeros((2, 2)), SX, [(0.0, -0.1)], 1.0)

    def test_unmatched_frequency_rejected(self):
        with pytest.raises(UnmatchedFrequency):
            build_gkls(SZ, SX, [(0.37, 0.1)], 1.0)

    @pytest.mark.parametrize("rates,mu", [([(0.0, 1e308)], 1.0), ([(0.0, 1e200)], 1e200),
                                          ([(0.0, 1e308j), (0.0, 1e308j)], 1.0)],
                             ids=["rate-overflows", "mu-overflows", "lamb-shift-overflows"])
    def test_a_generator_that_overflows_is_refused_without_a_warning(self, rates, mu):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="generator formed from the rates and mu"):
                build_gkls(np.zeros((2, 2)), SX, rates, mu)

    def test_a_shifted_hamiltonian_keeps_its_bohr_frequencies(self):
        # H_a + c·1 has the Bohr frequencies of H_a; at c = 1e7 the eigensolver's roundoff
        # exceeds 1e-9 · max(1, spectral range), so the match tolerance must follow max |λ|
        rng, c = np.random.default_rng(2202), 1e7
        rates = [(1.0, 0.3), (-1.0, 0.1), (0.0, 0.2)]
        for _ in range(20):
            Q = random_unitary(rng, 2)
            H = (Q * [0.0, 1.0]) @ Q.conj().T
            H = 0.5 * (H + H.conj().T)
            G = random_hermitian(rng, 2)
            shifted = build_gkls(H + c * I2, G, rates).total.matrix
            assert np.max(np.abs(shifted - build_gkls(H, G, rates).total.matrix)) <= 1e-6

    def test_bohr_frequency_splitting(self):
        # H_a = σ_z has Bohr frequencies {−2, 0, 2}; G_x splits into the ladders
        # |0⟩⟨1| at ω = 2 (it raises energy by 2) and |1⟩⟨0| at ω = −2
        rates = [(2.0, 0.3), (-2.0, 0.1)]
        ladders = {2.0: np.array([[0, 1], [0, 0]], dtype=complex),
                   -2.0: np.array([[0, 0], [1, 0]], dtype=complex)}

        def action(X):
            out = -1j * (SZ @ X - X @ SZ)
            for omega, gamma in rates:
                G = ladders[omega]
                GdG = G.conj().T @ G
                out = out + 2 * gamma * (G @ X @ G.conj().T - 0.5 * (GdG @ X + X @ GdG))
            return out

        gen = build_gkls(SZ, SX, rates, 1.0)
        assert np.max(np.abs(gen.total.matrix - superop(action, 2))) <= 1e-12


class TestSemigroup:
    def test_group_property(self):
        model = rtn_model(0.7, I2 / 2)
        lhs = semigroup(model, 0.4) @ semigroup(model, 0.9)
        assert np.max(np.abs(lhs - semigroup(model, 1.3))) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4), a=st.floats(0.01, 6.0),
           b=st.floats(0.01, 6.0))
    def test_group_law_on_drawn_generators(self, seed, d, a, b):
        # a and b are ‖τℒ‖₁, so τ_a, τ_b and τ_a + τ_b fall in different Padé bands,
        # with up to 2 squarings: Λ(τ_a + τ_b) = Λ(τ_b) Λ(τ_a)
        model, _ = drawn_case(seed, d, 1, degenerate=False, semigroup=True)
        L = model.generator.total.matrix
        tau_a, tau_b = a / np.linalg.norm(L, 1), b / np.linalg.norm(L, 1)
        lhs = qrf.expm(L, tau_a + tau_b)
        rhs = qrf.expm(L, tau_b) @ qrf.expm(L, tau_a)
        assert np.linalg.norm(lhs - rhs, 1) <= 1e-13 * np.linalg.norm(lhs, 1)

    def test_series_oracle_small_time(self, rng):
        gen = build_gkls(random_hermitian(rng, 2), random_hermitian(rng, 2),
                         [(0.0, 0.5)], mu=1.0)
        tau = 0.05
        L = gen.total.matrix
        series = np.eye(4, dtype=complex)
        term = np.eye(4, dtype=complex)
        for k in range(1, 30):
            term = term @ (tau * L) / k
            series += term
        assert np.max(np.abs(gen.semigroup(tau) - series)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8), frac=st.floats(0.05, 0.95))
    def test_expm_matches_scipy_on_drawn_generators(self, seed, d, frac):
        # τ is placed inside each band of ‖τℒ‖₁, so every example reaches every degree
        model, _ = drawn_case(seed, d, 1, degenerate=False, semigroup=True)
        L = model.generator.total.matrix
        for (degree, squarings), (low, high) in PADE_BANDS.items():
            tau = (low + frac * (high - low)) / np.linalg.norm(L, 1)
            assert qrf.pade_order(np.linalg.norm(tau * L, 1)) == (degree, squarings)
            expected = expm(tau * L)
            assert (np.linalg.norm(qrf.expm(L, tau) - expected, 1)
                    <= 1e-13 * np.linalg.norm(expected, 1))

    def test_expm_of_zero_is_the_identity(self, rng):
        L = build_gkls(random_hermitian(rng, 3), random_hermitian(rng, 3), [(0.0, 0.5)]).total.matrix
        assert np.array_equal(qrf.expm(L, 0.0), np.eye(9))

    @pytest.mark.parametrize("scale,tau", [(1e10, 1e300), (1e308, 1.0), (1.0, np.inf)],
                             ids=["entry-overflows", "norm-overflows", "infinite-tau"])
    def test_expm_refuses_a_generator_that_is_not_finite(self, scale, tau):
        L = scale * rtn_model(1.0, I2 / 2).generator.total.matrix
        message = re.escape(f"τℒ is not finite at τ = {tau:.12g}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalInvariantViolation, match=message):
                qrf.expm(L, tau)

    def test_semigroup_is_served_from_the_generator_cache(self, monkeypatch):
        model = rtn_model(0.7, I2 / 2)
        formed, form = [], qrf.expm
        monkeypatch.setattr(qrf, "expm",
                            lambda matrix, tau: formed.append(tau) or form(matrix, tau))
        first = semigroup(model, 0.4)
        assert semigroup(model, 0.4) is first and formed == [0.4]
        assert not first.flags.writeable
        assert np.array_equal(first, form(model.generator.total.matrix, 0.4))

    @pytest.mark.parametrize("coupling,refused", [(1e-9, True), (1e-11, False)])
    def test_semigroup_refuses_a_map_that_moves_the_trace(self, coupling, refused):
        # ℒ = c·vec(E_00) vec(E_10)ᵀ moves tr X by τ·c·X_10: vec(1)ᵀΛ(τ) is off by τc
        matrix = np.zeros((4, 4), dtype=complex)
        matrix[0, 1] = coupling
        generator = qrf.GKLSGenerator(Superoperator(2, matrix))
        if refused:
            with pytest.raises(NumericalInvariantViolation, match=re.escape("at τ = 0.5: ")):
                generator.semigroup(0.5)
        else:
            assert generator.semigroup(0.5)[0, 1] == 0.5 * coupling

    def test_choi_positivity_spot_check(self, rng):
        gen = build_gkls(random_hermitian(rng, 2), random_hermitian(rng, 2),
                         [(0.0, 0.3 + 0.2j)], mu=1.1)
        for t in (0.2, 0.9, 2.0):
            C = choi(gen.semigroup(t), 2)
            assert np.min(np.linalg.eigvalsh(0.5 * (C + C.conj().T))) >= -1e-10


class TestQrfBiProbability:
    def test_frozen_commuting_case_is_quasistatic(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        model = frozen_model(rho)
        table = qrf_bi_probability(model, TimeGrid((0.4, 1.0)))
        for tup, q in np.ndenumerate(table.dist):
            f, g = tup[0::2], tup[1::2]
            same = f == g and len(set(f)) == 1
            expected = (0.3 if f[0] == 0 else 0.7) if same else 0.0
            assert abs(q - expected) <= 1e-12

    def test_single_time_definition(self, rng):
        model = rtn_model(0.7, random_density(rng, 2))
        t = 0.8
        table = qrf_bi_probability(model, TimeGrid((t,)))
        rho_t = unvec(semigroup(model, t) @ vec(model.rho_a), 2)
        for k, P in enumerate(model.F_a.projectors):
            assert abs(table.dist[k, k] - np.trace(P @ rho_t)) <= 1e-12

    def test_rtn_off_diagonal_vanishes(self):
        model = rtn_model(0.7, I2 / 2)
        table = qrf_bi_probability(model, TimeGrid((0.4, 1.1)))
        assert check_sf(table).max_abs_violation <= 1e-12

    def test_rtn_two_time_autocorrelation_oracle(self):
        # independent oracle: hand-built double-commutator semigroup
        gamma, t1, t2 = 0.7, 0.4, 1.1
        model = rtn_model(gamma, I2 / 2)
        diag = qrf_bi_probability(model, TimeGrid((t1, t2))).diagonal()
        vals = diag.eigenvalues
        corr = sum(
            vals[i] * vals[j] * diag.dist[i, j] for i in range(2) for j in range(2)
        )
        L_oracle = -0.5 * gamma * (comm_super(SX) @ comm_super(SX))
        P = [np.diag([0.0, 1.0]).astype(complex), np.diag([1.0, 0.0]).astype(complex)]
        corr_oracle = 0.0
        for i in range(2):
            for j in range(2):
                v = expm(t1 * L_oracle) @ vec(I2 / 2)
                v = np.kron(P[i].T, P[i]) @ v
                v = expm((t2 - t1) * L_oracle) @ v
                v = np.kron(P[j].T, P[j]) @ v
                corr_oracle += vals[i] * vals[j] * np.trace(unvec(v, 2)).real
        assert abs(corr - corr_oracle) <= 1e-12
        assert abs(corr - 0.25 * np.exp(-2 * gamma * (t2 - t1))) <= 1e-10

    def test_bi_consistency_and_structure_random_models(self, rng):
        for _ in range(5):
            H = random_hermitian(rng, 2)
            rates = [(0.0, rng.uniform(0.1, 0.5) + 1j * rng.uniform(-0.2, 0.2))]
            gen = build_gkls(H, random_hermitian(rng, 2), rates, mu=1.0)
            model = QRFModel(
                generator=gen,
                F_a=spectral_decompose(random_hermitian(rng, 2)),
                rho_a=random_density(rng, 2),
            )
            grid = TimeGrid((0.3, 0.8, 1.4))
            table = qrf_bi_probability(model, grid)
            # bi-consistency against freshly built reduced tables
            for i in (1, 2, 3):
                fresh = oracles.merged_gap_table(qrf_bi_probability, model, grid, i)
                pair = table.dist.sum(axis=(2 * i - 2, 2 * i - 1))
                assert np.max(np.abs(pair - fresh.dist)) <= 1e-10
            # last-index diagonality and Hermitian symmetry
            m = table.n_outcomes
            flat = table.dist.reshape(-1, m, m).copy()
            flat[:, np.arange(m), np.arange(m)] = 0.0
            assert np.max(np.abs(flat)) <= 1e-12
            swapped = np.transpose(table.dist, (1, 0, 3, 2, 5, 4))
            assert np.max(np.abs(table.dist - swapped.conj())) <= 1e-11

    def test_born_table_matches_diagonal(self, rng):
        model = rtn_model(0.9, random_density(rng, 2))
        grid = TimeGrid((0.5, 1.2))
        direct = qrf_born(model, grid)
        diag = qrf_bi_probability(model, grid).diagonal()
        assert np.max(np.abs(direct.dist - diag.dist)) <= 1e-12
        assert born_table(model, grid) is not None  # dispatch registered


class TestRtnModel:
    def test_outcomes_are_half_integers(self):
        model = rtn_model(1.0, I2 / 2)
        assert np.allclose(model.F_a.eigenvalues, [-0.5, 0.5])

    def test_sf_passes_up_to_n3(self):
        model = rtn_model(1.0, I2 / 2)
        for n in (1, 2, 3):
            grid = TimeGrid(tuple(0.5 * (k + 1) for k in range(n)))
            table = qrf_bi_probability(model, grid)
            assert check_sf(table).max_abs_violation <= 1e-12

    def test_mixed_state_single_time_probabilities(self):
        model = rtn_model(1.0, I2 / 2)
        table = qrf_born(model, TimeGrid((0.7,)))
        assert abs(table.dist[0] - 0.5) <= 1e-12
        assert abs(table.dist[1] - 0.5) <= 1e-12

    def test_polarized_state_relaxation(self):
        # oracle from L sigma_z = -2 gamma sigma_z: P(+1/2, t) = (1+e^{-2γt})/2
        gamma, t = 0.7, 0.9
        model = rtn_model(gamma, KET0)
        table = qrf_born(model, TimeGrid((t,)))
        assert abs(table.dist[1] - 0.5 * (1 + np.exp(-2 * gamma * t))) <= 1e-12

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_a_rate_that_is_not_finite_is_refused(self, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite):
                rtn_model(gamma, I2 / 2)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(NonPositiveRate):
            rtn_model(0.0, I2 / 2)
        with pytest.raises(NonPositiveRate):
            rtn_model(-1.0, I2 / 2)


class TestNcgd:
    def test_rtn_passes(self):
        model = rtn_model(0.7, I2 / 2)
        report = check_ncgd(model, [(1.1, 0.4), (2.0, 0.5)])
        assert report.max_abs_violation <= 1e-12

    def test_coherent_rotation_fails(self):
        report = check_ncgd(rotation_model(), [(1.1, 0.4)])
        assert not report.passed
        assert report.max_abs_violation > 1e-2

    def test_frozen_generator_passes(self):
        report = check_ncgd(frozen_model(), [(1.0, 0.3)])
        assert report.max_abs_violation <= 1e-12

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            check_ncgd(frozen_model(), [(0.3, 1.0)])


class TestBlockStructure:
    def test_rtn_is_both_triangular(self):
        out = classify_block_structure(rtn_model(0.7, I2 / 2), sample_times=(0.4, 1.1))
        assert out.lower_triangular and out.upper_triangular
        assert set(out.labels) == {"coherence non-activating", "coherence non-generating"}

    def test_rotation_is_neither(self):
        out = classify_block_structure(rotation_model(), sample_times=(0.4, 1.1))
        assert not out.lower_triangular and not out.upper_triangular
        assert out.labels == ()

    def test_frozen_is_both(self):
        out = classify_block_structure(frozen_model(), sample_times=(0.5,))
        assert out.lower_triangular and out.upper_triangular

    def test_lower_implies_sf_on_grids(self):
        model = rtn_model(1.3, KET0)
        out = classify_block_structure(model, sample_times=(0.5, 1.0))
        assert out.lower_triangular
        for grid in (TimeGrid((0.4, 1.1)), TimeGrid((0.2, 0.9, 1.7))):
            table = qrf_bi_probability(model, grid)
            assert check_sf(table).max_abs_violation <= 1e-12

    def test_upper_only_with_block_diagonal_state_implies_sf(self):
        # coherences feed populations but not the reverse: column-built
        # generator with L(E10) = -E10 + 0.4(E00 - E11), mirrored for E01
        a, b = 1.0, 0.4
        L = np.zeros((4, 4), dtype=complex)
        L[:, 1] = [b, -a, 0.0, -b]   # vec order (X00, X10, X01, X11)
        L[:, 2] = [b, 0.0, -a, -b]
        gen = generator_from_matrix(L)
        model = QRFModel(
            generator=gen,
            F_a=spectral_decompose(HALF_SZ),
            rho_a=np.diag([0.7, 0.3]).astype(complex),
        )
        out = classify_block_structure(model, sample_times=(0.5, 1.0))
        assert out.upper_triangular and not out.lower_triangular
        assert out.labels == ("coherence non-generating",)
        for grid in (TimeGrid((0.4, 1.1)), TimeGrid((0.3, 0.8, 1.5))):
            table = qrf_bi_probability(model, grid)
            assert check_sf(table).max_abs_violation <= 1e-12


def equivalence(model, grid):
    """The verdict of ``verify_ncgd_cm_equivalence`` and the NCGD and CM records it compared."""
    ncgd = check_ncgd(model, grid_pairs(grid))
    cm, _ = check_cm(qrf_bi_probability(model, grid))
    return verify_ncgd_cm_equivalence(model, ncgd, cm), ncgd, cm


class TestNcgdCmEquivalence:
    def test_rtn_agrees_pass(self):
        agree, ncgd, cm = equivalence(rtn_model(0.7, I2 / 2), TimeGrid((0.4, 1.1)))
        assert agree and ncgd.passed and cm.passed

    def test_rotation_agrees_fail(self):
        agree, ncgd, cm = equivalence(rotation_model(), TimeGrid((0.4, 1.1)))
        assert agree
        assert not ncgd.passed and not cm.passed

    def test_frozen_agrees_pass(self):
        agree, ncgd, cm = equivalence(frozen_model(), TimeGrid((0.4, 1.1)))
        assert agree and ncgd.passed and cm.passed

    def test_rejects_non_block_diagonal_state(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        with pytest.raises(NonBlockDiagonalState):
            equivalence(rotation_model(plus), TimeGrid((0.4, 1.1)))


def test_a_non_finite_raw_generator_is_refused_where_it_enters():
    # the preservation checks compare False on NaN, so the entry check is what refuses it
    L = -0.35 * (comm_super(SX) @ comm_super(SX))
    L[1, 2] = np.nan
    with pytest.raises(NonFinite, match="generator: contains NaN or Inf entries"):
        generator_from_matrix(L)


def test_generator_from_matrix_roundtrip():
    gamma = 0.6
    L = -0.5 * gamma * (comm_super(SX) @ comm_super(SX))
    gen = generator_from_matrix(L)
    model = QRFModel(generator=gen, F_a=spectral_decompose(HALF_SZ), rho_a=I2 / 2)
    built = rtn_model(gamma, I2 / 2)
    grid = TimeGrid((0.4, 1.1))
    assert np.max(np.abs(
        qrf_bi_probability(model, grid).dist - qrf_bi_probability(built, grid).dist
    )) <= 1e-12


def test_cm_check_on_qrf_table_matches_rotation_expectation():
    table = qrf_bi_probability(rotation_model(), TimeGrid((0.4, 1.1)))
    assert not check_cm(table)[0].passed


STRUCTURES = ("gkls", "lower", "upper", "both")


def drawn_block_model(seed, d, m, rotated, structure):
    """A GKLS model whose F_a has min(m, d) distinct outcomes, drawn from ``seed``.

    F_a repeats its eigenvalues and, when ``rotated``, is not diagonal in the
    computational basis; the rates are complex. For "lower", "upper" and "both" the
    blocks 𝒫(f,f) ℒ 𝒫(f_+,f_-) (lower), their mirror (upper) or both are projected
    out of the generator, so the labels and their residuals are formed too. The
    projected generator is not checked: the classification does not need it valid.
    """
    rng = np.random.default_rng(seed)
    m = min(m, d)
    values = np.concatenate([np.arange(m), rng.integers(0, m, size=d - m)]) - 0.5 * m
    V = random_unitary(rng, d) if rotated else np.eye(d)
    F_a = spectral_decompose((V * values) @ V.conj().T)
    H = random_hermitian(rng, d)
    w = np.linalg.eigvalsh(H)
    omegas = {0.0} if d == 1 else {0.0, float(w[1] - w[0]), float(w[0] - w[1])}
    rates = [(omega, rng.uniform(0.0, 1.0) + 0.3j * rng.normal()) for omega in omegas]
    L = build_gkls(H, random_hermitian(rng, d), rates).total.matrix
    K = pair_superops(F_a).reshape(m, m, d * d, d * d)
    off = [(a, b) for a in range(m) for b in range(m) if a != b]
    cut = np.zeros_like(L)
    for f in range(m):
        for a, b in off:
            if structure in ("lower", "both"):
                cut += K[f, f] @ L @ K[a, b]
            if structure in ("upper", "both"):
                cut += K[a, b] @ L @ K[f, f]
    generator = GKLSGenerator(Superoperator(d, L - cut))
    return QRFModel(generator=generator, F_a=F_a, rho_a=random_density(rng, d))


def raised(check, matrix, dim):
    """(type, message) of what ``check`` raises, or None."""
    try:
        with np.errstate(invalid="ignore"):  # the loop forms inf·0 and inf − inf
            check(matrix, dim)
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestAgainstOracles:
    """The array-algebra checks against their per-basis-element loops, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), m=st.integers(1, 5),
           rotated=st.booleans(), structure=st.sampled_from(STRUCTURES))
    def test_block_classification_matches_the_loop(self, seed, d, m, rotated, structure):
        model = drawn_block_model(seed, d, m, rotated, structure)
        fast = classify_block_structure(model, sample_times=(0.4, 1.1))
        slow = oracles.classify_block_structure(model, sample_times=(0.4, 1.1))
        assert fast.lower_violation == slow.lower_violation
        assert fast.upper_violation == slow.upper_violation
        assert fast.labels == slow.labels
        assert fast.label_residuals == slow.label_residuals
        assert fast == slow

    def test_drawn_structures_reach_every_label(self):
        seen = set()
        for seed in range(4):
            for structure in STRUCTURES:
                out = classify_block_structure(drawn_block_model(seed, 3, 2, True, structure))
                seen.add((structure, out.labels))
        assert ("gkls", ()) in seen and ("lower", ("coherence non-activating",)) in seen
        assert ("both", ("coherence non-activating", "coherence non-generating")) in seen
        assert any(structure == "upper" and labels for structure, labels in seen)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4),
           hits=st.lists(st.tuples(st.integers(0, 255), st.sampled_from(
               [1e-13, 1e-11, -3e-9j, 1e-3, 1.0 - 2j])),
               max_size=3))
    def test_generator_validation_matches_the_loop(self, seed, d, hits):
        L = drawn_block_model(seed, d, 2, True, "gkls").generator.total.matrix.copy()
        for where, shift in hits:
            L.flat[where % L.size] += shift
        assert raised(qrf._validate_generator, L, d) == raised(oracles.validate_generator, L, d)

    # δ puts tr ℒE_00 = 0 + 1.5 − 1.5 + δ at d = 4 within an ulp of the tolerance
    # 1e-12·1.5, where the order of the summation decides the verdict
    DELTA = 1e-12 * 1.5 + 2.0**-56

    @pytest.mark.parametrize("dim, entries, expected", [
        (2, {(0, 0): 1e-3}, "trace: |tr ℒE_00| = 1.000e-03"),
        (2, {(1, 0): 1e-3}, "Hermiticity on the basis"),
        (4, {(5, 0): 1.5, (10, 0): -1.5, (15, 0): DELTA}, None),
        (4, {(5, 0): DELTA, (10, 0): -1.5, (15, 0): 1.5}, "trace: |tr ℒE_00| = 1.500e-12"),
    ], ids=["trace", "hermiticity", "trace-rounded-below", "trace-exact-above"])
    def test_generator_validation_errors(self, dim, entries, expected):
        L = np.zeros((dim * dim, dim * dim), dtype=complex)
        for index, entry in entries.items():
            L[index] = entry
        expected = expected and (NumericalInvariantViolation, f"generator does not preserve {expected}")
        assert raised(oracles.validate_generator, L, dim) == expected
        assert raised(qrf._validate_generator, L, dim) == expected
