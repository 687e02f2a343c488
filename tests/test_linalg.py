import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import spectral_decompose
from bornlab.linalg import (
    commutator_superop,
    partial_trace,
    propagator,
    trace_distance,
    vec,
)
from bornlab.qrf import pair_superops
from bornlab.errors import NonFinite, NonHermitianInput
from bornlab.linalg import require_density, require_hermitian
from conftest import I2, KET0, KET1, SX, SZ, random_density, random_hermitian
from oracles import unvec


class TestHermitianEig:
    """The eigendecomposition ``spectral_decompose`` takes of a Hermitian observable."""

    def test_pauli_x_spectrum(self):
        sd = spectral_decompose(SX)
        assert np.allclose(sd.eigenvalues, [-1.0, 1.0])
        assert np.allclose(sd.projectors[1], (I2 + SX) / 2)
        assert np.allclose(sd.projectors.sum(axis=0), I2)

    def test_identity(self):
        sd = spectral_decompose(np.eye(3, dtype=complex))
        assert np.allclose(sd.eigenvalues, [1.0]) and sd.multiplicities == (3,)
        assert np.allclose(sd.projectors[0], np.eye(3), atol=1e-12)

    def test_reconstruction_random(self, rng):
        A = random_hermitian(rng, 6)
        sd = spectral_decompose(A)
        norm = np.linalg.norm(A)
        assert np.max(np.abs(sd.observable() - A)) <= 1e-10 * norm
        assert np.all(np.diff(sd.eigenvalues) > 0)


class TestRequireHermitian:
    def test_keeps_the_exact_hermitian_part(self, rng):
        A = random_hermitian(rng, 4)
        M = A + 1e-13 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        out = require_hermitian(M)
        assert np.array_equal(out, out.conj().T)
        assert np.array_equal(out, 0.5 * (M + M.conj().T))
        assert np.array_equal(require_hermitian(out), out)

    def test_a_state_is_kept_as_its_hermitian_part(self, rng):
        rho = random_density(rng, 3)
        rho[0, 1] += 1e-13
        out = require_density(rho)
        assert np.array_equal(out, out.conj().T)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            require_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_nan(self):
        bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(NonFinite):
            require_hermitian(bad)


class TestPropagator:
    def test_sigma_z_quarter_period(self):
        U = propagator(SZ, np.pi / 2)
        assert np.allclose(U, np.diag([-1j, 1j]), atol=1e-12)

    def test_zero_time(self, rng):
        H = random_hermitian(rng, 4)
        assert np.allclose(propagator(H, 0.0), np.eye(4), atol=1e-13)

    def test_series_oracle_sigma_x(self):
        # independent oracle: exp(-it σ_x) = cos(t) 1 - i sin(t) σ_x
        t = 0.3
        expected = np.cos(t) * I2 - 1j * np.sin(t) * SX
        assert np.max(np.abs(propagator(SX, t) - expected)) <= 1e-12

    def test_unitarity(self, rng):
        H = random_hermitian(rng, 5)
        U = propagator(H, 1.7)
        assert np.max(np.abs(U @ U.conj().T - np.eye(5))) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(
        t=st.floats(min_value=-3.0, max_value=3.0),
        s=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_group_law(self, t, s):
        H = random_hermitian(np.random.default_rng(7), 4)
        lhs = propagator(H, t) @ propagator(H, s)
        assert np.max(np.abs(lhs - propagator(H, t + s))) <= 1e-10


class TestPartialTrace:
    def test_trace_out_second(self, rng):
        rho, sigma = random_density(rng, 2), random_density(rng, 3)
        out = partial_trace(np.kron(rho, sigma), (2, 3))
        assert np.allclose(out, rho * np.trace(sigma))

    def test_preserves_trace_index_sum_oracle(self, rng):
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        out = partial_trace(M, (2, 2))
        # index-sum oracle
        oracle = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for s in range(2):
                    oracle[i, j] += M[2 * i + s, 2 * j + s]
        assert np.allclose(out, oracle)
        assert abs(np.trace(out) - np.trace(M)) <= 1e-12


class TestSuperoperators:
    def test_vec_convention_is_column_stacking(self):
        X = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.allclose(vec(X), [1, 3, 2, 4])
        assert np.allclose(unvec(vec(X), 2), X)

    def test_sandwich_left_multiplication(self, rng):
        # vec(L X R) = kron(R.T, L) vec(X), the convention every superoperator is built in
        L, X, R = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        assert np.allclose(np.kron(R.T, L) @ vec(X), vec(L @ X @ R))

    def test_apply_matches_matrix_action(self, rng):
        # unvec(kron(R.T, L) vec(X)) = L X R: how a superoperator's action is read back
        L, X, R = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        assert np.allclose(unvec(np.kron(R.T, L) @ vec(X), 2), L @ X @ R)

    def test_sandwich_projector_pair(self):
        # 𝒫(+, -): σ_x ↦ P(+) σ_x P(-) = |0⟩⟨1|, at index f_+·m + f_- (σ_z outcomes ascend)
        S = pair_superops(spectral_decompose(SZ))[1 * 2 + 0]
        out = S @ vec(SX)
        assert np.allclose(out, vec(np.array([[0, 1], [0, 0]])))

    def test_commutator_superop(self, rng):
        A = random_hermitian(rng, 3)
        X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(unvec(commutator_superop(A) @ vec(X), 3), A @ X - X @ A)


class TestTraceDistance:
    def test_coincident_states(self, rng):
        rho = random_density(rng, 3)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert abs(trace_distance(KET0, KET1) - 1.0) <= 1e-12

    def test_pure_vs_maximally_mixed(self):
        assert abs(trace_distance(KET0, I2 / 2) - 0.5) <= 1e-12

    def test_metric_properties(self, rng):
        a, b, c = (random_density(rng, 3) for _ in range(3))
        assert trace_distance(a, b) >= 0
        assert abs(trace_distance(a, b) - trace_distance(b, a)) <= 1e-12
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_triangle_inequality_random(self, seed):
        r = np.random.default_rng(seed)
        a, b, c = (random_density(r, 2) for _ in range(3))
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12
