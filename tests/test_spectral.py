import numpy as np
import pytest

from bornlab import spectral_decompose
from bornlab.linalg import propagator
from bornlab.spectral import heisenberg_projectors
from bornlab.errors import AmbiguousClustering, DimensionMismatch
from conftest import I2, SX, SZ, random_hermitian, random_unitary


def test_sigma_z_decomposition():
    sd = spectral_decompose(SZ)
    assert np.allclose(sd.eigenvalues, [-1.0, 1.0])
    assert np.allclose(sd.projectors[0], np.diag([0, 1]))
    assert np.allclose(sd.projectors[1], np.diag([1, 0]))
    assert sd.multiplicities == (1, 1)
    assert not sd.clustered


def test_degenerate_observable_clusters():
    sd = spectral_decompose(np.kron(SZ, I2))
    assert np.allclose(sd.eigenvalues, [-1.0, 1.0])
    assert sd.multiplicities == (2, 2)
    assert sd.clustered
    for P in sd.projectors:
        assert abs(np.trace(P).real - 2.0) <= 1e-12


def test_near_degenerate_clustering_rule():
    F = np.diag([1.0, 1.0 + 1e-12, 2.0]).astype(complex)
    sd = spectral_decompose(F, cluster_tol=1e-9)
    assert sd.multiplicities == (2, 1)
    assert abs(sd.eigenvalues[0] - (1.0 + 5e-13)) <= 1e-13
    assert abs(sd.eigenvalues[1] - 2.0) <= 1e-12


def test_ambiguous_ladder_raises():
    tol = 1e-9
    F = np.diag([0.0, 0.9 * tol, 1.8 * tol, 1.0]).astype(complex)
    with pytest.raises(AmbiguousClustering):
        spectral_decompose(F, cluster_tol=tol)


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
def test_cluster_tolerance_must_be_positive(tol):
    # a NaN tolerance would compare False with every gap and merge all outcomes into one
    with pytest.raises(ValueError, match="cluster_tol must be positive"):
        spectral_decompose(np.diag([1.0, 2.0, 5.0]), tol)


def test_reconstruction():
    rng = np.random.default_rng(5)
    F = random_hermitian(rng, 5)
    sd = spectral_decompose(F)
    assert np.max(np.abs(sd.observable() - F)) <= 1e-10


def test_projector_invariants_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = rng.integers(2, 7)
        H = random_hermitian(rng, d)
        F = random_hermitian(rng, d)
        t = rng.uniform(0.0, 3.0)
        sd = spectral_decompose(F)
        projs = heisenberg_projectors(sd, H, t)
        # completeness
        assert np.max(np.abs(projs.sum(axis=0) - np.eye(d))) <= 1e-10
        # orthogonality / idempotence
        for a in range(len(projs)):
            for b in range(len(projs)):
                expect = projs[a] if a == b else np.zeros((d, d))
                assert np.max(np.abs(projs[a] @ projs[b] - expect)) <= 1e-10
        # reconstruction in the rotated frame
        U = propagator(H, t)
        rotated = U.conj().T @ F @ U
        rebuilt = np.einsum("a,aij->ij", sd.eigenvalues, projs)
        assert np.max(np.abs(rebuilt - rotated)) <= 1e-10


def test_commuting_hamiltonian_keeps_projectors_static():
    sd = spectral_decompose(SZ)
    for t in (0.0, 0.7, 2.3):
        projs = heisenberg_projectors(sd, 1.3 * SZ, t)
        assert np.max(np.abs(projs - sd.projectors)) <= 1e-12


def test_zero_time_is_identity_frame():
    rng = np.random.default_rng(3)
    F = random_hermitian(rng, 4)
    H = random_hermitian(rng, 4)
    sd = spectral_decompose(F)
    assert np.max(np.abs(heisenberg_projectors(sd, H, 0.0) - sd.projectors)) <= 1e-12


def test_rabi_projector_oracle():
    # 2x2 direct computation of U†(t) P(+) U(t) for H = σ_x/2
    sd = spectral_decompose(SZ)
    t = 0.9
    projs = heisenberg_projectors(sd, 0.5 * SX, t)
    U = np.cos(t / 2) * I2 - 1j * np.sin(t / 2) * SX
    expected = U.conj().T @ np.diag([1.0, 0.0]) @ U
    assert np.max(np.abs(projs[1] - expected)) <= 1e-12
    assert abs(np.trace(projs[1]).real - 1.0) <= 1e-12


def test_dimension_mismatch():
    sd = spectral_decompose(SZ)
    with pytest.raises(DimensionMismatch):
        heisenberg_projectors(sd, np.eye(3, dtype=complex), 1.0)


def test_representative_value_is_cluster_mean():
    V = random_unitary(np.random.default_rng(9), 3)
    vals = np.array([1.0, 1.0 + 4e-10, 3.0])
    F = (V * vals) @ V.conj().T
    sd = spectral_decompose(F, cluster_tol=1e-9)
    assert sd.multiplicities == (2, 1)
    assert abs(sd.eigenvalues[0] - np.mean(vals[:2])) <= 1e-12
