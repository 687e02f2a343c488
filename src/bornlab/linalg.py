"""Dense complex linear-algebra substrate.

Conventions fixed here and relied on everywhere else:

* Vectorization is column-stacking: ``vec(X) = X.flatten(order="F")``, so
  ``vec(L @ X @ R) = kron(R.T, L) @ vec(X)``.
* Unitary propagators are built from the eigendecomposition of the Hermitian
  part ½(H + H†), exact to roundoff: ``U(t) = V exp(-i t diag(w)) V†``. A
  Hamiltonian the library forms from checked matrices, such as the joint one,
  can be off Hermitian by roundoff, which this keeps out of U.
* A matrix is checked once, where it enters the library, by
  :func:`require_hermitian` or :func:`require_density` against the run's
  :class:`Tolerances`, and kept as its Hermitian part. Nothing downstream
  checks it again: the functions here that take matrices the library formed
  check nothing. Default tolerances: hermiticity 1e-12, density-matrix
  trace/positivity slack 1e-10.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDensityMatrix,
    NonFinite,
    NonHermitianInput,
)


class Tolerances(NamedTuple):
    """The tolerances a run applies, each to the inputs or verdicts named here.

    ``hermiticity`` bounds max |M − M†| of H, F and the observer and QRF
    operators where they enter, and nothing else; ``density`` is the
    Hermiticity, trace and positivity slack of the initial states; ``cluster``
    merges eigenvalues of F and matches rate frequencies to Bohr frequencies
    (``None`` selects the spectral default
    ``max(1e-9 · max(1, spectral range), 1e-12 · max |λ|)`` per
    decomposition); ``consistency`` is the verdict threshold ε.
    """

    hermiticity: float = 1e-12
    density: float = 1e-10
    cluster: float | None = None
    consistency: float = 1e-8


DEFAULT_TOLERANCES = Tolerances()


def as_complex_matrix(A, name="matrix"):
    """Coerce to a 2-D complex ndarray and reject non-finite entries."""
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2:
        raise DimensionMismatch(f"{name}: expected a 2-D matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise NonFinite(f"{name}: contains NaN or Inf entries")
    return M


def require_hermitian(A, tol=DEFAULT_TOLERANCES.hermiticity, name="matrix"):
    """The Hermitian part ½(M + M†) of a square matrix whose max |M − M†| is at most ``tol``."""
    M = as_complex_matrix(A, name)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name}: expected square, got shape {M.shape}")
    defect = float(np.max(np.abs(M - M.conj().T))) if M.size else 0.0
    if defect > tol:
        raise NonHermitianInput(
            f"{name}: hermiticity defect {defect:.3e} exceeds tolerance {tol:.3e}"
        )
    return 0.5 * (M + M.conj().T)


def require_density(rho, tol=DEFAULT_TOLERANCES.density, name="density matrix"):
    """The Hermitian part of a state with unit trace and no negative eigenvalue (within slack)."""
    M = require_hermitian(rho, max(tol, DEFAULT_TOLERANCES.hermiticity), name)
    tr = np.trace(M)
    if abs(tr - 1.0) > tol:
        raise InvalidDensityMatrix(f"{name}: trace {tr} differs from 1 beyond {tol:.1e}")
    w = np.linalg.eigvalsh(M)
    if w[0] < -tol:
        raise InvalidDensityMatrix(
            f"{name}: minimum eigenvalue {w[0]:.3e} below positivity slack -{tol:.1e}"
        )
    return M


def propagator(H, t):
    """Unitary exp(-i t H) (hbar = 1) of the Hermitian part of H."""
    w, V = np.linalg.eigh(0.5 * (H + H.conj().T))
    return (V * np.exp(-1j * t * w)) @ V.conj().T


MAP_CACHE_SIZE = 256  # maps a source keeps, so a sweep over many times stays bounded


def map_cache(form):
    """``form(t)`` kept for the most recent MAP_CACHE_SIZE t, read-only since callers share it."""

    @functools.lru_cache(maxsize=MAP_CACHE_SIZE)
    def cached(t):
        out = form(t)
        out.flags.writeable = False
        return out

    return cached


def partial_trace(M, dims):
    """Trace out the second factor of a bipartite operator on C^{d1} ⊗ C^{d2}."""
    d1, d2 = dims
    return np.einsum("isjs->ij", M.reshape(d1, d2, d1, d2))


def vec(X):
    """Column-stacking vectorization."""
    return np.asarray(X, dtype=complex).flatten(order="F")


class Superoperator(NamedTuple):
    """A linear map on operators, stored as a d² × d² matrix acting on vec(X)."""

    dim: int
    matrix: np.ndarray


def commutator_superop(A):
    """The d² × d² matrix of X ↦ [A, X] acting on vec(X)."""
    eye = np.eye(A.shape[0], dtype=complex)
    return np.kron(eye, A) - np.kron(A.T, eye)


def trace_distance(rho, sigma):
    """½‖ρ − σ‖₁ via the eigenvalues of the Hermitian part of ρ − σ."""
    diff = rho - sigma
    w = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return 0.5 * float(np.sum(np.abs(w)))
