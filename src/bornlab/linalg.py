"""Dense complex linear-algebra substrate.

Conventions fixed here and relied on everywhere else:

* Vectorization is column-stacking: ``vec(X) = X.flatten(order="F")``, so
  ``vec(L @ X @ R) = kron(R.T, L) @ vec(X)``.
* Unitary propagators of Hermitian generators are built from the
  eigendecomposition, exact to roundoff: ``U(t) = V exp(-i t diag(w)) V†``.
* A matrix accepted as Hermitian is kept as its Hermitian part ½(M + M†),
  so every later eigensolve and propagator sees an exactly Hermitian input.
* Default tolerances: hermiticity 1e-12, density-matrix trace/positivity
  slack 1e-10. A config overrides them through :class:`Tolerances` where its
  inputs enter; nothing downstream checks them again.
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
    operators; ``density`` is the Hermiticity, trace and positivity slack of
    the initial states; ``cluster`` merges eigenvalues of F and matches rate
    frequencies to Bohr frequencies (``None`` selects the spectral default
    ``1e-9 * max(1, spectral range)`` per decomposition); ``consistency`` is
    the verdict threshold ε.
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


def require_square(M, name="matrix"):
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name}: expected square, got shape {M.shape}")
    return M


def hermiticity_defect(A):
    """max |A - A†| entrywise."""
    return float(np.max(np.abs(A - A.conj().T))) if A.size else 0.0


def require_hermitian(A, tol=DEFAULT_TOLERANCES.hermiticity, name="matrix"):
    """The Hermitian part ½(M + M†) of a matrix whose hermiticity defect is at most ``tol``."""
    M = require_square(as_complex_matrix(A, name), name)
    defect = hermiticity_defect(M)
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


def hermitian_eig(A, tol=DEFAULT_TOLERANCES.hermiticity, name="matrix"):
    """Eigendecomposition A = V diag(w) V† of a Hermitian matrix.

    Returns ``(w, V)`` with ``w`` ascending and ``V`` unitary. The solve
    uses the Hermitian part of ``A``, so inputs Hermitian only within ``tol``
    are treated evenhandedly.
    """
    return np.linalg.eigh(require_hermitian(A, tol, name))


def propagator(H, t):
    """Unitary exp(-i t H) for Hermitian H (hbar = 1)."""
    w, V = hermitian_eig(H, name="Hamiltonian")
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
    A = as_complex_matrix(M, "bipartite operator")
    require_square(A, "bipartite operator")
    if A.shape[0] != d1 * d2:
        raise DimensionMismatch(
            f"operator side {A.shape[0]} does not equal d1*d2 = {d1 * d2}"
        )
    return np.einsum("isjs->ij", A.reshape(d1, d2, d1, d2))


def vec(X):
    """Column-stacking vectorization."""
    return np.asarray(X, dtype=complex).flatten(order="F")


class Superoperator:
    """A linear map on operators, stored as a d² × d² matrix acting on vec(X)."""

    def __init__(self, dim, matrix):
        m = require_square(as_complex_matrix(matrix, "superoperator"), "superoperator")
        if m.shape[0] != dim**2:
            raise DimensionMismatch(
                f"superoperator side {m.shape[0]} does not equal dim² = {dim**2}")
        self.dim, self.matrix = dim, matrix


def commutator_superop(A):
    """The d² × d² matrix of X ↦ [A, X] acting on vec(X)."""
    Am = require_square(as_complex_matrix(A, "commutator generator"), "commutator generator")
    eye = np.eye(Am.shape[0], dtype=complex)
    return np.kron(eye, Am) - np.kron(Am.T, eye)


def trace_distance(rho, sigma):
    """½‖ρ − σ‖₁ via the eigenvalues of the Hermitian difference."""
    A = as_complex_matrix(rho, "rho")
    B = as_complex_matrix(sigma, "sigma")
    if A.shape != B.shape:
        raise DimensionMismatch(f"trace_distance: shapes {A.shape} vs {B.shape}")
    diff = A - B
    w = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return 0.5 * float(np.sum(np.abs(w)))
