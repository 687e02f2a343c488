"""Distinct-eigenvalue spectral decomposition of observables.

An observable F = Σ_f f P(f) is represented by its unique eigenvalues and the
orthogonal projectors onto their eigenspaces. Floating-point eigensolvers
split exact degeneracies at the 1e-15 level, so eigenvalues are clustered by
their gaps: the ascending eigenvalues are cut wherever the gap to the next one
exceeds ``cluster_tol``, and each run between cuts is one outcome whose value
is the mean of the run.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import AmbiguousClustering, DimensionMismatch
from .linalg import DEFAULT_TOLERANCES, propagator, require_hermitian


class SpectralDecomposition(NamedTuple):
    """Unique outcomes of an observable with their eigenprojectors.

    ``eigenvalues`` is strictly increasing; ``projectors[k]`` projects onto
    the eigenspace of ``eigenvalues[k]`` with rank ``multiplicities[k]``.
    ``clustered`` is True when any outcome absorbed more than one raw
    eigenvalue. The columns of ``basis`` are orthonormal eigenvectors grouped
    by outcome: the ``multiplicities[k]`` columns of outcome k, in order, are
    the ones ``projectors[k]`` is formed from. A closed system builds its
    tables in this basis, so a copy with new projectors needs a new basis too.
    """

    eigenvalues: np.ndarray
    projectors: np.ndarray
    multiplicities: tuple[int, ...]
    dim: int
    clustered: bool
    basis: np.ndarray

    @property
    def n_outcomes(self):
        return len(self.eigenvalues)

    def observable(self):
        """Reconstruct F = Σ_f f P(f)."""
        return np.einsum("a,aij->ij", self.eigenvalues, self.projectors)


def default_cluster_tol(eigenvalues):
    """max(1e-9 · max(1, spectral range), 1e-12 · max |λ|) of ascending eigenvalues.

    The second term follows the eigensolver's roundoff, which scales with the
    largest |λ|, so a shift F + c·1 keeps degenerate outcomes merged.
    """
    rng = float(eigenvalues[-1] - eigenvalues[0]) if len(eigenvalues) > 1 else 0.0
    return max(1e-9 * max(1.0, rng), 1e-12 * float(np.max(np.abs(eigenvalues), initial=0.0)))


def spectral_decompose(F, cluster_tol=None, hermiticity_tol=DEFAULT_TOLERANCES.hermiticity):
    """Decompose a Hermitian observable into unique outcomes and projectors.

    Eigenvalues whose consecutive gap is ≤ ``cluster_tol`` are chained into a
    single outcome. A chain whose total width exceeds ``cluster_tol`` is
    ambiguous (its members are farther apart than the tolerance that merged
    them) and raises :class:`AmbiguousClustering`.
    """
    w, V = np.linalg.eigh(require_hermitian(F, hermiticity_tol, "observable"))
    tol = default_cluster_tol(w) if cluster_tol is None else float(cluster_tol)
    if not tol > 0:
        raise ValueError("cluster_tol must be positive")

    cuts = np.flatnonzero(np.diff(w) > tol) + 1  # where a gap exceeds tol, a cluster starts
    values, projs, mults = [], [], []
    for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(w)]):
        width = w[hi - 1] - w[lo]
        if width > tol:
            raise AmbiguousClustering(f"eigenvalue cluster [{w[lo]}, {w[hi - 1]}] is wider "
                                      f"({width:.3e}) than cluster_tol {tol:.3e}")
        block = V[:, lo:hi]
        values.append(float(np.mean(w[lo:hi])))
        projs.append(block @ block.conj().T)
        mults.append(hi - lo)
    return SpectralDecomposition(np.array(values), np.array(projs), tuple(mults), len(w),
                                 clustered=max(mults) > 1, basis=V)


def heisenberg_projectors(sd, H, t):
    """P(f, t) = U†(t) P(f) U(t) for every outcome, stacked as (m, d, d)."""
    if H.shape[0] != sd.dim:
        raise DimensionMismatch(
            f"Hamiltonian dim {H.shape[0]} does not match observable dim {sd.dim}"
        )
    U = propagator(H, t)
    return np.einsum("ji,ajk,kl->ail", U.conj(), sd.projectors, U)
