"""Distinct-eigenvalue spectral decomposition of observables.

An observable F = Σ_f f P(f) is represented by its unique eigenvalues and the
orthogonal projectors onto their eigenspaces. Floating-point eigensolvers
split exact degeneracies at the 1e-15 level, so eigenvalues are clustered:
consecutive eigenvalues closer than ``cluster_tol`` are merged into one
outcome whose value is the mean of the cluster.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import AmbiguousClustering, DimensionMismatch
from .linalg import DEFAULT_TOLERANCES, hermitian_eig, propagator


class SpectralDecomposition(NamedTuple):
    """Unique outcomes of an observable with their eigenprojectors.

    ``eigenvalues`` is strictly increasing; ``projectors[k]`` projects onto
    the eigenspace of ``eigenvalues[k]`` with rank ``multiplicities[k]``.
    ``clustered`` is True when any outcome absorbed more than one raw
    eigenvalue.
    """

    eigenvalues: np.ndarray
    projectors: np.ndarray
    multiplicities: tuple[int, ...]
    dim: int
    clustered: bool = False

    @property
    def n_outcomes(self):
        return len(self.eigenvalues)

    def observable(self):
        """Reconstruct F = Σ_f f P(f)."""
        return np.einsum("a,aij->ij", self.eigenvalues, self.projectors)


def default_cluster_tol(eigenvalues):
    """1e-9 · max(1, spectral range)."""
    rng = float(eigenvalues[-1] - eigenvalues[0]) if len(eigenvalues) > 1 else 0.0
    return 1e-9 * max(1.0, rng)


def spectral_decompose(F, cluster_tol=None, hermiticity_tol=DEFAULT_TOLERANCES.hermiticity):
    """Decompose a Hermitian observable into unique outcomes and projectors.

    Eigenvalues whose consecutive gap is ≤ ``cluster_tol`` are chained into a
    single outcome. A chain whose total width exceeds ``cluster_tol`` is
    ambiguous (its members are farther apart than the tolerance that merged
    them) and raises :class:`AmbiguousClustering`.
    """
    w, V = hermitian_eig(F, hermiticity_tol, "observable")
    tol = default_cluster_tol(w) if cluster_tol is None else float(cluster_tol)
    if tol <= 0:
        raise ValueError("cluster_tol must be positive")

    d = len(w)
    boundaries = [0]
    for k in range(1, d):
        if w[k] - w[k - 1] > tol:
            boundaries.append(k)
    boundaries.append(d)

    values, projs, mults = [], [], []
    clustered = False
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        width = w[hi - 1] - w[lo]
        if width > tol:
            raise AmbiguousClustering(
                f"eigenvalue cluster [{w[lo]}, {w[hi - 1]}] is wider ({width:.3e}) "
                f"than cluster_tol {tol:.3e}"
            )
        block = V[:, lo:hi]
        values.append(float(np.mean(w[lo:hi])))
        projs.append(block @ block.conj().T)
        mults.append(hi - lo)
        clustered = clustered or (hi - lo > 1)

    return SpectralDecomposition(
        eigenvalues=np.array(values),
        projectors=np.array(projs),
        multiplicities=tuple(mults),
        dim=d,
        clustered=clustered,
    )


def heisenberg_projectors(sd, H, t):
    """P(f, t) = U†(t) P(f) U(t) for every outcome, stacked as (m, d, d)."""
    if H.shape[0] != sd.dim:
        raise DimensionMismatch(
            f"Hamiltonian dim {H.shape[0]} does not match observable dim {sd.dim}"
        )
    U = propagator(H, t)
    return np.einsum("ji,ajk,kl->ail", U.conj(), sd.projectors, U)
