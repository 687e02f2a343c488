"""Multi-time measurement statistics of a quantum system on a time grid.

A sequence of projective measurements of F at times 0 < t_1 < ... < t_n is
described by the joint distribution

    P_n(f_n..f_1) = tr[ P(f_n,t_n)...P(f_1,t_1) ρ P(f_1,t_1)...P(f_n,t_n) ]

and its two-sided complex generalization with independent left/right
projector sequences

    Q_n(f, f_-) = tr[ P(f_n,t_n)...P(f_1,t_1) ρ P(f_-1,t_1)...P(f_-n,t_n) ]

where P(f,t) = U†(t) P(f) U(t). Tables are stored as dense ndarrays over
outcome-index tuples ordered chronologically: axis k of a Born table is the
outcome at t_{k+1}; a bi-probability table interleaves left/right axes as
(f_1, f_-1, f_2, f_-2, ...).

Every source (a :class:`QuantumSystem` here, a semigroup model in
:mod:`bornlab.qrf`) is reduced by :func:`dynamics` to its initial state,
observable and a Schrödinger-picture step; one kernel builds both table
kinds from those, and the sampler's descent reuses the same step. A source
caches its maps (U here, Λ in :mod:`bornlab.qrf`), so a command forms each once.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, NumericalInvariantViolation, TableTooLarge
from .linalg import (DEFAULT_TOLERANCES, Tolerances, map_cache, propagator, require_density,
                     require_hermitian)
from .spectral import SpectralDecomposition, spectral_decompose
# nothing here calls heisenberg_projectors; it stays bound because perfbench/tracing.py wraps it
from .spectral import heisenberg_projectors  # noqa: F401

DEFAULT_TABLE_CAP = 1_000_000
DEFAULT_JOINT_DIM_CAP = 32
TRACE_TOL = 1e-10  # how far a table total, or a map's trace, may stray from exact

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


class TimeGrid:
    """Strictly increasing positive measurement times t_1 < ... < t_n."""

    def __init__(self, times):
        ts = tuple(float(t) for t in times)
        if len(ts) < 1:
            raise ValueError("a time grid needs at least one time")
        if not all(np.isfinite(ts)):
            raise ValueError("grid times must be finite")
        if ts[0] <= 0 or any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"grid times must satisfy 0 < t_1 < ... < t_n, got {ts}")
        self.times = ts

    def __eq__(self, other):
        return isinstance(other, TimeGrid) and self.times == other.times

    def __hash__(self):
        return hash(self.times)

    @property
    def n(self):
        return len(self.times)

    def without(self, position):
        """Grid with the 1-based position removed (needs n ≥ 2)."""
        if not 1 <= position <= self.n:
            raise IndexOutOfRange(f"position {position} outside 1..{self.n}")
        if self.n < 2:
            raise IndexOutOfRange("cannot remove a time from a single-time grid")
        return TimeGrid(self.times[: position - 1] + self.times[position:])

    def prefix(self, n):
        return TimeGrid(self.times[:n])


class QuantumSystem:
    """Hamiltonian, decomposed observable, and initial state of one system."""

    def __init__(self, H, F: SpectralDecomposition, rho0):
        self.H, self.F, self.rho0 = H, F, rho0
        # U(gap) = exp(−i gap H), formed once per gap for every table and descent
        self.propagator = map_cache(lambda gap: propagator(H, gap))

    @classmethod
    def from_operators(cls, H, F, rho0, tolerances: Tolerances = DEFAULT_TOLERANCES):
        Hm = require_hermitian(H, tolerances.hermiticity, "H")
        sd = F if isinstance(F, SpectralDecomposition) else spectral_decompose(
            F, tolerances.cluster, tolerances.hermiticity
        )
        rho = require_density(rho0, tolerances.density, "rho0")
        if not (Hm.shape[0] == sd.dim == rho.shape[0]):
            raise DimensionMismatch(
                f"inconsistent dims: H {Hm.shape[0]}, F {sd.dim}, rho0 {rho.shape[0]}"
            )
        return cls(H=Hm, F=sd, rho0=rho)

    @property
    def dim(self):
        return self.F.dim


class BornTable(NamedTuple):
    """Joint distribution over outcome-index tuples, axes chronological."""

    grid: TimeGrid
    eigenvalues: np.ndarray
    dist: np.ndarray

    @property
    def n(self):
        return self.grid.n

    @property
    def n_outcomes(self):
        return len(self.eigenvalues)

    def clamped(self):
        """Copy with roundoff negatives zeroed (report/sampling boundary)."""
        return np.maximum(self.dist, 0.0)


class BiProbTable(NamedTuple):
    """Two-sided complex table; axes interleaved (f_1, f_-1, f_2, f_-2, ...)."""

    grid: TimeGrid
    eigenvalues: np.ndarray
    dist: np.ndarray

    @property
    def n(self):
        return self.grid.n

    @property
    def n_outcomes(self):
        return len(self.eigenvalues)

    def diagonal(self):
        """The Born distribution sitting on the diagonal f_- = f."""
        return BornTable(self.grid, self.eigenvalues, _pair_diagonal(self.dist).real)


def _pair_diagonal(dist):
    """Writable view of the entries f_- = f of an interleaved table, indexed by f."""
    out = _LETTERS[:dist.ndim // 2]
    return np.einsum("".join(c * 2 for c in out) + "->" + out, dist)


def _check_cap(entries, cap, what):
    if entries > cap:
        raise TableTooLarge(
            f"{what} would hold {entries} entries, exceeding the cap of {cap}"
        )


class Dynamics(NamedTuple):
    """What the table kernel and the sampler need of a source.

    ``step(X, gap)`` evolves a stack of operators X (..., d, d) by ``gap`` in
    the Schrödinger picture, reading the map from the source's cache.
    """

    rho: np.ndarray
    F: SpectralDecomposition
    step: Callable


@functools.singledispatch
def dynamics(source):
    """The one dispatch point from a table source to its :class:`Dynamics`."""
    raise TypeError(f"no dynamics registered for {type(source).__name__}")


@dynamics.register
def _(sys: QuantumSystem):
    def step(X, gap):
        U = sys.propagator(gap)
        return U @ X @ U.conj().T

    return Dynamics(sys.rho0, sys.F, step)


def readout(F: SpectralDecomposition):
    """(m, d²) rows with readout[a] @ X.ravel() = tr(P(a) X)."""
    P = F.projectors
    return P.transpose(0, 2, 1).reshape(len(P), -1)


def _table(source, grid: TimeGrid, cap, diagonal):
    """Born (``diagonal``) or bi-probability table of any source.

    Alternates the source's step with the projector sandwich
    X ↦ P(a) X P(b) (b = a for Born) over a batch of operators, so the batch
    holds one operator per outcome prefix. The last layer is contracted
    straight to tr(P(a) X), since tr(P(a) X P(b)) = δ_ab tr(P(a) X).
    """
    dyn = dynamics(source)
    P, m, n = dyn.F.projectors, dyn.F.n_outcomes, grid.n
    what = "Born table" if diagonal else "bi-probability table"
    _check_cap(m ** (n if diagonal else 2 * n), cap, what)
    X, prev = dyn.rho[None], 0.0
    for t in grid.times[:-1]:
        left = P @ dyn.step(X, t - prev)[:, None]  # (N, m, d, d): P(a) X
        X = (left @ P if diagonal else left[:, :, None] @ P).reshape(-1, *P.shape[1:])
        prev = t
    X = dyn.step(X, grid.times[-1] - prev)
    traces = X.reshape(len(X), -1) @ readout(dyn.F).T  # (N, m)
    if diagonal:
        dist = traces.real.reshape((m,) * n)
    else:
        dist = np.zeros((len(X), m, m), dtype=complex)
        dist[:, range(m), range(m)] = traces
        dist = dist.reshape((m, m) * n)
    total, trace = dist.sum(), np.trace(dyn.rho).real
    if not np.isfinite(total) or abs(total - trace) > TRACE_TOL:
        raise NumericalInvariantViolation(
            f"{what} total {total} differs from tr ρ = {trace} beyond {TRACE_TOL}"
        )
    return (BornTable if diagonal else BiProbTable)(grid, dyn.F.eigenvalues.copy(), dist)


def born_table(source, grid: TimeGrid, cap=DEFAULT_TABLE_CAP):
    """Joint measurement distribution P_n for any table source."""
    return _table(source, grid, cap, diagonal=True)


def biprob_table(source, grid: TimeGrid, cap=DEFAULT_TABLE_CAP):
    """Bi-probability table Q_n for any table source."""
    return _table(source, grid, cap, diagonal=False)

