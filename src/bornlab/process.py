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
(f_1, f_-1, f_2, f_-2, ...). ``_pair_diagonal`` is the one place that writes
einsum subscripts over this layout: it slices the pair diagonal f_- = f, with
one pair optionally left whole, for the Born diagonal and the CM and SF checks.

Every source (a :class:`QuantumSystem` here, a semigroup model in
:mod:`bornlab.qrf`) holds in ``dynamics`` its initial state, observable and a
Schrödinger-picture step, and every QuantumSystem also its eigenframe. One
kernel, ``_table``, builds both table kinds by one of two routes. A closed
system factors as Q_n(f, f_-) = tr[K_f ρ K_{f_-}†] with the prefix operators
K_f = P(f_n)U(Δ_n)…P(f_1)U(Δ_1), so its tables come from one chain of mⁿ⁻¹
operators K_f (``_closed_chain``). A GKLS map does not factor into left and
right chains, so an open system's tables come from the chain of operators
P(f)…ρ…P(f_-), one per prefix for P_n and per pair of prefixes for Q_n
(``_operator_chain``). The sampler's descent reuses the step. A source caches
its maps (U here, Λ in :mod:`bornlab.qrf`), so a command forms each once.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NumericalInvariantViolation, TableTooLarge
from .linalg import (DEFAULT_TOLERANCES, Tolerances, map_cache, propagator, require_density,
                     require_hermitian)
from .spectral import SpectralDecomposition, spectral_decompose
# nothing here calls heisenberg_projectors; it stays bound because perfbench/tracing.py wraps it
from .spectral import heisenberg_projectors  # noqa: F401

DEFAULT_TABLE_CAP = 1_000_000
TABLE_BATCH_BYTES = 2**30  # budget of what a table build or a collapse holds, estimated before it
DEFAULT_JOINT_DIM_CAP = 32
TRACE_TOL = 1e-10  # how far a table total, or a map's trace, may stray from exact
MAX_AXES = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32  # ndarray's limit

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

    @property
    def n(self):
        return len(self.times)

    def prefix(self, n):
        return TimeGrid(self.times[:n])


class Eigenframe(NamedTuple):
    """A closed system in F's eigenbasis W = ``F.basis``, where P(a) keeps the rows ``blocks[a]``.

    ``unitary(gap)`` is W†U(gap)W, read from the source's cache, and ``rho`` is W†ρW.
    """

    unitary: Callable
    rho: np.ndarray
    blocks: list[slice]


class Dynamics(NamedTuple):
    """What the table kernel and the sampler need of a source, built once with it.

    ``step(X, gap)`` evolves a stack of operators X (..., d, d) by ``gap`` in
    the Schrödinger picture, reading the map from the source's cache. A
    QuantumSystem also has its ``eigenframe``, and a GKLS source None: the
    kernel's route follows from it.
    """

    rho: np.ndarray
    F: SpectralDecomposition
    step: Callable
    eigenframe: Eigenframe | None = None


class QuantumSystem:
    """Hamiltonian, decomposed observable, and initial state of one system."""

    def __init__(self, H, F: SpectralDecomposition, rho0):
        self.H, self.F, self.rho0 = H, F, rho0
        # U(gap) = exp(−i gap H), formed once per gap for every table and descent
        cache = self.propagator = map_cache(lambda gap: propagator(H, gap))

        def step(X, gap):
            U = cache(gap)
            return U @ X @ U.conj().T

        W, edges = F.basis, np.cumsum((0,) + F.multiplicities).tolist()
        frame = Eigenframe(map_cache(lambda gap: W.conj().T @ cache(gap) @ W),
                           W.conj().T @ rho0 @ W, [slice(*e) for e in zip(edges, edges[1:])])
        self.dynamics = Dynamics(rho0, F, step, frame)

    @classmethod
    def from_operators(cls, H, F, rho0, tolerances: Tolerances = DEFAULT_TOLERANCES):
        Hm = require_hermitian(H, tolerances.hermiticity, "H")
        sd = spectral_decompose(F, tolerances.cluster, tolerances.hermiticity)
        rho = require_density(rho0, tolerances.density, "rho0")
        if not (Hm.shape[0] == sd.dim == rho.shape[0]):
            raise DimensionMismatch(
                f"inconsistent dims: H {Hm.shape[0]}, F {sd.dim}, rho0 {rho.shape[0]}"
            )
        return cls(H=Hm, F=sd, rho0=rho)

    @property
    def dim(self):
        return self.F.dim


class _Table(NamedTuple):
    grid: TimeGrid
    eigenvalues: np.ndarray
    dist: np.ndarray

    @property
    def n(self):
        return self.grid.n

    @property
    def n_outcomes(self):
        return len(self.eigenvalues)


class BornTable(_Table):
    """Joint distribution over outcome-index tuples, axes chronological."""

    __slots__ = ()

    def clamped(self):
        """Copy with roundoff negatives zeroed (report/sampling boundary)."""
        return np.maximum(self.dist, 0.0)


class BiProbTable(_Table):
    """Two-sided complex table; axes interleaved (f_1, f_-1, f_2, f_-2, ...)."""

    __slots__ = ()

    def diagonal(self):
        """The Born distribution sitting on the diagonal f_- = f."""
        return BornTable(self.grid, self.eigenvalues, _pair_diagonal(self.dist).real)


def _pair_diagonal(dist, free=None):
    """Writable view of the entries f_- = f of an interleaved table, indexed by f; with
    ``free = k`` (0-based) pair k stays whole as the last two axes (..., f_k, f_-k)."""
    n = dist.ndim // 2
    pair = _LETTERS[n:n + 2]  # past every other pair's letter, so none is shared at any n
    subs = "".join(pair if k == free else _LETTERS[k] * 2 for k in range(n))
    out = "".join(_LETTERS[k] for k in range(n) if k != free) + ("" if free is None else pair)
    return np.einsum(subs + "->" + out, dist)


def _check_cap(entries, cap, what):
    if entries > cap:
        raise TableTooLarge(
            f"{what} would hold {entries} entries, exceeding the cap of {cap}"
        )


def readout(F: SpectralDecomposition):
    """(m, d²) rows with readout[a] @ X.ravel() = tr(P(a) X)."""
    P = F.projectors
    return P.transpose(0, 2, 1).reshape(len(P), -1)


def _operator_chain(dyn, times, diagonal, skip):
    """Any source: one operator per outcome prefix, or per pair of prefixes for Q.

    Alternates the step with the projector sandwich X ↦ P(a) X P(b) (b = a
    for Born), so after k times the batch holds mᵏ operators for P_n and
    (m²)ᵏ for Q_n, and contracts the last one to tr(P(a) X).
    """
    P = dyn.F.projectors
    X, prev = dyn.rho[None], 0.0
    for k, t in enumerate(times[:-1]):
        X, prev = dyn.step(X, t - prev), t
        if k != skip:
            left = P @ X[:, None]  # (N, m, d, d): P(a) X
            X = (left @ P if diagonal else left[:, :, None] @ P).reshape(-1, *P.shape[1:])
    X = dyn.step(X, times[-1] - prev)
    return X.reshape(len(X), -1) @ readout(dyn.F).T


def _closed_chain(dyn, times, diagonal, skip):
    """A closed system: the operators A_f = U K_f, one per outcome prefix f.

    In F's eigenbasis P(a) keeps the rows of outcome a. The batch is held as
    (d, N, d), its N operators side by side, so a step is one GEMM per
    outcome over the whole batch: the children by a of every prefix are
    U[:, a] A[a], and the new outcome becomes the leading prefix digit. An
    unmeasured time (``skip``) is one GEMM with every row. The last batch,
    reordered to chronological (N, d, d), is contracted per last outcome a
    as one Gram product Q(g a, g₋ a) = ⟨(A_g₋)_a, (A_g ρ)_a⟩_F, since
    tr(P(a) X P(b)) = δ_ab tr(P(a) X); P_n is its diagonal.
    """
    frame, d, m = dyn.eigenframe, dyn.F.dim, dyn.F.n_outcomes
    n = len(times) - (skip is not None)
    A = frame.unitary(times[0])[:, None]
    for k in range(1, len(times)):
        U = frame.unitary(times[k] - times[k - 1])
        parts = frame.blocks if k - 1 != skip else [slice(0, d)]
        out = np.empty((d, len(parts), A.shape[1] * d), dtype=complex)
        for j, s in enumerate(parts):
            np.matmul(U[:, s], A[s].reshape(s.stop - s.start, -1), out=out[:, j])
        A = out.reshape(d, -1, d)
    N = A.shape[1]
    if N > 1:  # prefix digits from latest-first to chronological
        A = A.reshape((d,) + (m,) * (n - 1) + (d,)).transpose([*range(n - 1, 0, -1), 0, n])
    A = A.reshape(N, d, d)
    Y, Ac = (A.reshape(-1, d) @ frame.rho).reshape(N, d, d), A.conj()
    if diagonal or N == 1:  # with one prefix, Q has only its diagonal last pair: P's traces
        Y *= Ac  # (A ρ A†)_rr = Σ_c (A ρ)_rc conj(A_rc), summed by row, then by outcome
        return np.add.reduceat(Y.sum(-1), [s.start for s in frame.blocks], axis=1)
    gram = np.empty((m, N, N), dtype=complex)
    for a, s in enumerate(frame.blocks):
        np.matmul(Y[:, s].reshape(N, -1), Ac[:, s].reshape(N, -1).T, out=gram[a])
    # (a, g_1 … g_{n-1}, g₋_1 … g₋_{n-1}) → (g_1, g₋_1, …, g_{n-1}, g₋_{n-1}, a)
    order = [axis for k in range(1, n) for axis in (k, n - 1 + k)] + [0]
    return gram.reshape((m,) * (2 * n - 1)).transpose(order).reshape(-1, m)


def working_set_bytes(m, n, d, diagonal, closed):
    """Bytes a Born (``diagonal``) or bi-probability table build of order n holds at its peak.

    The route's last batch holds mⁿ⁻¹ operators on the ``closed`` route and for
    P_n on the operator route, (m²)ⁿ⁻¹ for Q_n there, at most 5 and 3 times
    over (tracemalloc). The table holds P_n's mⁿ traces, or Q_n's m²ⁿ entries
    beside the m²ⁿ⁻¹ traces spread into them (tracemalloc: 1.25–1.5 tables).
    """
    operators = (m if diagonal or closed else m * m) ** (n - 1)
    table = m ** n if diagonal else m ** (2 * n) + m ** (2 * n - 1)
    return ((5 if closed else 3) * operators * d * d + table) * 16


def _table(source, grid: TimeGrid, cap, diagonal, skip=None):
    """Born (``diagonal``) or bi-probability table of any source.

    A QuantumSystem, whose dynamics always has an ``eigenframe``, takes
    ``_closed_chain``, and a GKLS source ``_operator_chain``. Either gives each
    last outcome's traces, so the last pair of Q_n is exactly zero off its
    diagonal. A ``skip`` k < n − 1 passes t_{k+1} unmeasured: the table of the
    grid without it, by its own steps. The entry cap, the axes an ndarray
    holds and the ``working_set_bytes`` of the build (``TABLE_BATCH_BYTES``)
    are checked before it, and the total against tr ρ after it.
    """
    dyn = source.dynamics
    m, times = dyn.F.n_outcomes, grid.times
    if skip is not None:
        grid = TimeGrid(times[:skip] + times[skip + 1:])
    n, what = grid.n, "Born table" if diagonal else "bi-probability table"
    axes = n if diagonal else 2 * n
    _check_cap(m ** axes, cap, what)
    if axes > MAX_AXES:
        raise TableTooLarge(f"{what} would need {axes} axes, more than the {MAX_AXES} "
                            f"an ndarray has in numpy {np.__version__}")
    closed = dyn.eigenframe is not None
    held = working_set_bytes(m, n, dyn.F.dim, diagonal, closed)
    if held > TABLE_BATCH_BYTES:
        raise TableTooLarge(f"{what} would hold about {held} bytes of operators and table while "
                            f"built, exceeding the budget of {TABLE_BATCH_BYTES}")
    chain = _closed_chain if closed else _operator_chain
    traces = chain(dyn, times, diagonal, skip)  # (prefix rows in C order, m)
    if diagonal:
        dist = traces.real.reshape((m,) * n)
    else:
        dist = np.zeros((len(traces), m, m), dtype=complex)
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

