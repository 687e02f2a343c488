"""Trajectory sampling by conditional collapse, one descent for the ensemble.

A trajectory is drawn outcome by outcome: evolve the conditional state to the
next grid time, read the outcome distribution off it, draw, collapse, repeat.
By construction the outcome tuple is distributed exactly as the joint
measurement distribution — for any system, consistent or not. The state
depends only on the outcome prefix, so the ensemble descends at once with one
operator per visited prefix: at most min(N, m^k) at t_k, a working set of
min(N, m^k)·d²·16 bytes per layer. No table is built and no table cap applies.

Reproducibility: trajectory ``j`` of an ensemble on an n-time grid with seed
``s`` takes draws j·n … j·n+n−1 of ``Generator(PCG64(s))`` as its n uniforms,
one per grid time. PCG64 jumps ahead by any number of draws in O(log) steps,
so every row is a function of (s, j) alone, whatever the ensemble size or
generation order, for any index j in [0, 2**64). Ensemble statistics are
reduced with numpy's pairwise summation over the trajectory index order,
which is deterministic for a fixed N.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericalInvariantViolation, TimeOutOfRange
from .linalg import propagator  # noqa: F401  (perfbench/tracing.py wraps sampler.propagator)
from .process import BornTable, TimeGrid, dynamics, readout

RNG_ALGORITHM = "numpy.random.PCG64(seed), trajectory j advanced by j*n draws"


def _slot(grid: TimeGrid, t):
    """Index of the grid value in force at t; the first extends back to 0."""
    times = grid.times
    if t < 0 or t > times[-1]:
        raise TimeOutOfRange(f"t={t} outside trajectory domain [0, {times[-1]}]")
    return max(int(np.searchsorted(times, t, side="right")) - 1, 0)


class Trajectory(NamedTuple):
    """Piecewise-constant outcome path on a grid, one outcome per grid time.

    ``values[k]`` is the eigenvalue measured at ``grid.times[k]``; it is held
    on [t_{k+1}, t_{k+2}) and the first value extends back to 0, so the path
    is defined on [0, t_n]. ``indices`` are the outcome indices into the
    observable's decomposition.
    """

    grid: TimeGrid
    indices: tuple[int, ...]
    values: tuple[float, ...]


class Ensemble(NamedTuple):
    """Independently sampled trajectories on a shared grid.

    ``indices[j, k]`` is trajectory j's outcome index into ``eigenvalues`` at
    ``grid.times[k]``.
    """

    grid: TimeGrid
    indices: np.ndarray
    eigenvalues: np.ndarray

    @property
    def size(self):
        return len(self.indices)

    @property
    def trajectories(self):
        # built on demand for sample_trajectory, perfbench/tracing.py and the
        # tests; the descent, CSV export and surrogate average read ``indices``
        values = self.eigenvalues.tolist()
        return tuple(Trajectory(self.grid, tuple(row), tuple(values[k] for k in row))
                     for row in self.indices.tolist())


def _uniforms(seed, start, count, n):
    """The n uniforms of trajectories start … start+count−1, one row each.

    Row r holds draws j·n … j·n+n−1 of ``Generator(PCG64(seed))`` for
    j = start + r, reached by jumping the stream ahead. Indices must lie in
    [0, 2**64).
    """
    if seed < 0 or not 0 <= start <= 2**64 - count:
        raise ValueError("the seed must be a non-negative integer and trajectory "
                         "indices integers in [0, 2**64)")
    bits = np.random.PCG64(seed)
    bits.advance(start * n)
    return np.random.Generator(bits).random((count, n))


def _descend(source, grid: TimeGrid, u):
    """Ensemble whose trajectory j is drawn by inverse CDF with the uniforms u[j].

    Roundoff negatives are clamped for the draw; the collapse renormalizes by
    the unclamped probability, so states do not underflow on long grids.
    """
    dyn = dynamics(source)
    P, m = dyn.F.projectors, dyn.F.n_outcomes
    rows = readout(dyn.F).T
    X, node = dyn.rho[None], np.zeros(len(u), dtype=np.intp)
    indices = np.empty(u.shape, dtype=np.intp)
    prev = 0.0
    for k, t in enumerate(grid.times):
        X = dyn.step(X, t - prev)
        p = (X.reshape(len(X), -1) @ rows).real  # (prefixes, m)
        w = np.maximum(p, 0.0)
        total = w.sum(axis=1)
        if not np.all(np.isfinite(total) & (total > 0)):
            raise NumericalInvariantViolation(f"outcome total {total.min()} at t={t}; cannot draw")
        cdf = np.cumsum(w / total[:, None], axis=1)
        a = (cdf[node] <= u[:, k, None]).sum(axis=1).clip(0, m - 1)
        indices[:, k] = a
        if k + 1 < grid.n:
            pairs, node = np.unique(node * m + a, return_inverse=True)
            parent, a = np.divmod(pairs, m)
            X = P[a] @ X[parent] @ P[a] / p[parent, a][:, None, None]
        prev = t
    return Ensemble(grid, indices, np.array(dyn.F.eigenvalues, dtype=float))


def sample_trajectory(source, grid: TimeGrid, seed, index=0):
    """Draw one trajectory; deterministic in (source, grid, seed, index)."""
    return _descend(source, grid, _uniforms(seed, index, 1, grid.n)).trajectories[0]


def sample_ensemble(source, grid: TimeGrid, size, seed):
    """Draw ``size`` independent trajectories, rows 0 … size−1 of the seed's stream."""
    if size < 1:
        raise ValueError("ensemble size must be ≥ 1")
    return _descend(source, grid, _uniforms(seed, 0, size, grid.n))


def rank_histories(indices, m):
    """Distinct rows of an (N, k) outcome-index array and each row's rank among them.

    Equal to ``np.unique(indices, axis=0, return_inverse=True)``: the distinct
    rows in lexicographic order and, for each row, the position of its
    distinct row. Indices must lie in [0, m). Rows are ranked one column at a
    time, as the descent numbers its prefixes, so every sort is 1-D instead of
    a sort of void rows.
    """
    rank = np.zeros(len(indices), dtype=np.intp)
    for column in indices.T:
        _, rank = np.unique(rank * m + column, return_inverse=True)
    first = np.empty(rank.max() + 1, dtype=np.intp)
    first[rank] = np.arange(len(indices))
    return indices[first], rank


def empirical_joint(ens: Ensemble):
    """Frequency table of outcome tuples, normalized over the ensemble."""
    m, n = len(ens.eigenvalues), ens.grid.n
    counts = np.zeros((m,) * n)
    np.add.at(counts, tuple(ens.indices.T), 1.0)
    return BornTable(ens.grid, ens.eigenvalues.copy(), counts / ens.size)


def export_csv(ens: Ensemble, stream):
    """Write the documented trajectory CSV: header t_1..t_n, eigenvalue rows.

    Values use shortest round-trip decimal (repr); byte-identical for equal
    ensembles. Each distinct history is formatted once and its line repeated
    in trajectory order.
    """
    labels = [repr(float(v)) for v in ens.eigenvalues]
    stream.write(",".join(f"t_{k + 1}" for k in range(ens.grid.n)) + "\n")
    histories, rank = rank_histories(ens.indices, len(labels))
    lines = [",".join([labels[k] for k in row]) + "\n" for row in histories.tolist()]
    stream.write("".join([lines[r] for r in rank.tolist()]))

