"""Trajectory sampling by conditional collapse, one descent for the ensemble.

A trajectory is drawn outcome by outcome: evolve the conditional state to the
next grid time, read the outcome distribution off it, draw, collapse, repeat.
By construction the outcome tuple is distributed exactly as the joint
measurement distribution — for any system, consistent or not. The state
depends only on the outcome prefix, so the ensemble descends at once with one
operator per visited prefix: at most min(N, m^k) at t_k, a working set of
min(N, m^k)·d²·16 bytes per layer. No table is built and no table cap applies.

Reproducibility: trajectory ``j`` of an ensemble with base seed ``s`` draws
its k-th outcome with the k-th uniform of ``numpy.random.Philox`` seeded by
``SeedSequence(entropy=s, spawn_key=(j,))`` (a counter-based generator with
splittable derived streams), so ensembles are reproducible regardless of
generation order. Ensemble statistics are reduced with numpy's pairwise
summation over the trajectory index order, which is deterministic for a
fixed N.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import NumericalInvariantViolation, TimeOutOfRange
from .linalg import propagator  # noqa: F401  (perfbench/tracing.py wraps sampler.propagator)
from .process import BornTable, TimeGrid, dynamics, readout

RNG_ALGORITHM = (
    "numpy.random.Philox (philox4x64-10), "
    "SeedSequence(entropy=seed, spawn_key=(trajectory_index,))"
)


def _slot(grid: TimeGrid, t):
    """Index of the grid value in force at t; the first extends back to 0."""
    times = grid.times
    if t < 0 or t > times[-1]:
        raise TimeOutOfRange(f"t={t} outside trajectory domain [0, {times[-1]}]")
    return max(int(np.searchsorted(times, t, side="right")) - 1, 0)


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-constant outcome path on a grid.

    ``values[k]`` is the eigenvalue measured at ``grid.times[k]``; it is held
    on [t_{k+1}, t_{k+2}) and the first value extends back to 0, so the path
    is defined on [0, t_n]. ``indices`` are the outcome indices into the
    observable's decomposition.
    """

    grid: TimeGrid
    indices: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.indices) != self.grid.n or len(self.values) != self.grid.n:
            raise ValueError("trajectory length must match its grid")

    def value_at(self, t):
        return self.values[_slot(self.grid, t)]


@dataclass(frozen=True)
class Ensemble:
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
        # built on demand for tests, perfbench/tracing.py and sample_trajectory;
        # surrogate_average walks ``indices`` directly
        values = self.eigenvalues.tolist()
        return tuple(Trajectory(self.grid, tuple(row), tuple(values[k] for k in row))
                     for row in self.indices.tolist())


def trajectory_rng(seed, index=0):
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.Philox(ss))


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
    return _descend(source, grid, trajectory_rng(seed, index).random((1, grid.n))).trajectories[0]


def sample_ensemble(source, grid: TimeGrid, size, seed):
    """Draw ``size`` independent trajectories with derived per-index seeds."""
    if size < 1:
        raise ValueError("ensemble size must be ≥ 1")
    u = np.empty((size, grid.n))
    for j in range(size):
        trajectory_rng(seed, j).random(out=u[j])
    return _descend(source, grid, u)


def empirical_joint(ens: Ensemble):
    """Frequency table of outcome tuples, normalized over the ensemble."""
    m, n = len(ens.eigenvalues), ens.grid.n
    counts = np.zeros((m,) * n)
    np.add.at(counts, tuple(ens.indices.T), 1.0)
    return BornTable(ens.grid, ens.eigenvalues.copy(), counts / ens.size)


def autocorrelation(ens: Ensemble, t, s):
    """(1/N) Σ_j f_j(t) f_j(s) using piecewise-constant interpolation."""
    kt, ks = _slot(ens.grid, t), _slot(ens.grid, s)
    f = ens.eigenvalues
    return float((f[ens.indices[:, kt]] * f[ens.indices[:, ks]]).mean())


def export_csv(ens: Ensemble, stream):
    """Write the documented trajectory CSV: header t_1..t_n, eigenvalue rows.

    Values use shortest round-trip decimal (repr); byte-identical for equal
    ensembles.
    """
    labels = [repr(float(v)) for v in ens.eigenvalues]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow([f"t_{k + 1}" for k in range(ens.grid.n)])
    writer.writerows([labels[k] for k in row] for row in ens.indices.tolist())


def switching_fraction(ens: Ensemble):
    """Fraction of consecutive-readout pairs whose value changed."""
    flips = int(np.count_nonzero(np.diff(ens.indices, axis=1)))
    total = ens.indices[:, 1:].size
    return flips / total if total else 0.0
