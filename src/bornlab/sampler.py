"""Trajectory sampling by the conditional-collapse chain.

A trajectory is drawn outcome by outcome: evolve the (possibly collapsed)
state to the next grid time, read the outcome distribution off the current
state, draw, collapse, repeat. By construction the outcome tuple is
distributed exactly as the joint measurement distribution — for any system,
consistent or not.

Reproducibility: trajectory ``j`` of an ensemble with base seed ``s`` uses
``numpy.random.Philox`` seeded by ``SeedSequence(entropy=s, spawn_key=(j,))``
(a counter-based generator with splittable derived streams), so ensembles
are reproducible regardless of generation order. Ensemble statistics are
reduced with numpy's pairwise summation over the trajectory index order,
which is deterministic for a fixed N.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import TimeOutOfRange
from .linalg import propagator  # noqa: F401  (perfbench/tracing.py wraps sampler.propagator)
from .process import BornTable, TimeGrid, dynamics, readout

RNG_ALGORITHM = (
    "numpy.random.Philox (philox4x64-10), "
    "SeedSequence(entropy=seed, spawn_key=(trajectory_index,))"
)


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
        times = self.grid.times
        if t < 0 or t > times[-1]:
            raise TimeOutOfRange(f"t={t} outside trajectory domain [0, {times[-1]}]")
        k = int(np.searchsorted(times, t, side="right")) - 1
        return self.values[max(k, 0)]

    def segments(self, t):
        """(value, duration) pieces covering [0, t], t ≤ t_n."""
        times = self.grid.times
        if t < 0 or t > times[-1]:
            raise TimeOutOfRange(f"t={t} outside trajectory domain [0, {times[-1]}]")
        bounds = [0.0] + [u for u in times[1:] if u < t] + [t]
        out = []
        for k in range(len(bounds) - 1):
            dur = bounds[k + 1] - bounds[k]
            if dur > 0:
                out.append((self.values[k], dur))
        return out


@dataclass(frozen=True)
class Ensemble:
    """Independently sampled trajectories on a shared grid."""

    grid: TimeGrid
    trajectories: tuple[Trajectory, ...]
    seed: int
    eigenvalues: np.ndarray

    @property
    def size(self):
        return len(self.trajectories)


def trajectory_rng(seed, index=0):
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.Philox(ss))


class MeasurementChain:
    """Conditional-collapse chain of any table source.

    Steps the state with the source's ``step`` and reads and collapses it as
    a flat vector: p = readout @ x and x ↦ collapse[k] @ x / p[k], with
    collapse[k] = kron(P(k), P(k)ᵀ) the row-major form of X ↦ P(k) X P(k).
    """

    def __init__(self, source):
        dyn = dynamics(source)
        self.eigenvalues = dyn.F.eigenvalues
        self._rho, self._step = dyn.rho, dyn.step
        self._readout = readout(dyn.F)
        self._collapse = np.array([np.kron(P, P.T) for P in dyn.F.projectors])

    def sample(self, grid: TimeGrid, rng):
        X, d = self._rho, self._rho.shape[0]
        prev = 0.0
        idx = []
        for t in grid.times:
            x = self._step(X, t - prev).reshape(-1)
            p = (self._readout @ x).real
            k = _draw(rng, p)  # only outcomes with positive probability are drawable
            X = (self._collapse[k] @ x / p[k]).reshape(d, d)
            idx.append(k)
            prev = t
        values = tuple(float(self.eigenvalues[k]) for k in idx)
        return Trajectory(grid=grid, indices=tuple(idx), values=values)


def _draw(rng, probs):
    """Inverse-CDF draw; roundoff negatives clamped at this boundary."""
    p = np.maximum(probs, 0.0)
    total = p.sum()
    cdf = np.cumsum(p / total)
    return int(np.searchsorted(cdf, rng.random(), side="right").clip(0, len(p) - 1))


def sample_trajectory(source, grid: TimeGrid, seed, index=0):
    """Draw one trajectory; deterministic in (source, grid, seed, index)."""
    return MeasurementChain(source).sample(grid, trajectory_rng(seed, index))


def sample_ensemble(source, grid: TimeGrid, size, seed):
    """Draw ``size`` independent trajectories with derived per-index seeds."""
    if size < 1:
        raise ValueError("ensemble size must be ≥ 1")
    chain = MeasurementChain(source)
    return Ensemble(
        grid=grid,
        trajectories=tuple(chain.sample(grid, trajectory_rng(seed, j)) for j in range(size)),
        seed=int(seed),
        eigenvalues=np.array(chain.eigenvalues, dtype=float),
    )


def empirical_joint(ens: Ensemble):
    """Frequency table of outcome tuples, normalized over the ensemble."""
    m, n = len(ens.eigenvalues), ens.grid.n
    counts = np.zeros((m,) * n)
    for traj in ens.trajectories:
        counts[traj.indices] += 1.0
    return BornTable(ens.grid, ens.eigenvalues.copy(), counts / ens.size)


def autocorrelation(ens: Ensemble, t, s):
    """(1/N) Σ_j f_j(t) f_j(s) using piecewise-constant interpolation."""
    vals = np.array([traj.value_at(t) * traj.value_at(s) for traj in ens.trajectories])
    return float(vals.mean())


def export_csv(ens: Ensemble, stream):
    """Write the documented trajectory CSV: header t_1..t_n, eigenvalue rows.

    Values use shortest round-trip decimal (repr); byte-identical for equal
    ensembles.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow([f"t_{k + 1}" for k in range(ens.grid.n)])
    for traj in ens.trajectories:
        writer.writerow([repr(v) for v in traj.values])


def switching_fraction(ens: Ensemble):
    """Fraction of consecutive-readout pairs whose value changed."""
    flips = total = 0
    for traj in ens.trajectories:
        for a, b in itertools.pairwise(traj.indices):
            flips += a != b
            total += 1
    return flips / total if total else 0.0
