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
generation order. No generator object is built: both stages are integer
functions of (s, j), so the uniforms are computed in closed form over whole
arrays of trajectories, bit-equal to numpy's objects, for any index j in
[0, 2**64). Ensemble statistics are reduced with numpy's pairwise summation over the
trajectory index order, which is deterministic for a fixed N.
"""

from __future__ import annotations

import operator
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
        # built on demand for sample_trajectory, perfbench/tracing.py and the
        # tests; the descent, CSV export and surrogate average read ``indices``
        values = self.eigenvalues.tolist()
        return tuple(Trajectory(self.grid, tuple(row), tuple(values[k] for k in row))
                     for row in self.indices.tolist())


# SeedSequence's hash constants (numpy/random/bit_generator.pyx); its pool holds 4 words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
# Philox4x64-10 round multipliers and Weyl key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROWS = 1024  # rows per pass: the integer temporaries stay near 0.5 MB beside the output


def _hasher(h, mult):
    """SeedSequence's hashmix, which advances its constant h on every call."""
    def hashmix(value):
        nonlocal h
        value = (value ^ h) * (h := h * mult & _M32)  # xor with h, multiply by the next h
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ r >> 16


def _philox_keys(seed, j):
    """Key words (k0, k1) of ``Philox(SeedSequence(entropy=seed, spawn_key=(j,)))``.

    A spawn key pads the seed's 32-bit words to the pool size, so the pool is
    hashed and mixed from seed words alone; then every further word (seed
    words beyond 4, then the low word of j and, for j ≥ 2**32 only, its high
    word) is mixed into each pool word, and ``generate_state(2, uint64)``
    hashes the pool into the key.
    """
    run = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words = [np.array([w], np.uint32) for w in run + [0] * (4 - len(run))]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:] + [j.astype(np.uint32)]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    high = (j >> 32).astype(np.uint32)
    for dst in range(4):  # the hash constants advance for every row alike
        pool[dst] = np.where(high > 0, _mix(pool[dst], hashmix(high)), pool[dst])
    hashmix = _hasher(_INIT_B, _MULT_B)
    k = [hashmix(w).astype(np.uint64) for w in pool]
    return k[0] | k[1] << 32, k[2] | k[3] << 32


def _mulhilo(a, b):
    """High and low words of the 128-bit product of the constant a and the uint64 array b."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    cross0, cross1 = a0 * b1, a1 * b0
    carry = (a0 * b0 >> 32) + (cross0 & _M32) + (cross1 & _M32)
    return a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (carry >> 32), a * b


def _philox(k0, k1, blocks):
    """Philox4x64-10 at counters (b+1, 0, 0, 0) for b < blocks: shape (rows, 4·blocks)."""
    x0 = np.arange(1, blocks + 1, dtype=np.uint64)[None]
    x1 = x2 = x3 = np.zeros_like(x0)
    k0, k1 = k0[:, None], k1[:, None]
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
        k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
    return np.stack((x0, x1, x2, x3), axis=-1).reshape(len(k0), 4 * blocks)


def _uniforms(seed, indices, n):
    """Row r holds the first n doubles of trajectory j = ``indices[r]``'s stream.

    Equal bit for bit to ``Generator(Philox(SeedSequence(entropy=seed,
    spawn_key=(j,)))).random(n)``, computed _ROWS rows at a time in uint32
    (SeedSequence) and uint64 (Philox) integer arithmetic. Indices must lie
    in [0, 2**64).
    """
    seed, j = operator.index(seed), np.asarray(indices)
    if seed < 0 or j.dtype.kind not in "iu" or (j.size and j.min() < 0):
        raise ValueError("the seed must be a non-negative integer and trajectory "
                         "indices integers in [0, 2**64)")
    j, u = j.astype(np.uint64), np.empty((len(j), n))
    for lo in range(0, len(j), _ROWS):
        x = _philox(*_philox_keys(seed, j[lo:lo + _ROWS]), -(-n // 4))
        u[lo:lo + _ROWS] = (x[:, :n] >> 11) * 2.0**-53
    return u


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
    return _descend(source, grid, _uniforms(seed, [index], grid.n)).trajectories[0]


def sample_ensemble(source, grid: TimeGrid, size, seed):
    """Draw ``size`` independent trajectories with derived per-index seeds."""
    if size < 1:
        raise ValueError("ensemble size must be ≥ 1")
    return _descend(source, grid, _uniforms(seed, np.arange(size), grid.n))


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

