"""Trajectory sampling by conditional collapse, one descent for the ensemble.

A trajectory is drawn outcome by outcome: evolve the conditional state to the
next grid time, read the outcome distribution off it, draw, collapse, repeat.
By construction the outcome tuple is distributed exactly as the joint
measurement distribution — for any system, consistent or not. The state
depends only on the outcome prefix, so the ensemble descends at once with one
operator per visited prefix: at most min(N, m^k) at t_k, a working set of
min(N, m^k)·d²·16 bytes per layer. A collapse gathers the states and the
projectors by ``take``, once each. No table is built and no table cap
applies; the prefixes a collapse visits are counted against
``TABLE_BATCH_BYTES``.
Only the descent ranks prefixes, with no sort: one pass over the N keys and a
mask of prefixes·m per layer. The ensemble keeps this prefix tree for its readers.

Reproducibility: trajectory ``j`` of an ensemble on an n-time grid with seed
``s`` takes draws j·n … j·n+n−1 of ``Generator(PCG64(s))`` as its n uniforms,
one per grid time. PCG64 jumps ahead by any number of draws in O(log) steps,
so every row is a function of (s, j) alone, whatever the ensemble size or
generation order, for any index j in [0, 2**64). The stream is computed in
numpy integer arithmetic, a block at a time in four preallocated uint64
buffers, so no command imports ``numpy.random``. Ensemble
statistics are reduced over the trajectory index order, in sequence along
axis 0 of the (N, …) stack, which is deterministic for a fixed N.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

from .errors import NumericalInvariantViolation, TableTooLarge, TimeOutOfRange
from .linalg import propagator  # noqa: F401  (perfbench/tracing.py wraps sampler.propagator)
from .process import TABLE_BATCH_BYTES, TimeGrid, readout

RNG_ALGORITHM = "numpy.random.PCG64(seed), trajectory j advanced by j*n draws"
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_COLUMNS, _BLOCK_ROWS = 256, 64  # a block of uniforms: 64 rows of 256 draws


def _slot(grid: TimeGrid, t):
    """Index of the grid value in force at t; the first extends back to 0."""
    times = grid.times
    if not 0 <= t <= times[-1]:
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
    """Independently sampled trajectories on a shared grid, and their prefix tree.

    ``indices[j, k]`` is trajectory j's outcome index into ``eigenvalues`` at
    ``grid.times[k]``. ``prefixes[k]`` holds the codes parent·m + a of the
    distinct prefixes up to ``grid.times[k]`` in ascending, so lexicographic,
    order; a parent is a number at level k − 1 (0 at level 0), an index into
    ``prefixes[k − 1]``. ``rank[j]`` is trajectory j's number at the last level.
    """

    grid: TimeGrid
    indices: np.ndarray
    eigenvalues: np.ndarray
    prefixes: tuple[np.ndarray, ...]
    rank: np.ndarray

    @property
    def size(self):
        return len(self.indices)

    def ranks(self, level):
        """Each trajectory's number among the prefixes of ``level``, its parents followed down."""
        up = np.arange(len(self.prefixes[-1]))
        for codes in self.prefixes[:level:-1]:
            up = (codes // len(self.eigenvalues)).take(up)
        return up.take(self.rank)

    @property
    def trajectories(self):
        # built on demand for perfbench/tracing.py and the tests; the CSV export
        # and the surrogate walk read the arrays
        values = self.eigenvalues.tolist()
        return tuple(Trajectory(self.grid, tuple(row), tuple(values[k] for k in row))
                     for row in self.indices.tolist())


def _hashmix(h, mult):
    """numpy's SeedSequence hash of 32-bit words, whose constant h moves on by mult per word."""
    def hashmix(value):
        nonlocal h
        value, h = value ^ h, h * mult & _M32
        value = value * h & _M32
        return value ^ value >> 16
    return hashmix


def _seed_state(seed):
    """PCG64's (state, increment) after ``PCG64(seed)``, in Python ints: numpy's
    ``SeedSequence(seed).generate_state(4, uint64)`` and PCG64's srandom step."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src, dst in [(i, j) for i in range(4) for j in range(4) if i != j]:
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word, dst in [(w, j) for w in words[4:] for j in range(4)]:
        pool[dst] = mix(pool[dst], hashmix(word))
    out = list(map(_hashmix(0x8B51F9DD, 0x58F38DED), pool * 2))
    init, seq = (sum(out[i + k] << 32 * (k ^ 2) for k in range(4)) for i in (0, 4))
    inc = (seq << 1 | 1) & _M128
    return ((inc + init) * _PCG_MULT + inc) & _M128, inc


def _jump(steps, inc):
    """The LCG's map after ``steps`` steps, state ↦ A·state + C mod 2**128, by binary powering."""
    A, C, a, c = 1, 0, _PCG_MULT, inc
    while steps:
        if steps & 1:
            A, C = A * a & _M128, (C * a + c) & _M128
        a, c = a * a & _M128, (a + 1) * c & _M128
        steps >>= 1
    return A, C


def _halves(values):
    """Low and high 64-bit words of 128-bit Python ints, as uint64 arrays."""
    return (np.array([v & _M64 for v in values], dtype=np.uint64),
            np.array([v >> 64 for v in values], dtype=np.uint64))


def _uniforms(seed, start, count, n):
    """Draws j·n … j·n+n−1 of ``Generator(PCG64(seed))`` as row j − start, bit for bit.

    PCG64 is a 128-bit LCG with XSL-RR output (O'Neill 2014); k steps are one
    affine map s ↦ A·s + C mod 2**128 (Brown 1994). After the jump to draw
    start·n, draw q·B + r is base state s_q under the (r+1)-step map: Python
    ints for the states and the B = ``_COLUMNS`` maps, a 128-bit multiply-add
    in uint64 halves per draw, ``_BLOCK_ROWS`` rows at a time in four
    preallocated uint64 buffers, with in-place operations. Seed and indices
    are integers (numpy's too), indices in [0, 2**64).
    """
    try:
        seed, start = operator.index(seed), operator.index(start)
    except TypeError:
        raise ValueError("the seed and trajectory indices must be integers") from None
    if seed < 0 or not 0 <= start <= 2**64 - count:
        raise ValueError("the seed must be a non-negative integer and trajectory "
                         "indices integers in [0, 2**64)")
    state, inc = _seed_state(seed)
    A, C = _jump(start * n, inc)
    state, total = (A * state + C) & _M128, count * n
    width, maps, A, C = min(_COLUMNS, total) or 1, [], 1, 0
    for _ in range(width):  # maps[r] takes a row's base state to the state of its draw r
        A, C = A * _PCG_MULT & _M128, (C * _PCG_MULT + inc) & _M128
        maps.append((A, C))
    (a_lo, a_hi), (c_lo, c_hi) = (_halves(column) for column in zip(*maps))
    a0, a1 = a_lo & _M32, a_lo >> 32
    out = np.empty(total)
    buffers = np.empty((4, min(_BLOCK_ROWS, -(-total // width)), width), dtype=np.uint64)
    for begin in range(0, total, width * _BLOCK_ROWS):
        rows = []
        for _ in range(min(_BLOCK_ROWS, -(-(total - begin) // width))):
            rows.append(state)
            state = (A * state + C) & _M128  # the next row, ``width`` steps on
        s_lo, s_hi = (h[:, None] for h in _halves(rows))
        s0, s1 = s_lo & _M32, s_lo >> 32
        w, hi, lo, tmp = buffers[:, :len(rows)]
        # a_lo·s_lo's high word from 32-bit partial products: w = (a0·s0 >> 32) + a1·s0, then
        # hi = (w >> 32) + ((w & M32) + a0·s1 >> 32) + a1·s1 + a_lo·s_hi + a_hi·s_lo + c_hi
        np.multiply(a0, s0, out=w)
        w >>= 32
        w += np.multiply(a1, s0, out=tmp)
        np.bitwise_and(w, _M32, out=hi)
        hi += np.multiply(a0, s1, out=tmp)
        hi >>= 32
        w >>= 32
        hi += w
        hi += np.multiply(a1, s1, out=tmp)
        hi += np.multiply(a_lo, s_hi, out=tmp)
        hi += np.multiply(a_hi, s_lo, out=tmp)
        hi += c_hi
        np.multiply(a_lo, s_lo, out=lo)
        lo += c_lo
        hi += np.less(lo, c_lo, out=tmp)  # the carry
        lo ^= hi  # XSL-RR: the folded word rotated right by the top 6 bits of hi
        hi >>= 58
        np.right_shift(lo, hi, out=w)
        np.negative(hi, out=hi)
        hi &= 63
        w |= np.left_shift(lo, hi, out=tmp)
        w >>= 11
        out[begin:begin + w.size] = w.ravel()[:total - begin].view(np.int64)  # exact: < 2**53
    out *= 2.0**-53
    return out.reshape(count, n)


def _descend(source, grid: TimeGrid, u):
    """Ensemble whose trajectory j is drawn by inverse CDF with the uniforms u[j].

    Roundoff negatives are clamped for the draw; the collapse renormalizes by
    the unclamped probability, so states do not underflow on long grids.
    """
    dyn = source.dynamics
    P, m = dyn.F.projectors, dyn.F.n_outcomes
    rows = readout(dyn.F).T
    X, node = dyn.rho[None], np.zeros(len(u), dtype=np.intp)
    indices, prefixes = np.empty(u.shape, dtype=np.intp), []
    prev = 0.0
    for k, t in enumerate(grid.times):
        X = dyn.step(X, t - prev)
        p = (X.reshape(len(X), -1) @ rows).real  # (prefixes, m)
        w = np.maximum(p, 0.0)
        total = w.sum(axis=1)
        if not np.all(np.isfinite(total) & (total > 0)):
            raise NumericalInvariantViolation(f"outcome total {total.min()} at t={t}; cannot draw")
        cdf = np.cumsum(w / total[:, None], axis=1)
        a = np.zeros(len(u), dtype=np.intp)
        for column in cdf[:, :-1].T:  # a row never decreases, so the last column is the clip
            a += column[node] <= u[:, k]
        indices[:, k] = a
        pairs, node = _relabel(node * m + a, len(X) * m)
        prefixes.append(pairs)
        if k + 1 < grid.n:
            # the collapsed states, held at most 4 times over at the peak: tracemalloc measures
            # 3.0 copies in the collapse (gathered states, projectors, one product) and in the
            # step, on unitary d = 8–32 and GKLS d = 8
            batch = 4 * len(pairs) * dyn.F.dim ** 2 * 16
            if batch > TABLE_BATCH_BYTES:
                raise TableTooLarge(f"sampling would hold about {batch} bytes of states after "
                                    f"t={t}, exceeding the budget of {TABLE_BATCH_BYTES}")
            parent, a = np.divmod(pairs, m)
            X, Pa = X.take(parent, axis=0), P.take(a, axis=0)
            np.matmul(Pa @ X, Pa, out=X)  # P(a) X P(a), into the gathered states
            X /= p[parent, a][:, None, None]
        prev = t
    return Ensemble(grid, indices, np.array(dyn.F.eigenvalues, dtype=float), tuple(prefixes), node)


def sample_ensemble(source, grid: TimeGrid, size, seed, held=0):
    """Draw ``size`` independent trajectories, rows 0 … size−1 of the seed's stream.

    First the per-trajectory arrays are counted against ``TABLE_BATCH_BYTES``:
    16·n + 32 bytes a trajectory by tracemalloc (uniforms, ``indices``, a level's
    outcomes and ranks), and ``held`` more that the caller keeps beside them.
    """
    if size < 1:
        raise ValueError("ensemble size must be ≥ 1")
    need = size * (16 * grid.n + 32 + held)
    if need > TABLE_BATCH_BYTES:
        raise TableTooLarge(f"sampling {size} trajectories would hold about {need} bytes of "
                            f"per-trajectory arrays, exceeding the budget of {TABLE_BATCH_BYTES}")
    return _descend(source, grid, _uniforms(seed, 0, size, grid.n))


def _relabel(key, size):
    """``np.unique(key, return_inverse=True)`` for keys in [0, size): a presence mask, no sort."""
    present = np.zeros(size, dtype=bool)
    present[key] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[key]


def export_csv(ens: Ensemble, stream):
    """Write the documented trajectory CSV: header t_1..t_n, eigenvalue rows.

    Values use shortest round-trip decimal (repr); byte-identical for equal
    ensembles. Each distinct history is formatted once and its line repeated
    in trajectory order, 2**16 rows a write, so the text is never held whole.
    """
    labels = [repr(float(v)) for v in ens.eigenvalues]
    stream.write(",".join(f"t_{k + 1}" for k in range(ens.grid.n)) + "\n")
    first = np.empty(len(ens.prefixes[-1]), dtype=np.intp)
    first[ens.rank] = np.arange(ens.size)
    lines = np.array([",".join([labels[k] for k in row]) + "\n"
                      for row in ens.indices.take(first, axis=0).tolist()], dtype=object)
    for start in range(0, ens.size, 2**16):
        stream.write("".join(lines.take(ens.rank[start:start + 2**16]).tolist()))

