"""Independent table builders and samplers kept as oracles for the library.

The four table builders are the per-source recursions the library used
before ``bornlab.process._table`` replaced them, kept verbatim: the unitary
ones sandwich Heisenberg-picture projectors P(f, t) = U†(t) P(f) U(t) around
a state held at t = 0, and the semigroup ones act with d²×d² superoperators
on column-stacked vectors. Neither path shares a step with the kernel, so an
agreement to roundoff checks both.

``MeasurementChain`` and ``_draw`` are the per-trajectory collapse chain the
sampler used before its batched descent over outcome histories, kept
verbatim: it reads out and collapses one flat row-major state per
trajectory. ``surrogate_average`` is the per-trajectory loop the observer
used before it propagated each distinct history once.

``check_kc``, ``check_bi_consistency``, ``verify_generalized_relation`` and
``analyze`` are the consistency checks as they were before they shared one
set of tables per grid, kept verbatim: each check builds its own full and
reduced tables.
"""

import numpy as np

from bornlab.consistency import (
    IDENTITY_TOL,
    ConsistencyReport,
    _argmax_abs,
    _diag_context_sums,
    _record,
    check_cm,
    check_sf,
)
from bornlab.errors import NumericalInvariantViolation
from bornlab.linalg import DEFAULT_TOLERANCES, vec
from bornlab.observer import ObserverSystem, SurrogateAverage, surrogate_propagate
from bornlab.process import (
    DEFAULT_TABLE_CAP,
    BiProbTable,
    BornTable,
    QuantumSystem,
    TimeGrid,
    _check_cap,
    biprob_table,
    born_table,
    dynamics,
    readout,
)
from bornlab.qrf import QRFModel, pair_superops, semigroup
from bornlab.sampler import Ensemble, Trajectory
from bornlab.spectral import heisenberg_projectors


def _heisenberg_family(sys, grid):
    return [heisenberg_projectors(sys.F, sys.H, t) for t in grid.times]


def born_distribution(sys: QuantumSystem, grid: TimeGrid, cap=DEFAULT_TABLE_CAP):
    """Exact joint distribution of n sequential projective measurements."""
    m, d, n = sys.F.n_outcomes, sys.dim, grid.n
    _check_cap(m**n, cap, "Born table")
    T = sys.rho0[None]
    for P in _heisenberg_family(sys, grid):
        T = np.einsum("aij,njk,akl->nail", P, T, P).reshape(-1, d, d)
    probs = np.einsum("nii->n", T).real.reshape((m,) * n)
    total = probs.sum()
    if not np.isfinite(total) or abs(total - 1.0) > 1e-10:
        raise NumericalInvariantViolation(
            f"Born table total {total} differs from 1 beyond 1e-10"
        )
    return BornTable(grid, sys.F.eigenvalues.copy(), probs)


def bi_probability(sys: QuantumSystem, grid: TimeGrid, cap=DEFAULT_TABLE_CAP):
    """Exact bi-probability table with independent left/right sequences."""
    m, d, n = sys.F.n_outcomes, sys.dim, grid.n
    _check_cap(m ** (2 * n), cap, "bi-probability table")
    T = sys.rho0[None]
    for P in _heisenberg_family(sys, grid):
        T = np.einsum("aij,njk,bkl->nabil", P, T, P).reshape(-1, d, d)
    q = np.einsum("nii->n", T).reshape((m, m) * n)
    total = q.sum()
    if not np.isfinite(total.real) or abs(total - 1.0) > 1e-10:
        raise NumericalInvariantViolation(
            f"bi-probability total {total} differs from 1 beyond 1e-10"
        )
    return BiProbTable(grid, sys.F.eigenvalues.copy(), q)


def qrf_bi_probability(model: QRFModel, grid: TimeGrid, cap=DEFAULT_TABLE_CAP):
    """Bi-probability table of a semigroup model on a grid."""
    m, d, n = model.F_a.n_outcomes, model.dim, grid.n
    _check_cap(m ** (2 * n), cap, "bi-probability table")
    K = pair_superops(model.F_a)
    cache = {}
    V = vec(model.rho_a)[None]
    prev = 0.0
    for t in grid.times:
        L = semigroup(model, t - prev, cache)
        V = np.einsum("kij,nj->nki", K, V @ L.T).reshape(-1, d * d)
        prev = t
    tr_vec = vec(np.eye(d))
    q = (V @ tr_vec).reshape((m, m) * n)
    total = q.sum()
    if not np.isfinite(total.real) or abs(total - 1.0) > 1e-10:
        raise NumericalInvariantViolation(
            f"bi-probability total {total} differs from 1 beyond 1e-10"
        )
    return BiProbTable(grid, model.F_a.eigenvalues.copy(), q)


def qrf_born(model: QRFModel, grid: TimeGrid, cap=DEFAULT_TABLE_CAP):
    """Diagonal (Born) table of a semigroup model, built directly."""
    m, d, n = model.F_a.n_outcomes, model.dim, grid.n
    _check_cap(m**n, cap, "Born table")
    P = model.F_a.projectors
    K = np.array([np.kron(P[a].T, P[a]) for a in range(m)])
    cache = {}
    V = vec(model.rho_a)[None]
    prev = 0.0
    for t in grid.times:
        L = semigroup(model, t - prev, cache)
        V = np.einsum("kij,nj->nki", K, V @ L.T).reshape(-1, d * d)
        prev = t
    tr_vec = vec(np.eye(d))
    probs = ((V @ tr_vec).real).reshape((m,) * n)
    total = probs.sum()
    if not np.isfinite(total) or abs(total - 1.0) > 1e-10:
        raise NumericalInvariantViolation(
            f"Born table total {total} differs from 1 beyond 1e-10"
        )
    return BornTable(grid, model.F_a.eigenvalues.copy(), probs)


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


def surrogate_average(obs: ObserverSystem, ens: Ensemble, t):
    """(1/N) Σ_j surrogate_propagate(obs, f_j, t) with standard errors.

    The mean and the complex per-entry sample variance are reduced with
    numpy pairwise summation over the trajectory index order (deterministic
    for fixed N).
    """
    cache = {}
    states = np.array(
        [surrogate_propagate(obs, traj, t, cache) for traj in ens.trajectories]
    )
    mean = states.mean(axis=0)
    if ens.size > 1:
        var = np.mean(np.abs(states - mean) ** 2, axis=0) * ens.size / (ens.size - 1)
        stderr = np.sqrt(var / ens.size)
    else:
        stderr = np.zeros_like(mean, dtype=float)
    return SurrogateAverage(mean=mean, stderr=stderr, size=ens.size)


def check_kc(source, grid: TimeGrid, epsilon=DEFAULT_TOLERANCES.consistency, cap=DEFAULT_TABLE_CAP):
    """Kolmogorov consistency over every single-deletion of the given grid.

    Also reports the causality record (deletion of the last index), which is
    an identity for Born families.
    """
    if grid.n < 2:
        raise ValueError("KC check needs a grid of n ≥ 2 times")
    full = born_table(source, grid, cap)
    worst, witness = 0.0, None
    causality_worst, causality_witness = 0.0, None
    for i in range(1, grid.n + 1):
        reduced = born_table(source, grid.without(i), cap)
        diff = full.dist.sum(axis=i - 1) - reduced.dist
        idx, mag = _argmax_abs(diff)
        if mag > worst:
            worst, witness = mag, {"index": i, "outcomes": [int(v) for v in idx]}
        if i == grid.n and mag > causality_worst:
            causality_worst = mag
            causality_witness = {"index": i, "outcomes": [int(v) for v in idx]}
    coverage = {"n": grid.n, "times": list(grid.times), "indices": list(range(1, grid.n + 1))}
    return ConsistencyReport(
        grid=grid,
        n=grid.n,
        records=(
            _record("KC", worst, witness, epsilon, coverage),
            _record(
                "causality",
                causality_worst,
                causality_witness,
                IDENTITY_TOL,
                {"n": grid.n, "times": list(grid.times), "indices": [grid.n]},
            ),
        ),
    )


def check_bi_consistency(source, grid: TimeGrid, threshold=IDENTITY_TOL, cap=DEFAULT_TABLE_CAP):
    """Pair-marginalization identity of bi-probabilities (always holds)."""
    if grid.n < 2:
        raise ValueError("bi-consistency check needs a grid of n ≥ 2 times")
    full = biprob_table(source, grid, cap)
    worst, witness = 0.0, None
    for i in range(1, grid.n + 1):
        reduced = biprob_table(source, grid.without(i), cap)
        ax = 2 * (i - 1)
        diff = full.dist.sum(axis=(ax, ax + 1)) - reduced.dist
        idx, mag = _argmax_abs(diff)
        if mag > worst:
            worst = mag
            witness = {
                "index": i,
                "outcomes": [int(v) for v in idx[0::2]],
                "outcomes_minus": [int(v) for v in idx[1::2]],
            }
    coverage = {"n": grid.n, "times": list(grid.times), "indices": list(range(1, grid.n + 1))}
    return ConsistencyReport(
        grid=grid,
        n=grid.n,
        records=(_record("bi-consistency", worst, witness, threshold, coverage),),
    )


def verify_generalized_relation(source, grid: TimeGrid, cap=DEFAULT_TABLE_CAP):
    """Residual of the identity linking the KC defect of P_n to Q_n sums.

    For every index i and context: P_{n-1} − Σ_{f_i} P_n must equal the
    diagonal-context off-diagonal sum of Q_n. The two sides are computed
    through independent code paths (Born recursion vs bi-probability
    recursion); returns the maximal absolute residual.
    """
    if grid.n < 2:
        raise ValueError("generalized-relation check needs a grid of n ≥ 2 times")
    full = born_table(source, grid, cap)
    bip = biprob_table(source, grid, cap)
    residual = 0.0
    for i in range(1, grid.n + 1):
        reduced = born_table(source, grid.without(i), cap)
        lhs = reduced.dist - full.dist.sum(axis=i - 1)
        rhs, _ = _diag_context_sums(bip, i)
        residual = max(residual, float(np.max(np.abs(lhs - rhs))))
    return residual


def analyze(source, grid: TimeGrid, epsilon=DEFAULT_TOLERANCES.consistency, cap=DEFAULT_TABLE_CAP):
    """Full per-grid report: causality, KC, CM, SF, bi-consistency, identity."""
    kc = check_kc(source, grid, epsilon, cap)
    bip = biprob_table(source, grid, cap)
    cm = check_cm(bip, epsilon)
    sf = check_sf(bip, epsilon)
    bic = check_bi_consistency(source, grid, IDENTITY_TOL, cap)
    residual = verify_generalized_relation(source, grid, cap)
    gen = _record(
        "generalized-relation",
        residual,
        None,
        IDENTITY_TOL,
        {"n": grid.n, "times": list(grid.times), "indices": list(range(1, grid.n + 1))},
    )
    records = kc.records + cm.records + sf.records + bic.records + (gen,)
    return ConsistencyReport(grid=grid, n=grid.n, records=records)
