"""Independent table builders and samplers kept as oracles for the library.

The four table builders are the per-source recursions the library used
before ``bornlab.process._table`` replaced them, kept verbatim: the unitary
ones sandwich Heisenberg-picture projectors P(f, t) = U†(t) P(f) U(t) around
a state held at t = 0, and the semigroup ones act with d²×d² superoperators
on column-stacked vectors. Neither path shares a step with the kernel, so an
agreement to roundoff checks both.

``sample_trajectory`` is the one-trajectory draw the library offered before
only whole ensembles were sampled: row ``index`` of the seed's stream, through
the same descent as ``bornlab.sampler.sample_ensemble``.

``MeasurementChain`` and ``_draw`` are the per-trajectory collapse chain the
sampler used before its batched descent over outcome histories, kept
verbatim: it reads out and collapses one flat row-major state per
trajectory. ``trajectory_rng`` is the generator object that feeds it
trajectory j's uniforms: numpy's own ``PCG64`` for the seed, jumped ahead by
j·n draws. ``surrogate_average`` is the per-trajectory loop the observer used
before it propagated each distinct history once, and ``segments``,
``stochastic_propagator`` and ``surrogate_propagate`` are the per-trajectory
propagation it calls, kept verbatim (``segments`` was a ``Trajectory``
method) from before the observer walked each distinct outcome prefix once. ``export_csv`` is the trajectory
CSV writer as it was before it formatted each distinct history once, kept
verbatim: one Python row list per trajectory through ``csv.writer``.

``check_kc``, ``check_bi_consistency``, ``verify_generalized_relation`` and
``analyze`` are the consistency checks as they were before they shared one
set of tables per grid, kept verbatim: each check builds its own full and
reduced tables. Only their witness changed since, to the tie rule written
out over all held defects (``_first_near_peak``): the first entry in (index,
C-order outcome) order within ``TIE_TOL`` of the largest |entry|. ``check_sf``
is the SF check as it was before it zeroed the pair diagonal through an
einsum view: it masks the table with an index grid (``_off_diagonal_mask``),
and takes its witness by the same written-out tie rule.

``born_table_json``, ``biprob_table_json`` and ``dump`` are the report
serializer as it was before table entries were rendered from their arrays,
kept verbatim: one dict per entry over ``itertools.product``, a Python sort
when truncating, and ``json.dumps(indent=2)``. ``TableEntries`` and
``_kept`` are the array renderer and truncation as they were before entries
were written column by column, kept verbatim: one ``%``-template per row
(one ``%d`` per outcome, one ``%r`` per float), and a stable sort of the
whole score array.

``validate_generator`` and ``classify_block_structure`` are the semigroup
checks as they were before they read the generator as arrays, kept verbatim:
one matrix unit E_kl at a time through ``unvec``, and one product
𝒫(f,f) ℒ 𝒫(f_+,f_-) per (f, f_+, f_-). ``unvec`` is the inverse of
``bornlab.linalg.vec``, which the library no longer needs.

``conditional_state`` is the collapse chain of Heisenberg-picture projectors
that the library once offered as a convenience, a second path to the Born
table by the chain rule. ``observer_observable_biprob`` is the bi-probability
of an observer observable X_o ⊗ 1 under the joint Hamiltonian: a joint
``QuantumSystem`` fed to ``biprob_table``.

``build_parser`` is the command line's argparse parser as it was before
``bornlab.cli.parse_args`` read the four commands' grammar itself, kept
verbatim.
"""

import argparse
import csv
import itertools
import json

import numpy as np

from bornlab.consistency import (
    IDENTITY_TOL,
    TIE_TOL,
    ConsistencyReport,
    _diag_context_sums,
    _record,
    check_cm,
)
from bornlab.errors import NumericalInvariantViolation
from bornlab.linalg import DEFAULT_TOLERANCES, propagator, vec
from bornlab.observer import JointScenario, ObserverSystem, SurrogateAverage, joint_hamiltonian
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
from bornlab.qrf import BlockStructure, QRFModel, dephasing_projector, pair_superops, semigroup
from bornlab.reporting import complex_json
from bornlab.sampler import Ensemble, Trajectory, _descend, _slot, _uniforms
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
    V = vec(model.rho_a)[None]
    prev = 0.0
    for t in grid.times:
        L = semigroup(model, t - prev)
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
    V = vec(model.rho_a)[None]
    prev = 0.0
    for t in grid.times:
        L = semigroup(model, t - prev)
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


def conditional_state(sys: QuantumSystem, outcomes, times, t_next):
    """State at ``t_next`` given the outcomes measured at ``times`` (both may be empty).

    Collapses ρ with P(f, t) = U†(t) P(f) U(t) for each (t, f) in turn,
    renormalizes, and propagates the result to ``t_next``.
    """
    M = sys.rho0
    for t, f in zip(times, outcomes):
        P = heisenberg_projectors(sys.F, sys.H, t)[f]
        M = P @ M @ P
    U = propagator(sys.H, t_next)
    return U @ (M / np.trace(M).real) @ U.conj().T


def observer_observable_biprob(js: JointScenario, X_o, grid: TimeGrid):
    """Q_n of the observer observable X_o ⊗ 1 in the joint system H_o ⊗ 1 + 1 ⊗ H + λ G_o ⊗ F."""
    joint = QuantumSystem.from_operators(joint_hamiltonian(js),
                                         np.kron(X_o.observable(), np.eye(js.sys.dim)),
                                         np.kron(js.obs.rho_o, js.sys.rho0))
    return biprob_table(joint, grid)


def sample_trajectory(source, grid: TimeGrid, seed, index=0):
    """Draw one trajectory; deterministic in (source, grid, seed, index)."""
    return _descend(source, grid, _uniforms(seed, index, 1, grid.n)).trajectories[0]


def trajectory_rng(seed, index, n):
    """numpy's generator for trajectory ``index`` on an n-time grid: PCG64 jumped index·n draws."""
    bits = np.random.PCG64(int(seed))
    bits.advance(int(index) * n)
    return np.random.Generator(bits)


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


def segments(traj: Trajectory, t):
    """(value, duration) pieces covering [0, t], t ≤ t_n."""
    bounds = [0.0, *traj.grid.times[1:_slot(traj.grid, t) + 1], t]
    out = []
    for k in range(len(bounds) - 1):
        dur = bounds[k + 1] - bounds[k]
        if dur > 0:
            out.append((traj.values[k], dur))
    return out


def stochastic_propagator(obs: ObserverSystem, traj: Trajectory, t, cache=None):
    """Schrödinger propagator from 0 to t under H_o + λ f(τ) G_o.

    The trajectory's piecewise-constant segments each contribute one exact
    matrix exponential; no sub-segment error. ``cache`` maps a segment's
    (value, duration) to its propagator and may be shared across calls.
    """
    cache = {} if cache is None else cache
    W = np.eye(obs.dim, dtype=complex)
    for value, duration in segments(traj, t):
        if (value, duration) not in cache:
            cache[value, duration] = propagator(obs.H_o + obs.coupling * value * obs.G_o, duration)
        W = cache[value, duration] @ W
    return W


def surrogate_propagate(obs: ObserverSystem, traj: Trajectory, t, cache=None):
    """Interaction-picture state driven by one trajectory."""
    W = stochastic_propagator(obs, traj, t, cache)
    U_o = propagator(obs.H_o, t)
    V = U_o.conj().T @ W
    return V @ obs.rho_o @ V.conj().T


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


def export_csv(ens: Ensemble, stream):
    """Write the documented trajectory CSV: header t_1..t_n, eigenvalue rows.

    Values use shortest round-trip decimal (repr); byte-identical for equal
    ensembles.
    """
    labels = [repr(float(v)) for v in ens.eigenvalues]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow([f"t_{k + 1}" for k in range(ens.grid.n)])
    writer.writerows([labels[k] for k in row] for row in ens.indices.tolist())


def _first_near_peak(diffs):
    """``(i, outcomes, peak)``: the first entry in (i, C order) whose |entry| is
    within TIE_TOL of the largest over all held diffs, and that largest."""
    peak = max(float(np.max(np.abs(d))) for _, d in diffs)
    for i, d in diffs:
        hits = np.argwhere(np.abs(d) >= peak * (1 - TIE_TOL))
        if peak > 0 and len(hits):
            return i, hits[0].tolist(), peak
    return None, [], peak


def check_kc(source, grid: TimeGrid, epsilon=DEFAULT_TOLERANCES.consistency, cap=DEFAULT_TABLE_CAP):
    """Kolmogorov consistency over every single-deletion of the given grid.

    Also reports the causality record (deletion of the last index), which is
    an identity for Born families.
    """
    if grid.n < 2:
        raise ValueError("KC check needs a grid of n ≥ 2 times")
    full = born_table(source, grid, cap)
    diffs = []
    for i in range(1, grid.n + 1):
        reduced = born_table(source, grid.without(i), cap)
        diffs.append((i, full.dist.sum(axis=i - 1) - reduced.dist))
    i, idx, worst = _first_near_peak(diffs)
    witness = {"index": i, "outcomes": idx}
    i, idx, causality_worst = _first_near_peak(diffs[-1:])
    causality_witness = {"index": i, "outcomes": idx}
    coverage = {"n": grid.n, "times": list(grid.times), "indices": list(range(1, grid.n + 1))}
    return ConsistencyReport(
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
    diffs = []
    for i in range(1, grid.n + 1):
        reduced = biprob_table(source, grid.without(i), cap)
        ax = 2 * (i - 1)
        diffs.append((i, full.dist.sum(axis=(ax, ax + 1)) - reduced.dist))
    i, idx, worst = _first_near_peak(diffs)
    witness = {"index": i, "outcomes": idx[0::2], "outcomes_minus": idx[1::2]}
    coverage = {"n": grid.n, "times": list(grid.times), "indices": list(range(1, grid.n + 1))}
    return ConsistencyReport(
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


def _off_diagonal_mask(n, m):
    """Boolean mask over an interleaved table marking f_- ≠ f entries."""
    shape = (m, m) * n
    grids = np.indices(shape, dtype=np.int16)
    diag = np.ones(shape, dtype=bool)
    for k in range(n):
        diag &= grids[2 * k] == grids[2 * k + 1]
    return ~diag


def check_sf(table: BiProbTable, epsilon=DEFAULT_TOLERANCES.consistency):
    """Surrogate-field condition: every off-diagonal entry of Q_n vanishes."""
    off = np.where(_off_diagonal_mask(table.n, table.n_outcomes), table.dist, 0.0)
    _, idx, peak = _first_near_peak([(None, off)])
    witness = {"outcomes": idx[0::2], "outcomes_minus": idx[1::2]}
    coverage = {"n": table.n, "times": list(table.grid.times)}
    record = _record("SF", peak, witness, epsilon, coverage)
    return ConsistencyReport((record,))


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
    return ConsistencyReport(records=records)


def born_table_json(table: BornTable, max_entries=4096):
    clamped = table.clamped()
    m, n = table.n_outcomes, table.n
    keys = list(itertools.product(range(m), repeat=n))
    truncated = len(keys) > max_entries
    if truncated:
        keys = sorted(keys, key=lambda k: (-clamped[k], k))[:max_entries]
    return {
        "times": [float(t) for t in table.grid.times],
        "eigenvalues": [float(v) for v in table.eigenvalues],
        "entries": [
            {"outcomes": list(map(int, k)), "p": float(clamped[k])} for k in keys
        ],
        "truncated": truncated,
    }


def biprob_table_json(table: BiProbTable, max_entries=4096):
    m, n = table.n_outcomes, table.n
    keys = list(itertools.product(range(m), repeat=2 * n))
    truncated = len(keys) > max_entries
    if truncated:
        keys = sorted(keys, key=lambda k: (-abs(table.dist[k]), k))[:max_entries]
    return {
        "times": [float(t) for t in table.grid.times],
        "eigenvalues": [float(v) for v in table.eigenvalues],
        "entries": [
            {
                "outcomes": list(map(int, k[0::2])),
                "outcomes_minus": list(map(int, k[1::2])),
                "value": complex_json(table.dist[k]),
            }
            for k in keys
        ],
        "truncated": truncated,
    }


def dump(payload):
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


class TableEntries:
    """The kept entries of a table as arrays, written as a JSON list by ``dump``.

    ``entry`` is one entry with ``"%d"`` in place of each outcome and ``"%r"``
    in place of each float. ``columns`` hold the values, one array per
    placeholder in the order ``json.dumps(sort_keys=True)`` writes them.
    """

    def __init__(self, entry, columns):
        text = json.dumps(entry, indent=2, sort_keys=True)
        self.template = text.replace('"%d"', "%d").replace('"%r"', "%r")
        self.columns = columns

    def render(self, indent):
        """The list as ``json.dumps(indent=2)`` writes it on a line indented by ``indent``."""
        for column in self.columns:
            if column.dtype.kind == "f" and not np.isfinite(column).all():
                bad = float(column[~np.isfinite(column)][0])
                raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
        if not len(self.columns[0]):
            return "[]"
        pad = "\n" + " " * (indent + 2)
        template = pad[1:] + self.template.replace("\n", pad)
        # tolist gives Python ints and floats, which %d and %r print as json does
        rows = zip(*(column.tolist() for column in self.columns))
        return "[\n" + ",\n".join(map(template.__mod__, rows)) + "\n" + " " * indent + "]"


def _kept(score, max_entries):
    """Flat C-order indices of the entries kept, and whether any were dropped.

    A truncated table keeps its ``max_entries`` largest scores; the stable sort
    breaks ties in C order, which is lexicographic outcome order.
    """
    score = score.ravel()
    if score.size <= max_entries:
        return np.arange(score.size), False
    return np.argsort(-score, kind="stable")[:max_entries], True


def unvec(v, dim):
    """Inverse of :func:`vec`."""
    return np.asarray(v, dtype=complex).reshape(dim, dim, order="F")


def validate_generator(matrix, dim):
    """Trace and Hermiticity preservation on the matrix-unit basis, to 1e-12 relative."""
    tol = 1e-12 * max(1.0, float(np.max(np.abs(matrix))))
    for k in range(dim):
        for l in range(dim):
            E = np.zeros((dim, dim), dtype=complex)
            E[k, l] = 1.0
            out = unvec(matrix @ vec(E), dim)
            out_dag = unvec(matrix @ vec(E.conj().T), dim)
            if abs(np.trace(out)) > tol:
                raise NumericalInvariantViolation(
                    f"generator does not preserve trace: |tr ℒE_{k}{l}| = "
                    f"{abs(np.trace(out)):.3e}"
                )
            if np.max(np.abs(out_dag - out.conj().T)) > tol:
                raise NumericalInvariantViolation(
                    "generator does not preserve Hermiticity on the basis"
                )


def classify_block_structure(model: QRFModel, epsilon=DEFAULT_TOLERANCES.consistency,
                             sample_times=(0.5, 1.0)):
    """Block-triangular structure of the generator w.r.t. the eigen-sectors.

    lower ⟺ 𝒫(f,f) ℒ_total 𝒫(f_+,f_-) = 0 for all f and f_+ ≠ f_-
    (coherence non-activating: ΔΛ(t)Δ = ΔΛ(t));
    upper ⟺ the mirrored condition (coherence non-generating:
    ΔΛ(t)Δ = Λ(t)Δ). Labels are verified directly on ``sample_times``.
    """
    m = model.F_a.n_outcomes
    K = pair_superops(model.F_a)
    D = dephasing_projector(model.F_a)
    L = model.generator.total.matrix
    lower_v = upper_v = 0.0
    for f in range(m):
        Kd = K[f * m + f]
        for a in range(m):
            for b in range(m):
                if a == b:
                    continue
                Kab = K[a * m + b]
                lower_v = max(lower_v, float(np.max(np.abs(Kd @ L @ Kab))))
                upper_v = max(upper_v, float(np.max(np.abs(Kab @ L @ Kd))))
    lower = lower_v <= epsilon
    upper = upper_v <= epsilon

    residuals = {}
    labels = []
    if lower:
        r = max(
            float(np.max(np.abs(D @ semigroup(model, t) @ D - D @ semigroup(model, t))))
            for t in sample_times
        )
        residuals["coherence non-activating"] = r
        if r <= epsilon:
            labels.append("coherence non-activating")
    if upper:
        r = max(
            float(np.max(np.abs(D @ semigroup(model, t) @ D - semigroup(model, t) @ D)))
            for t in sample_times
        )
        residuals["coherence non-generating"] = r
        if r <= epsilon:
            labels.append("coherence non-generating")
    return BlockStructure(
        lower=lower,
        upper=upper,
        labels=tuple(labels),
        lower_violation=lower_v,
        upper_violation=upper_v,
        label_residuals=residuals,
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bornlab",
        description="Sequential-measurement statistics, consistency conditions, "
        "and surrogate-field simulation for finite quantum systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "simulate", "sample", "qrf"):
        p = sub.add_parser(name)
        p.add_argument("config", help="scenario config file (YAML)")
        p.add_argument("--out", help="output path (default: <config stem>.<command>)")
        if name in ("simulate", "sample"):
            p.add_argument("--seed", type=int, help="override the config seed")
        if name == "simulate":
            p.add_argument("--force", action="store_true",
                           help="simulate despite an SF violation")
    return parser
