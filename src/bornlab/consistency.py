"""Numerical tests of the consistency conditions on measurement statistics.

Conditions checked (all quantified over the user-supplied grid; the report
records exactly what was covered):

* causality — summing the LAST outcome of P_n reproduces P_{n-1}; holds for
  every Born family.
* KC — summing ANY outcome of P_n reproduces P_{n-1} on the reduced grid.
* CM — for every index i and diagonal assignment elsewhere, the off-diagonal
  bi-probability sum Σ_{f_i ≠ f_-i} Q_n vanishes; equivalent to KC.
* SF — every off-diagonal bi-probability entry vanishes individually;
  implies CM and KC.
* bi-consistency — summing any (f_i, f_-i) pair of Q_n reproduces Q_{n-1};
  an unconditional algebraic identity and the implementation's main
  self-test.
* generalized relation — the KC defect of the Born family equals the
  diagonal-context off-diagonal sum of Q_n; an unconditional identity
  linking the two families.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import DEFAULT_TOLERANCES
from .process import (
    DEFAULT_TABLE_CAP,
    BiProbTable,
    TimeGrid,
    _LETTERS,
    _pair_diagonal,
    biprob_table,
    born_table,
)

IDENTITY_TOL = 1e-10
# entries within this relative distance of the largest |entry| tie for the witness
TIE_TOL = 1e-12


class ConditionRecord(NamedTuple):
    condition: str
    max_abs_violation: float
    witness: dict | None
    threshold: float
    passed: bool
    coverage: dict


class ConsistencyReport(NamedTuple):
    grid: TimeGrid
    n: int
    records: tuple[ConditionRecord, ...]

    def record(self, condition):
        for r in self.records:
            if r.condition == condition:
                return r
        raise KeyError(condition)

    def passed(self, condition):
        return self.record(condition).passed


def _record(condition, violation, witness, threshold, coverage):
    violation = float(violation)
    return ConditionRecord(
        condition=condition,
        max_abs_violation=violation,
        witness=witness if violation > 0 else None,
        threshold=float(threshold),
        passed=violation <= threshold,
        coverage=coverage,
    )


def _diag_context_sums(table: BiProbTable, position):
    """Σ_{f_i ≠ f_-i} Q_n with all other index pairs on the diagonal.

    Returns ``(sums, real_form)``: complex sums per context tuple and the
    equivalent 2·Re Σ_{f_i > f_-i} form (they must agree to roundoff).
    """
    n, i = table.n, position - 1
    subs, out_ctx = [], []
    for k in range(n):
        if k == i:
            subs.append(_LETTERS[n] + _LETTERS[n + 1])
        else:
            subs.append(_LETTERS[k] * 2)
            out_ctx.append(_LETTERS[k])
    expr = "".join(subs) + "->" + "".join(out_ctx) + _LETTERS[n] + _LETTERS[n + 1]
    sliced = np.einsum(expr, table.dist)  # (..., f_i, f_-i) with diagonal context
    total = sliced.sum(axis=(-2, -1))
    diag = np.einsum("...kk->...", sliced)
    sums = total - diag
    m = table.n_outcomes
    lower = np.tril(np.ones((m, m)), k=-1)  # pairs with f_i > f_-i
    real_form = 2.0 * np.einsum("...kl,kl->...", sliced.real, lower)
    return sums, real_form


def _coverage(grid: TimeGrid, indices=None):
    return {"n": grid.n, "times": list(grid.times),
            "indices": list(range(1, grid.n + 1)) if indices is None else indices}


def _deletions(table, source, grid: TimeGrid, cap):
    """The full ``table`` on ``grid`` and a generator of its deletion defects.

    The generator yields ``(i, marginal_i(full) − reduced_i)`` for 1-based i,
    building reduced_i, the table on ``grid.without(i)``, as it goes.
    """
    if grid.n < 2:
        raise ValueError("consistency checks need a grid of n ≥ 2 times")
    full = table(source, grid, cap)
    k = full.dist.ndim // grid.n  # axes per time: 1 for Born, 2 for bi-probability
    return full, ((i, full.dist.sum(axis=tuple(range(k * (i - 1), k * i)))
                   - table(source, grid.without(i), cap).dist)
                  for i in range(1, grid.n + 1))


def _worst(defects, witness):
    """The largest |entry| of the defects, and ``witness(i, outcomes)`` at the
    first entry in (index, C-order outcome) order within TIE_TOL of it.

    So a roundoff change does not move the witness among tied entries. Each
    defect is reduced as it is formed to its entries within TIE_TOL of its own
    peak (a superset of those within TIE_TOL of the overall peak), and of these
    to the ones larger than every earlier one: only such an entry can be the
    first above a threshold, so many exact ties keep one position.
    """
    near, worst = [], 0.0
    for i, defect in defects:
        a = np.abs(defect).ravel()
        peak = float(a.max())
        if peak > 0:
            pos = np.flatnonzero(a >= peak * (1 - TIE_TOL))
            mags = a[pos]
            first = np.r_[True, mags[1:] > np.maximum.accumulate(mags)[:-1]]
            near.append((i, defect.shape, pos[first], mags[first]))
            worst = max(worst, peak)
    for i, shape, pos, mags in near:
        hits = pos[mags >= worst * (1 - TIE_TOL)]
        if hits.size:
            return worst, witness(i, [int(v) for v in np.unravel_index(hits[0], shape)])
    return worst, None


def _kc_records(grid: TimeGrid, born_defects, epsilon):
    def witness(i, idx):
        return {"index": i, "outcomes": idx}
    return (_record("KC", *_worst(born_defects, witness), epsilon, _coverage(grid)),
            _record("causality", *_worst(born_defects[-1:], witness), IDENTITY_TOL,
                    _coverage(grid, [grid.n])))


def _bi_consistency_record(grid: TimeGrid, biprob_defects):
    # each defect is reduced to its peak as it is formed; none is held
    worst, witness = _worst(biprob_defects, lambda i, idx: {
        "index": i, "outcomes": idx[0::2], "outcomes_minus": idx[1::2]})
    return _record("bi-consistency", worst, witness, IDENTITY_TOL, _coverage(grid))


def check_kc(source, grid: TimeGrid, epsilon=DEFAULT_TOLERANCES.consistency, cap=DEFAULT_TABLE_CAP):
    """Kolmogorov consistency over every single-deletion of the given grid.

    Also reports the causality record (deletion of the last index), which is
    an identity for Born families.
    """
    _, defects = _deletions(born_table, source, grid, cap)
    return ConsistencyReport(grid, grid.n, _kc_records(grid, list(defects), epsilon))


def _context_sums(table: BiProbTable):
    """``_diag_context_sums`` of every index 1..n, in order."""
    return [_diag_context_sums(table, i) for i in range(1, table.n + 1)]


def _cm_records(grid: TimeGrid, sums, epsilon):
    worst, witness = _worst(((i, s) for i, (s, _) in enumerate(sums, 1)),
                            lambda i, idx: {"index": i, "context": idx})
    agreement = max(max(float(np.max(np.abs(s.real - real_form))), float(np.max(np.abs(s.imag))))
                    for s, real_form in sums)
    coverage = _coverage(grid)
    return (_record("CM", worst, witness, epsilon, coverage),
            _record("CM-real-form", agreement, None, 1e-12, coverage))


def check_cm(table: BiProbTable, epsilon=DEFAULT_TOLERANCES.consistency):
    """Consistent-measurements condition on a bi-probability table.

    The complex-sum form is the verdict; the 2·Re Σ_{f_i > f_-i} form is
    recomputed independently and their agreement is reported as a separate
    identity record ("CM-real-form").
    """
    return ConsistencyReport(table.grid, table.n,
                             _cm_records(table.grid, _context_sums(table), epsilon))


def check_sf(table: BiProbTable, epsilon=DEFAULT_TOLERANCES.consistency):
    """Surrogate-field condition: every off-diagonal entry of Q_n vanishes."""
    off = np.abs(table.dist)
    _pair_diagonal(off)[...] = 0.0
    mag, witness = _worst([(None, off)], lambda _, idx: {
        "outcomes": idx[0::2], "outcomes_minus": idx[1::2]})
    coverage = {"n": table.n, "times": list(table.grid.times)}
    return ConsistencyReport(table.grid, table.n, (_record("SF", mag, witness, epsilon, coverage),))


def check_bi_consistency(source, grid: TimeGrid, cap=DEFAULT_TABLE_CAP):
    """Pair-marginalization identity of bi-probabilities (always holds)."""
    _, defects = _deletions(biprob_table, source, grid, cap)
    return ConsistencyReport(grid, grid.n, (_bi_consistency_record(grid, defects),))


def _relation_residual(born_defects, sums):
    # the left side P_{n-1} − Σ_{f_i} P_n is −defect, exactly; sums are by index
    residual = 0.0
    for (_, defect), (rhs, _) in zip(born_defects, sums):
        residual = max(residual, float(np.max(np.abs(-defect - rhs))))
    return residual


def verify_generalized_relation(source, grid: TimeGrid, cap=DEFAULT_TABLE_CAP):
    """Residual of the identity linking the KC defect of P_n to Q_n sums.

    For every index i and context: P_{n-1} − Σ_{f_i} P_n must equal the
    diagonal-context off-diagonal sum of Q_n. The two sides are computed
    through independent code paths (Born recursion vs bi-probability
    recursion); returns the maximal absolute residual.
    """
    _, defects = _deletions(born_table, source, grid, cap)
    return _relation_residual(defects, _context_sums(biprob_table(source, grid, cap)))


def analyze(source, grid: TimeGrid, epsilon=DEFAULT_TOLERANCES.consistency, cap=DEFAULT_TABLE_CAP):
    """Full per-grid report and the two full tables it was read from.

    Returns ``(report, born, bi_probability)``. The report holds causality,
    KC, CM, SF, bi-consistency and the generalized relation; each of the
    2 + 2n tables (full and reduced, per kind) is built once. A one-time grid
    has no deletions, so its report is the SF record alone. CM and the
    generalized relation read the same diagonal-context sums of Q_n.
    """
    if grid.n == 1:
        born, bip = born_table(source, grid, cap), biprob_table(source, grid, cap)
        return check_sf(bip, epsilon), born, bip
    born, born_defects = _deletions(born_table, source, grid, cap)
    born_defects = list(born_defects)
    bip, bip_defects = _deletions(biprob_table, source, grid, cap)
    sums = _context_sums(bip)
    records = (
        _kc_records(grid, born_defects, epsilon)
        + _cm_records(grid, sums, epsilon)
        + check_sf(bip, epsilon).records
        + (_bi_consistency_record(grid, bip_defects),
           _record("generalized-relation", _relation_residual(born_defects, sums), None,
                   IDENTITY_TOL, _coverage(grid)))
    )
    return ConsistencyReport(grid, grid.n, records), born, bip
