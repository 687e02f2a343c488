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

Deletion i < n walks the full grid's own steps past an unmeasured t_i, so the
identity defects are roundoff at any grid span; deletion n is order n − 1's table.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import DEFAULT_TOLERANCES
from .process import (
    DEFAULT_TABLE_CAP,
    BiProbTable,
    TimeGrid,
    _pair_diagonal,
    _table,
    biprob_table,
    born_table,
)

IDENTITY_TOL = 1e-10
# entries within this relative distance of the largest |entry| tie for the witness
TIE_TOL = 1e-12


class ConditionRecord(NamedTuple):
    """One condition's verdict, field for key as the reports write it."""

    condition: str
    max_abs_violation: float
    witness: dict | None
    threshold: float
    verdict: str
    coverage: dict

    @property
    def passed(self):
        return self.verdict == "pass"


def _record(condition, violation, witness, threshold, coverage):
    violation = float(violation)
    return ConditionRecord(
        condition=condition,
        max_abs_violation=violation,
        witness=witness if violation > 0 else None,
        threshold=float(threshold),
        verdict="pass" if violation <= threshold else "fail",
        coverage=coverage,
    )


def _diag_context_sums(table: BiProbTable, position):
    """Σ_{f_i ≠ f_-i} Q_n with all other index pairs on the diagonal.

    Returns ``(sums, real_form)``: complex sums per context tuple and the
    equivalent 2·Re Σ_{f_i > f_-i} form (they must agree to roundoff).
    """
    sliced = _pair_diagonal(table.dist, position - 1)  # (..., f_i, f_-i), context diagonal
    sums = sliced.sum(axis=(-2, -1)) - np.einsum("...kk->...", sliced)
    lower = np.tril(np.ones((table.n_outcomes,) * 2), k=-1)  # pairs with f_i > f_-i
    return sums, 2.0 * np.einsum("...kl,kl->...", sliced.real, lower)


def _coverage(grid: TimeGrid, indices=None):
    return {"n": grid.n, "times": list(grid.times),
            "indices": list(range(1, grid.n + 1)) if indices is None else indices}


def _defects(full, source, last, cap):
    """``(i, marginal_i(full) − reduced_i)`` for 1-based i, reduced_i built as it goes
    on ``full``'s grid with t_i unmeasured; reduced_n is ``last``, the order n − 1 table."""
    k = full.dist.ndim // full.n  # axes per time: 1 for Born, 2 for bi-probability
    for i in range(1, full.n + 1):
        reduced = last if i == full.n else _table(source, full.grid, cap, k == 1, skip=i - 1)
        yield i, full.dist.sum(axis=tuple(range(k * (i - 1), k * i))) - reduced.dist


def _deletions(table, source, grid: TimeGrid, cap):
    """The deletion defects of ``table`` on ``grid``, its full and last tables built here."""
    if grid.n < 2:
        raise ValueError("consistency checks need a grid of n ≥ 2 times")
    full, last = table(source, grid, cap), table(source, grid.prefix(grid.n - 1), cap)
    return _defects(full, source, last, cap)


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
    an identity for Born families. Returns the records ``(KC, causality)``.
    """
    return _kc_records(grid, list(_deletions(born_table, source, grid, cap)), epsilon)


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
    identity record: the records are ``(CM, CM-real-form)``.
    """
    return _cm_records(table.grid, _context_sums(table), epsilon)


def check_sf(table: BiProbTable, epsilon=DEFAULT_TOLERANCES.consistency):
    """The SF record: every off-diagonal entry of Q_n vanishes."""
    off = np.abs(table.dist)
    _pair_diagonal(off)[...] = 0.0
    mag, witness = _worst([(None, off)], lambda _, idx: {
        "outcomes": idx[0::2], "outcomes_minus": idx[1::2]})
    coverage = {"n": table.n, "times": list(table.grid.times)}
    return _record("SF", mag, witness, epsilon, coverage)


def check_bi_consistency(source, grid: TimeGrid, cap=DEFAULT_TABLE_CAP):
    """The record of the pair-marginalization identity of bi-probabilities (always holds)."""
    return _bi_consistency_record(grid, _deletions(biprob_table, source, grid, cap))


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
    defects = _deletions(born_table, source, grid, cap)
    return _relation_residual(defects, _context_sums(biprob_table(source, grid, cap)))


def analyze(source, grid: TimeGrid, epsilon=DEFAULT_TOLERANCES.consistency, cap=DEFAULT_TABLE_CAP):
    """Yields ``(records, born, bi_probability)`` for each prefix order n = 1 … grid.n, in order.

    The records are KC, causality, CM, CM-real-form, SF, bi-consistency and
    the generalized relation (SF alone at n = 1). Each order's full tables are
    the next order's last reduced tables, so each table is built once: n full
    and Σ_{k=2..n} (k − 1) deletion tables per kind.
    """
    born = bip = None
    for n in range(1, grid.n + 1):
        sub, last_born, last_bip = grid.prefix(n), born, bip
        born, bip = born_table(source, sub, cap), biprob_table(source, sub, cap)
        if n == 1:
            yield (check_sf(bip, epsilon),), born, bip
            continue
        born_defects = list(_defects(born, source, last_born, cap))
        sums = _context_sums(bip)  # CM's, and the generalized relation's right side
        yield (_kc_records(sub, born_defects, epsilon) + _cm_records(sub, sums, epsilon)
               + (check_sf(bip, epsilon),
                  _bi_consistency_record(sub, _defects(bip, source, last_bip, cap)),
                  _record("generalized-relation", _relation_residual(born_defects, sums), None,
                          IDENTITY_TOL, _coverage(sub)))), born, bip
