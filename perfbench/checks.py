"""Output checks for one CLI invocation, run by ``run.py`` outside the timed call.

Each check returns a list of problems; an empty list means the output is
correct. The expected verdicts of the shipped configs are the ones the
README documents.
"""

from __future__ import annotations

import csv
import json
import math

IDENTITIES = ("causality", "bi-consistency", "generalized-relation", "CM-real-form")
G_TEST_ALPHA = 1e-6  # fixed level; outputs are deterministic per seed, so a miss is a defect
MIN_EXPECTED = 5.0   # cells expected fewer times than this are pooled for the G-test
MAX_Z = 5.0          # per-probe bound on |exact − MC mean| / stderr where SF holds


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _verdicts(records, expected, where):
    problems = []
    by_condition = {r["condition"]: r["verdict"] for r in records}
    for condition, verdict in expected.items():
        if by_condition.get(condition) != verdict:
            problems.append(f"{where}: {condition} is {by_condition.get(condition)}, "
                            f"expected {verdict}")
    return problems


def check_analyze(path, facts, expect):
    report = _load_json(path)
    problems = []
    analyses = report.get("analyses", [])
    if len(analyses) != facts["analyze_pairs"]:
        problems.append(f"{len(analyses)} analyses, expected {facts['analyze_pairs']}")
    for entry in analyses:
        where = f"grid {entry['grid']} n={entry['n']}"
        records = entry["consistency"]
        present = {r["condition"] for r in records}
        for r in records:
            if r["condition"] in IDENTITIES and r["verdict"] != "pass":
                problems.append(f"{where}: identity {r['condition']} fails "
                                f"({r['max_abs_violation']:.3e})")
        if entry["n"] >= 2:
            missing = set(IDENTITIES) - present
            if missing:
                problems.append(f"{where}: identity records missing: {sorted(missing)}")
        if expect.get("all_pass"):
            problems += [f"{where}: {r['condition']} fails" for r in records
                         if r["verdict"] != "pass"]
        if entry["n"] >= 2:
            problems += _verdicts(records, expect.get("verdicts", {}), where)
    return problems


def check_qrf(path, facts, expect):
    report = _load_json(path)
    problems = []
    grids = report.get("grids", [])
    if len(grids) != facts["grid_count"]:
        problems.append(f"{len(grids)} grids, expected {facts['grid_count']}")
    for entry in grids:
        where = f"grid {entry['grid']}"
        records = [entry["cm"], entry["sf"]] + ([entry["ncgd"]] if "ncgd" in entry else [])
        problems += _verdicts(records, expect.get("verdicts", {}), where)
        equivalence = entry.get("ncgd_cm_equivalence", {})
        if equivalence.get("agree") is not True:
            problems.append(f"{where}: NCGD⇔CM agree flag is {equivalence.get('agree')}")
    return problems


def g_test_pvalue(counts, probs, size):
    """G-test of observed counts against exact probabilities, small cells pooled."""
    from scipy.stats import chi2

    observed, expected = [], []
    pooled_o = pooled_e = 0.0
    for key, p in probs.items():
        e = size * p
        o = counts.get(key, 0)
        if e < MIN_EXPECTED:
            pooled_o, pooled_e = pooled_o + o, pooled_e + e
        else:
            observed.append(o)
            expected.append(e)
    if pooled_o or pooled_e:
        observed.append(pooled_o)
        expected.append(pooled_e)
    if pooled_o and pooled_e == 0.0:
        return 0.0
    g = 2.0 * sum(o * math.log(o / e) for o, e in zip(observed, expected) if o > 0)
    dof = max(len(observed) - 1, 1)
    return float(chi2.sf(g, dof))


def check_sample(path, facts, exact):
    """``exact`` maps outcome-value tuples to their exact Born probability."""
    problems = []
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    n, size = facts["sample_n"], facts["N"]
    if not rows or rows[0] != [f"t_{k + 1}" for k in range(n)]:
        return [f"bad CSV header {rows[:1]}"]
    body = rows[1:]
    if len(body) != size:
        problems.append(f"{len(body)} rows, expected N={size}")
    counts = {}
    for row in body:
        key = tuple(float(v) for v in row)
        counts[key] = counts.get(key, 0) + 1
    unknown = set(counts) - set(exact)
    if unknown:
        problems.append(f"{len(unknown)} histories with values outside the spectrum")
    p = g_test_pvalue(counts, exact, len(body))
    if p < G_TEST_ALPHA:
        problems.append(f"G-test against the exact P_n fails: p = {p:.3e} < {G_TEST_ALPHA}")
    return problems


def check_sample_stderr(stderr, expect):
    warned = "violate Kolmogorov consistency" in stderr
    if "warns" in expect and warned != expect["warns"]:
        return [f"KC warning on stderr is {warned}, expected {expect['warns']}"]
    return []


def check_simulate(path, facts, expect):
    report = _load_json(path)
    problems = []
    comparisons = report.get("comparisons", [])
    if len(comparisons) != facts["probes"]:
        problems.append(f"{len(comparisons)} probe times, expected {facts['probes']}")
    gate = report.get("sf_gate", {}).get("verdict")
    if report.get("forced") != (gate == "fail"):
        problems.append(f"forced={report.get('forced')} disagrees with SF gate verdict {gate}")
    if expect.get("sf") is not None and gate != expect["sf"]:
        problems.append(f"SF gate verdict {gate}, expected {expect['sf']}")
    if expect.get("max_z"):
        for c in comparisons:
            z = c.get("max_z")
            if z is None or not z < MAX_Z:
                problems.append(f"t={c['t']}: max_z {z} not below {MAX_Z}")
    return problems
