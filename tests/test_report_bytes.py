"""``reporting.dump`` writes table entries in the bytes of the old serializer.

The library renders each table's entries from its arrays; ``tests/oracles.py``
keeps the serializer that built one dict per entry and ran
``json.dumps(indent=2)``. Every case here compares the two texts byte for
byte, with the tables nested as an ``analyze`` report nests them and also at
the top level, so that the entries are spliced in at more than one
indentation. The oracles also keep the per-row template renderer and the
full stable sort that truncation used; the column-wise renderer and the
partition are held to them directly.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import TimeGrid, reporting
from bornlab.process import BiProbTable, BornTable, biprob_table, born_table
from conftest import random_grid, random_system
import oracles


def payloads(module, born, bip, max_entries):
    tables = {"born": module.born_table_json(born, max_entries),
              "bi_probability": module.biprob_table_json(bip, max_entries)}
    return {"analyses": [{"grid": "main", "n": born.n, **tables}], "n": born.n}, tables


def assert_same_bytes(born, bip, max_entries=4096):
    for new, old in zip(payloads(reporting, born, bip, max_entries),
                        payloads(oracles, born, bip, max_entries)):
        assert reporting.dump(new) == oracles.dump(old)


def tables(m, n, born_dist, bip_dist):
    grid = TimeGrid(tuple(0.5 * (k + 1) for k in range(n)))
    eigenvalues = np.arange(m, dtype=float) - 0.5
    return BornTable(grid, eigenvalues, born_dist), BiProbTable(grid, eigenvalues, bip_dist)


def drawn_values(rng, size, pool):
    """Random values, or draws from a pool of ``pool`` values so that ties abound."""
    values = rng.normal(size=size) * 10.0 ** rng.integers(-20, 2, size=size)
    if pool:
        values = rng.choice(np.append(values.ravel()[:pool], 0.0), size=size)
    return values


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4), n=st.integers(1, 3),
       pool=st.sampled_from([0, 1, 3]), data=st.data())
def test_drawn_tables_give_the_oracle_bytes(seed, m, n, pool, data):
    rng = np.random.default_rng(seed)
    born_dist = drawn_values(rng, (m,) * n, pool)
    bip_dist = drawn_values(rng, (m, m) * n, pool) + 1j * drawn_values(rng, (m, m) * n, pool)
    max_entries = data.draw(st.integers(1, m ** (2 * n) + 1), label="max_entries")
    assert_same_bytes(*tables(m, n, born_dist, bip_dist), max_entries)


@pytest.mark.parametrize("max_entries", [4096, 50, 1])
@pytest.mark.parametrize("m, n", [(10, 1), (11, 1), (12, 1), (10, 2), (11, 2), (12, 2), (150, 1)])
def test_outcomes_of_two_and_more_digits(m, n, max_entries):
    # n = 2 truncates the bi-probability table even at 4096; m = 150 writes three digits
    rng = np.random.default_rng(1000 * m + n)
    born_dist = drawn_values(rng, (m,) * n, 0)
    bip_dist = drawn_values(rng, (m, m) * n, 3) + 1j * drawn_values(rng, (m, m) * n, 0)
    assert_same_bytes(*tables(m, n, born_dist, bip_dist), max_entries)


def with_signed_zeros(rng, values):
    values = values.copy()
    values[rng.random(values.shape) < 0.15] = -0.0
    return values


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 13), n=st.integers(1, 3),
       rows=st.integers(0, 60), indent=st.integers(0, 10), pool=st.sampled_from([0, 1, 3]))
def test_columns_render_as_the_row_template_renders(seed, m, n, rows, indent, pool):
    rng = np.random.default_rng(seed)
    outcomes = [rng.integers(0, m, size=rows) for _ in range(2 * n)]
    re, im = with_signed_zeros(rng, drawn_values(rng, (2, rows), pool))
    cases = [({"outcomes": ["%d"] * n, "p": "%r"}, [*outcomes[:n], re]),
             ({"outcomes": ["%d"] * n, "outcomes_minus": ["%d"] * n, "value": ["%r", "%r"]},
              [*outcomes, re, im])]
    for entry, columns in cases:
        pieces = reporting.TableEntries(entry, columns).render(indent)
        assert "".join(pieces) == oracles.TableEntries(entry, columns).render(indent)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 80), pool=st.sampled_from([0, 1, 3, 8]))
def test_partition_keeps_what_the_stable_sort_keeps(seed, size, pool):
    rng = np.random.default_rng(seed)
    score = with_signed_zeros(rng, drawn_values(rng, size, pool))
    special = rng.choice([5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 0.0], size=size)
    score = np.where(rng.random(size) < 0.2, special, score)
    for max_entries in range(1, size + 2):
        kept, truncated = reporting._kept(score, max_entries)
        old_kept, old_truncated = oracles._kept(score, max_entries)
        assert np.array_equal(kept, old_kept) and truncated == old_truncated


def test_dump_peak_memory_stays_below_twice_the_text(rng):
    # an analyze report the size of the generated u4 config's: d = m = 4 at n = 1..4
    source, grid = random_system(rng, 4), random_grid(rng, 4)
    analyses = []
    for n in range(1, 5):
        sub = grid.prefix(n)
        analyses.append({"grid": "main", "n": n,
                         "born": reporting.born_table_json(born_table(source, sub)),
                         "bi_probability": reporting.biprob_table_json(biprob_table(source, sub))})
    tracemalloc.start()
    try:
        text = reporting.dump({"analyses": analyses})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 2_000_000
    assert peak < 2 * len(text)


@pytest.mark.parametrize("max_entries", [1, 3, 5, 9, 12, 15])
def test_truncation_through_runs_of_exact_zero_ties(max_entries):
    # 4 nonzero entries of 16: the cut falls before, inside and after the zero run
    born_dist = np.zeros((4, 4))
    born_dist[2, 1], born_dist[0, 3], born_dist[3, 3] = 0.5, 0.25, 0.25
    bip_dist = np.zeros((2, 2, 2, 2), dtype=complex)
    bip_dist[1, 1, 0, 0], bip_dist[0, 1, 1, 0], bip_dist[1, 0, 0, 1] = 0.5, 0.25j, -0.25j
    assert_same_bytes(*tables(4, 2, born_dist, np.zeros((4, 4) * 2, dtype=complex)), max_entries)
    assert_same_bytes(*tables(2, 2, np.zeros((2, 2)), bip_dist), max_entries)


def test_near_tie_is_ordered_by_the_scalar_abs():
    # abs(z) is r, so r at (0, 0) comes first and alone is kept; numpy's
    # vectorized complex abs gives r plus one ulp for z (numpy 2.4, x86-64),
    # which would put z first
    z = complex(-0.5442589828573099, -0.31630015636915454)
    r = abs(z)
    bip_dist = np.array([[r, z], [0.0, 0.0]], dtype=complex)
    assert_same_bytes(*tables(2, 1, np.array([r, r]), bip_dist), max_entries=1)
    text = reporting.dump(reporting.biprob_table_json(tables(2, 1, np.zeros(2), bip_dist)[1], 1))
    assert json.loads(text)["entries"] == [
        {"outcomes": [0], "outcomes_minus": [0], "value": [r, 0.0]}]


@pytest.mark.parametrize("max_entries", [2, 3, 16])
def test_negative_zeros_and_subnormals(max_entries):
    tiny = [5e-324, -5e-324, 2.2250738585072014e-308 / 3, -0.0, 0.0, 1e-310, -1e-310, 0.0]
    born_dist = np.array(tiny).reshape(2, 2, 2)
    bip_dist = (np.array(tiny * 2) + 1j * np.array(tiny[::-1] * 2)).reshape(2, 2, 2, 2)
    assert_same_bytes(*tables(2, 2, born_dist[0], bip_dist), max_entries)


def test_random_d6_m6_n3_system_truncates(rng):
    source, grid = random_system(rng, 6), random_grid(rng, 3)
    born, bip = born_table(source, grid), biprob_table(source, grid)
    assert bip.dist.size == 6**6 > 4096
    assert reporting.biprob_table_json(bip)["truncated"]
    assert_same_bytes(born, bip)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["born", "bi_probability"])
def test_non_finite_values_raise(bad, where):
    born_dist = np.full((2, 2), 0.25)
    bip_dist = np.full((2, 2, 2, 2), 0.0625 + 0j)
    if where == "born":
        born_dist[1, 0] = bad
    else:
        bip_dist[0, 1, 1, 0] = complex(0.0, bad)
    for module in (reporting, oracles):
        payload, _ = payloads(module, *tables(2, 2, born_dist, bip_dist), 4096)
        with pytest.raises(ValueError, match="Out of range float values"):
            module.dump(payload)
