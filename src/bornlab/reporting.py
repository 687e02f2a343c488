"""Machine-readable report payloads.

Reports are JSON with sorted keys and two-space indentation; floats use the
shortest round-trip decimal. For a fixed (config, seed) the serialized bytes
are identical across runs. Complex numbers are two-element [re, im] arrays.
Roundoff-negative probabilities are clamped to zero at this boundary only.
Table entries stay arrays until ``dump`` writes them column by column, in the
bytes ``json.dumps`` would give: each distinct float bit pattern of a table
is written by one ``repr``, each outcome by a lookup of decimal strings, and
the report text is made by a single join over every piece.
"""

from __future__ import annotations

import json

import numpy as np

from .consistency import ConditionRecord, ConsistencyReport
from .process import BiProbTable, BornTable
from .sampler import RNG_ALGORITHM
from .version import __version__

_PLACEHOLDER = "\0table entries\0"  # no report string holds a NUL


def complex_json(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_json(M):
    return [[complex_json(v) for v in row] for row in np.asarray(M, dtype=complex)]


class TableEntries:
    """The kept entries of a table as arrays, written as a JSON list by ``dump``.

    ``entry`` is one entry with ``"%d"`` in place of each outcome and ``"%r"``
    in place of each float. ``columns`` hold the values, one array per
    placeholder in the order ``json.dumps(sort_keys=True)`` writes them.
    ``render`` writes them column by column into pieces that ``dump`` joins:
    one ``repr`` per distinct float bit pattern, one string per outcome value.
    """

    def __init__(self, entry, columns):
        text = json.dumps(entry, indent=2, sort_keys=True)
        # one more literal than columns: the text before, between and after them
        self.literals = text.replace('"%d"', '"%r"').split('"%r"')
        self.columns = columns

    def render(self, indent):
        """Pieces of the list as ``json.dumps(indent=2)`` writes it on a line indented by ``indent``."""
        for column in self.columns:
            if column.dtype.kind == "f" and not np.isfinite(column).all():
                bad = float(column[~np.isfinite(column)][0])
                raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
        rows, width = len(self.columns[0]), 2 * len(self.columns)
        if not rows:
            return ["[]"]
        pad = "\n" + " " * (indent + 2)
        first, *inner, last = (part.replace("\n", pad) for part in self.literals)
        first = pad[1:] + first
        # a row is value, literal, value, …, literal: its values go in the even slots
        cycle = [None] * width
        cycle[1:width - 1:2] = inner
        cycle[-1] = last + ",\n" + first
        pieces = ["[\n" + first] + cycle * rows
        pieces[-1] = last + "\n" + " " * indent + "]"
        floats = [j for j, column in enumerate(self.columns) if column.dtype.kind == "f"]
        if floats:
            bits = np.concatenate([self.columns[j] for j in floats]).view(np.int64)
            # the int64 view keeps -0.0 apart from 0.0
            distinct, inverse = np.unique(bits, return_inverse=True)
            text = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)[inverse]
            for i, j in enumerate(floats):
                pieces[1 + 2 * j::width] = text[i * rows:(i + 1) * rows].tolist()
        outcomes = [j for j, column in enumerate(self.columns) if column.dtype.kind != "f"]
        if outcomes:
            top = max(int(self.columns[j].max()) for j in outcomes)
            digits = np.array(list(map(str, range(top + 1))), dtype=object)
            for j in outcomes:
                pieces[1 + 2 * j::width] = digits[self.columns[j]].tolist()
        return pieces


def _kept(score, max_entries):
    """Flat C-order indices of the entries kept, and whether any were dropped.

    A truncated table keeps its ``max_entries`` largest scores, ties broken in
    C order, which is lexicographic outcome order: the entries above the k-th
    largest score and the first of those equal to it, found by a partition,
    then sorted stably. Equal scores all fall in one of the two index lists,
    each ascending, so the stable sort sees every tie in C order.
    """
    score = score.ravel()
    if score.size <= max_entries:
        return np.arange(score.size), False
    negated = -score
    kth = np.partition(negated, max_entries - 1)[max_entries - 1]
    above = np.flatnonzero(negated < kth)
    tied = np.flatnonzero(negated == kth)[:max_entries - above.size]
    keep = np.concatenate([above, tied])
    return keep[np.argsort(negated[keep], kind="stable")], True


def born_table_json(table: BornTable, max_entries=4096):
    clamped = table.clamped()
    keep, truncated = _kept(clamped, max_entries)
    return {
        "times": [float(t) for t in table.grid.times],
        "eigenvalues": [float(v) for v in table.eigenvalues],
        "entries": TableEntries(
            {"outcomes": ["%d"] * table.n, "p": "%r"},
            [*np.unravel_index(keep, clamped.shape), clamped.ravel()[keep]],
        ),
        "truncated": truncated,
    }


def biprob_table_json(table: BiProbTable, max_entries=4096):
    dist = table.dist
    # |Q| is hypot(re, im), as the scalar complex abs computes it; numpy's
    # vectorized complex abs can differ in the last bit and reorder near-ties
    keep, truncated = _kept(np.hypot(dist.real, dist.imag), max_entries)
    outcomes = np.unravel_index(keep, dist.shape)
    value = dist.ravel()[keep]
    return {
        "times": [float(t) for t in table.grid.times],
        "eigenvalues": [float(v) for v in table.eigenvalues],
        "entries": TableEntries(
            {"outcomes": ["%d"] * table.n, "outcomes_minus": ["%d"] * table.n,
             "value": ["%r", "%r"]},
            [*outcomes[0::2], *outcomes[1::2], value.real, value.imag],
        ),
        "truncated": truncated,
    }


def record_json(record: ConditionRecord):
    return {
        "condition": record.condition,
        "max_abs_violation": float(record.max_abs_violation),
        "witness": record.witness,
        "threshold": float(record.threshold),
        "verdict": "pass" if record.passed else "fail",
        "coverage": record.coverage,
    }


def consistency_json(report: ConsistencyReport):
    return [record_json(r) for r in report.records]


def envelope(command, cfg, seed=None):
    """Common report header: tool identity, config hash, RNG, tolerances."""
    body = {
        "report_schema": 1,
        "command": command,
        "tool": {
            "name": "bornlab",
            "version": __version__,
            "numpy": np.__version__,
            "rng": RNG_ALGORITHM,
        },
        "config": {"path": cfg.path, "sha256": cfg.sha256, "kind": cfg.kind},
        "tolerances": cfg.tolerances._asdict(),
        "caps": {"table_entries": cfg.table_cap, "joint_dim": cfg.joint_dim_cap},
    }
    if seed is not None:
        body["seed"] = int(seed)
    return body


def dump(payload):
    """``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)`` plus a newline.

    Each ``TableEntries`` is written as the list of entry objects it holds:
    ``json.dumps`` leaves a placeholder string there, and the rendered list
    replaces it at the indentation of its line. The text is one join over the
    skeleton's parts, every block's pieces and the final newline.
    """
    blocks = []

    def defer(obj):
        if not isinstance(obj, TableEntries):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        blocks.append(obj)
        return _PLACEHOLDER

    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=defer)
    parts = text.split(json.dumps(_PLACEHOLDER))
    out = [parts[0]]
    for block, before, after in zip(blocks, parts, parts[1:]):
        line = before[before.rfind("\n") + 1:]
        out += block.render(len(line) - len(line.lstrip(" ")))
        out.append(after)
    out.append("\n")
    return "".join(out)
