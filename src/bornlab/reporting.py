"""Machine-readable report payloads.

Reports are JSON with sorted keys and two-space indentation; floats use the
shortest round-trip decimal. For a fixed (config, seed) the serialized bytes
are identical across runs. Complex numbers are two-element [re, im] arrays.
Roundoff-negative probabilities are clamped to zero at this boundary only.
Table entries stay arrays until ``dump`` writes them through one entry
template per table, in the bytes ``json.dumps`` would give.
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
    replaces it at the indentation of its line.
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
    for block, part in zip(blocks, parts[1:]):
        line = out[-1][out[-1].rfind("\n") + 1:]
        out += [block.render(len(line) - len(line.lstrip(" "))), part]
    return "".join(out) + "\n"
