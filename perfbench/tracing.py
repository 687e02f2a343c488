"""Spans around the calls into each bornlab layer, recorded from outside.

``install`` replaces functions at the names their callers look up, so the
program itself is not edited:

* ``born_table``/``biprob_table`` are wrapped in ``bornlab.cli`` and
  ``bornlab.consistency``, because ``functools.singledispatch`` registered
  the original table functions and a wrapper on the registered function would never
  be called;
* ``propagator`` is imported by name into ``observer``, ``sampler``,
  ``spectral`` and ``process``, so each of those globals is wrapped;
* ``expm``, ``semigroup``, ``check_cm`` and ``check_sf`` are globals of
  ``bornlab.qrf``.

A span is ``[name, start_ns, end_ns, parent_index]``; the spans of one
invocation share its id. Spans stay in memory until ``Recorder.dump``. The
benchmark derives self times and counts from them with ``aggregate``; a
span's self time is its duration minus the durations of its direct children,
so the self times of one invocation sum exactly to its root span.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time

ROOT = "cli.main"


class Recorder:
    def __init__(self, invocation):
        self.invocation = invocation
        self.spans = []
        self.stack = []
        self.notes = {}
        self.later = {}

    def call(self, name, fn, args, kwargs, note=None, later=None):
        """Run ``fn`` inside a span.

        ``note`` is a dict of facts known from the arguments. ``later``
        summarizes the result; it runs in ``dump``, after the timed call.
        """
        spans, stack = self.spans, self.stack
        idx = len(spans)
        span = [name, 0, 0, stack[-1] if stack else -1]
        spans.append(span)
        stack.append(idx)
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            stack.pop()
        if note is not None:
            self.notes[idx] = note
        if later is not None:
            self.later[idx] = (later, result)
        return result

    def wrap(self, module, attr, name, note=None, later=None):
        """Replace ``module.attr``; ``name`` and ``note`` may depend on the arguments."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name(args) if callable(name) else name, fn, args, kwargs,
                             note(args) if note else None, later)

        setattr(module, attr, wrapper)

    def dump(self, path):
        notes = {idx: dict(note) for idx, note in self.notes.items()}
        for idx, (later, result) in self.later.items():
            notes.setdefault(idx, {}).update(later(result))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"invocation": self.invocation, "spans": self.spans,
                       "notes": notes}, fh)


def _source_key(source):
    if hasattr(source, "generator"):
        arrays = (source.generator.total.matrix, source.F_a.projectors, source.rho_a)
    else:
        arrays = (source.H, source.F.projectors, source.rho0)
    h = hashlib.sha1()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _table_note(kind):
    def note(args):
        source, grid = args[0], args[1]
        sd = source.F_a if hasattr(source, "F_a") else source.F
        m, d, n = sd.n_outcomes, sd.dim, len(grid.times)
        entries = m ** (2 * n if kind == "biprob" else n)
        # the largest layer of the recursion holds `entries` d×d complex matrices
        return {"key": [_source_key(source), list(grid.times), kind],
                "entries": entries, "working_set": entries * d * d * 16}
    return note


def install(recorder):
    """Wrap every traced bornlab function at the names its callers look up."""
    from bornlab import (cli, consistency, observer, process, qrf, reporting,
                         sampler, spectral)

    for kind in ("born", "biprob"):
        def name(args, kind=kind):
            return "qrf.table" if isinstance(args[0], qrf.QRFModel) else f"process.{kind}"
        for module in (cli, consistency):
            recorder.wrap(module, f"{kind}_table", name, _table_note(kind))
    recorder.wrap(qrf, "qrf_born", "qrf.table", _table_note("born"))
    recorder.wrap(qrf, "qrf_bi_probability", "qrf.table", _table_note("biprob"))

    recorder.wrap(cli, "load_config", "config.load")
    recorder.wrap(process, "heisenberg_projectors", "spectral.heisenberg")
    for module in (observer, sampler, spectral, process):
        recorder.wrap(module, "propagator", "linalg.propagator")
    for attr in ("analyze", "check_kc", "check_cm", "check_sf", "check_bi_consistency",
                 "verify_generalized_relation"):
        recorder.wrap(consistency, attr, "consistency.check")
    for attr in ("check_cm", "check_sf"):
        recorder.wrap(qrf, attr, "consistency.check")
    for attr in ("classify_block_structure", "check_ncgd", "verify_ncgd_cm_equivalence"):
        recorder.wrap(qrf, attr, "qrf.classify")
    recorder.wrap(qrf, "expm", "qrf.expm")
    recorder.wrap(qrf, "semigroup", "qrf.semigroup")

    recorder.wrap(sampler, "sample_ensemble", "sampler.ensemble",
                  later=lambda ens: {
                      "trajectories": ens.size,
                      "distinct_histories": len({t.indices for t in ens.trajectories}),
                  })
    recorder.wrap(sampler, "export_csv", "sampler.csv")
    recorder.wrap(observer, "surrogate_average", "observer.average",
                  note=lambda args: {"propagations": args[1].size})
    recorder.wrap(observer, "exact_reduced_state", "observer.exact")
    for attr in ("born_table_json", "biprob_table_json"):
        recorder.wrap(reporting, attr, "reporting.table_json")
    recorder.wrap(reporting, "dump", "reporting.dump",
                  later=lambda text: {"bytes": len(text.encode("utf-8"))})
    return recorder


def self_times(spans):
    """Self time in ns of every span: duration minus its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def aggregate(trace):
    """Per-name self time and calls, and summed notes, of one invocation's trace."""
    spans, notes = trace["spans"], trace["notes"]
    selfs = self_times(spans)
    self_ns, calls, sums = {}, {}, {}
    distinct_tables, working_set = set(), 0
    for idx, ((name, *_), s) in enumerate(zip(spans, selfs)):
        self_ns[name] = self_ns.get(name, 0) + s
        calls[name] = calls.get(name, 0) + 1
        for key, value in notes.get(str(idx), {}).items():
            if key == "key":
                distinct_tables.add(json.dumps(value))
            elif key == "working_set":
                working_set = max(working_set, value)
            else:
                sums[key] = sums.get(key, 0) + value
    return {
        "self_ns": self_ns,
        "calls": calls,
        "sums": sums,
        "distinct_tables": len(distinct_tables),
        "working_set_bytes": working_set,
        "root_ns": sum(end - start for _, start, end, parent in spans if parent < 0),
        "self_sum_ns": sum(selfs),
        "min_self_ns": min(selfs, default=0),
    }
