"""End-to-end and per-layer benchmark of the bornlab command line.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 40 --trace 0

Run it from the root of a bornlab checkout; it reads ``src/`` and
``configs/`` there and writes only under ``.perfbench/``.

Workloads (each a fixed list of CLI invocations, see ``WORKLOADS``):

* ``tables``: ``analyze``/``qrf`` on generated unitary and GKLS systems of
  several sizes and on the shipped configs. Nothing is sampled. Work unit:
  table entries requested, Σ(mⁿ + m²ⁿ) over the analysed (grid, n) pairs.
* ``sampling``: ``sample`` on ``rtn``, ``rabi`` and a generated d=4, m=2,
  n=6 system, N=20000 each. Work unit: trajectories.
* ``surrogate``: ``simulate`` on ``dephasing`` and on a generated joint
  config with up to 1024 histories, run with ``--force``. Work unit:
  trajectory × probe-time propagations.

Every invocation runs in a fresh worker process (``worker.py``), one at a
time, so it pays what a user's fresh ``bornlab`` process pays and nothing
carries over. With ``run.py`` itself that is at most two processes. The workers
get ``--threads`` at its default of 1 and a BLAS pinned to one thread.

A run repeats passes over the workload's invocation list for ``--seconds``
(at least two passes) and reports medians over passes:

* ``setup_s``: spawn to "``bornlab.cli`` imported and config loaded",
  summed over the pass;
* ``wall_s``: time inside ``bornlab.cli.main``, summed over the pass;
* ``work_per_s``: the workload's work units over ``wall_s``;
* ``peak_rss_mb``: the largest peak resident set (``VmHWM``) of the pass's workers.

The host's CPU speed drifts by up to 1.9x over seconds to minutes, which
would swamp any change worth measuring. So each worker also times a round of
a fixed reference kernel (``worker.calibrate``, Python and numpy only) every
0.1 s of its call, from a timer signal, and the handler's time is taken out
of the call's. The set-up and call times of a pass are rescaled by
``REFERENCE_ROUND_NS`` over the mean round time of the pass: the times
reported are seconds on a host where one round takes ``REFERENCE_ROUND_NS``.
The mean weights each call by its length, as the host's speed weighs on the
pass; a median, or rounds timed just outside the calls, follow the drift
less well. A pass whose calls are all too short to be sampled uses the round
each worker times right after its call. The raw seconds are kept in the
details file.

The details file gives each median with its pass count, min and max; a run
has too few passes for a percentile with ten samples beyond it. Failures are
reported as ``attempted``/``failed`` and as ``failed_ratio`` in the details,
not as a metric: the ratio is 0 on correct code, and a bound relative to 0
means nothing.

Every output is checked (``checks.py``) and its SHA-256 compared with the
first pass; a failed check, a changed digest, an exception or an
unexpected exit code counts the invocation as failed. With ``--trace 1``
the run alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (``tracing.py``) plus ``trace.overhead_s``, the
traced minus the untraced ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Details (every
sample, digests, the environment record) go to ``.perfbench/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREADS = "1"
BLAS_ENV = {name: BLAS_THREADS for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import generate  # noqa: E402
import tracing  # noqa: E402

MIN_PASSES = 2
RUN_LIMIT_S = 150          # start no pass after the first two that would end later
INVOCATION_TIMEOUT_S = 120
REFERENCE_ROUND_NS = 2_000_000  # nominal time of one worker.calibrate round


@dataclass(frozen=True)
class Invocation:
    command: str
    config: str                      # "gen:<name>" or a path in the checkout
    args: tuple = ()
    expect: dict = field(default_factory=dict)

    @property
    def label(self):
        stem = self.config[4:] if self.config.startswith("gen:") else Path(self.config).stem
        return f"{self.command}-{stem}"


WORKLOADS = {
    # Table kernels, consistency checks, QRF classification and report
    # serialization; d is varied against m²ⁿ so a kernel that trades d² work
    # for entry count shows.
    "tables": [
        Invocation("analyze", "gen:u6"),
        Invocation("analyze", "gen:u4"),
        Invocation("analyze", "gen:u8"),
        Invocation("analyze", "gen:q3"),
        Invocation("qrf", "gen:q3"),
        Invocation("qrf", "gen:q4"),
        Invocation("analyze", "configs/rabi.yaml", expect={"verdicts": {"KC": "fail"}}),
        Invocation("analyze", "configs/quasistatic.yaml", expect={"all_pass": True}),
        Invocation("qrf", "configs/rtn.yaml",
                   expect={"verdicts": {"NCGD": "pass", "CM": "pass", "SF": "pass"}}),
        Invocation("qrf", "configs/rotation.yaml",
                   expect={"verdicts": {"NCGD": "fail", "CM": "fail", "SF": "fail"}}),
    ],
    # Per-trajectory chain, RNG construction and CSV export; at most 4, 8
    # and 64 distinct histories among 20000 trajectories each.
    "sampling": [
        Invocation("sample", "configs/rtn.yaml", expect={"warns": False}),
        Invocation("sample", "configs/rabi.yaml", expect={"warns": True}),
        Invocation("sample", "gen:s4"),
    ],
    # Surrogate averaging and its propagator calls; the wide config has up to
    # 4⁵ histories, so reuse by history is weak there.
    "surrogate": [
        Invocation("simulate", "configs/dephasing.yaml", expect={"sf": "pass", "max_z": True}),
        Invocation("simulate", "gen:wide", ("--force",)),
    ],
}

END_TO_END = ("setup_s", "wall_s", "work_per_s", "peak_rss_mb")
UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "units/s", "peak_rss_mb": "MB"}

# per-layer metric -> (span name, "self"|"calls") for those read straight off the spans
SPAN_METRICS = {
    "config.load_s": ("config.load", "self"),
    "process.born_s": ("process.born", "self"),
    "process.born_calls": ("process.born", "calls"),
    "process.biprob_s": ("process.biprob", "self"),
    "process.biprob_calls": ("process.biprob", "calls"),
    "spectral.heisenberg_calls": ("spectral.heisenberg", "calls"),
    "spectral.heisenberg_s": ("spectral.heisenberg", "self"),
    "consistency.self_s": ("consistency.check", "self"),
    "qrf.table_s": ("qrf.table", "self"),
    "qrf.classify_s": ("qrf.classify", "self"),
    "qrf.expm_calls": ("qrf.expm", "calls"),
    "qrf.expm_s": ("qrf.expm", "self"),
    "qrf.semigroup_calls": ("qrf.semigroup", "calls"),
    "qrf.semigroup_s": ("qrf.semigroup", "self"),
    "sampler.ensemble_s": ("sampler.ensemble", "self"),
    "sampler.csv_s": ("sampler.csv", "self"),
    "observer.average_s": ("observer.average", "self"),
    "observer.exact_s": ("observer.exact", "self"),
    "linalg.propagator_calls": ("linalg.propagator", "calls"),
    "linalg.propagator_s": ("linalg.propagator", "self"),
    "reporting.table_json_s": ("reporting.table_json", "self"),
    "reporting.dump_s": ("reporting.dump", "self"),
    "cli.self_s": (tracing.ROOT, "self"),
}
TABLE_SPANS = ("process.born", "process.biprob", "qrf.table")


def _now_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------- scenarios


def _matrix(rows):
    import numpy as np

    return np.array([[complex(*v) if isinstance(v, list) else complex(v) for v in row]
                     for row in rows])


def _outcome_count(F):
    """Distinct eigenvalues, merged at bornlab's default cluster tolerance."""
    import numpy as np

    w = np.linalg.eigvalsh(F)
    tol = 1e-9 * max(1.0, float(w[-1] - w[0]))
    return 1 + int(np.sum(np.diff(w) > tol))


def scenario_facts(path):
    """Shape of a config, read independently of the program: m, n, N, probes."""
    import yaml

    with open(path, "rb") as fh:
        data = yaml.safe_load(fh)
    section = data["qrf"] if data["kind"] == "qrf" else data["system"]
    m = _outcome_count(_matrix(section["F_a" if data["kind"] == "qrf" else "F"]))
    n_max = int(data.get("n_max", 3))
    lengths = [len(times) for times in data["grids"].values()]
    sampling = data.get("sampling", {})
    sample_grid = data["grids"][sampling.get("grid", next(iter(data["grids"])))]
    simulate = data.get("simulate", {})
    probes = simulate.get("probe_times", data["grids"][simulate.get("grid", next(iter(data["grids"])))])
    orders = [min(n_max, k) for k in lengths]
    return {
        "m": m,
        "N": int(sampling.get("N", 0)),
        "sample_n": len(sample_grid),
        "probes": len(probes),
        "grid_count": len(lengths),
        "analyze_pairs": sum(orders),
        "units": {
            "analyze": sum(m**n + m ** (2 * n) for k in orders for n in range(1, k + 1)),
            "qrf": sum(m**k + m ** (2 * k) for k in orders),
            "sample": int(sampling.get("N", 0)),
            "simulate": int(sampling.get("N", 0)) * len(probes),
        },
    }


def exact_born(path):
    """Exact P_n on the sampling grid, keyed by outcome-value tuples."""
    import itertools

    from bornlab import born_table
    from bornlab.config import load_config

    cfg = load_config(path)
    source = cfg.build_qrf() if cfg.kind == "qrf" else cfg.build_system()
    table = born_table(source, cfg.grid(cfg.sampling.grid), cfg.table_cap)
    probs = table.clamped()
    values = [float(v) for v in table.eigenvalues]
    return {tuple(values[i] for i in idx): float(probs[idx])
            for idx in itertools.product(range(len(values)), repeat=table.n)}


# ---------------------------------------------------------------- environment


def environment(root):
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy: no dict form
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads_pinned": int(BLAS_THREADS),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------- running


class Runner:
    def __init__(self, root, workload, seed):
        self.root = root
        self.work = root / ".perfbench" / "run"
        self.invocations = WORKLOADS[workload]
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "configs").mkdir(parents=True)
        (self.work / "out").mkdir()
        generated = generate.generate(seed)
        self.paths = {}
        for inv in self.invocations:
            if inv.config.startswith("gen:"):
                name = inv.config[4:]
                path = self.work / "configs" / f"{name}.yaml"
                path.write_text(generated[name], encoding="utf-8")
                self.paths[inv.config] = str(path.relative_to(root))
            else:
                self.paths[inv.config] = inv.config
        self.facts = {inv.label: scenario_facts(root / self.paths[inv.config])
                      for inv in self.invocations}
        self.exact = {inv.label: exact_born(root / self.paths[inv.config])
                      for inv in self.invocations if inv.command == "sample"}
        self.units = sum(self.facts[inv.label]["units"][inv.command] for inv in self.invocations)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_ENV)
        self.digests = {}
        self.problems = []

    def output_path(self, inv):
        suffix = "csv" if inv.command == "sample" else "json"
        return self.work / "out" / f"{inv.label}.{suffix}"

    def warm_up(self):
        """Import once so bytecode compilation is not charged to the first pass."""
        subprocess.run([sys.executable, "-c", "import bornlab.cli"], cwd=self.root,
                       env=self.env, check=True, timeout=INVOCATION_TIMEOUT_S)

    def invoke(self, inv, pass_id, traced):
        out = self.output_path(inv)
        base = self.work / f"{pass_id}-{inv.label}"
        job = {
            "argv": [inv.command, self.paths[inv.config], "--out", str(out.relative_to(self.root)),
                     *inv.args],
            "config": self.paths[inv.config],
            "trace": traced,
            "invocation": f"{pass_id}:{inv.label}",
            "trace_path": str(base) + ".trace.json",
            "result_path": str(base) + ".result.json",
        }
        Path(job["result_path"]).unlink(missing_ok=True)
        out.unlink(missing_ok=True)
        job_path = str(base) + ".job.json"
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        with open(str(base) + ".stdout", "wb") as so, open(str(base) + ".stderr", "wb") as se:
            spawn_ns = _now_ns()
            proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), job_path],
                                    cwd=self.root, env=self.env, stdout=so, stderr=se)
            try:
                returncode = proc.wait(timeout=INVOCATION_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                returncode = None
        stderr = Path(str(base) + ".stderr").read_text(encoding="utf-8", errors="replace")
        record = {"label": inv.label, "traced": traced, "problems": []}
        try:
            with open(job["result_path"], encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            record["problems"].append(f"worker wrote no result (exit {returncode}): "
                                      f"{stderr[-400:]}")
            return record
        record.update(
            setup_s=(result["loaded_ns"] - spawn_ns) / 1e9,
            wall_s=(result["end_ns"] - result["start_ns"] - result["paused_ns"]) / 1e9,
            unpaused_share=1 - result["paused_ns"] / (result["end_ns"] - result["start_ns"]),
            rss_mb=result["max_rss_kb"] / 1024.0,
            reference_ns=result["cal_samples_ns"],
            after_ns=result["cal_after_ns"],
        )
        record["problems"] += self.check(inv, result, returncode, out, stderr)
        if traced and not record["problems"]:
            with open(job["trace_path"], encoding="utf-8") as fh:
                record["layers"] = tracing.aggregate(json.load(fh))
            record["problems"] += self.check_trace(record["layers"], result)
        if inv.command == "sample" and out.exists():
            record["csv_bytes"] = out.stat().st_size
        return record

    def check(self, inv, result, returncode, out, stderr):
        if not Path(result["module"]).resolve().is_relative_to(self.root / "src"):
            return [f"bornlab imported from {result['module']}, not from this checkout"]
        if result["error"]:
            return [f"exception: {result['error'].strip().splitlines()[-1]}"]
        if returncode != 0 or result["exit_code"] != 0:
            return [f"exit code {result['exit_code']} (process {returncode}): {stderr[-400:]}"]
        if not out.exists():
            return ["no output file"]
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        first = self.digests.setdefault(inv.label, digest)
        problems = [] if digest == first else [f"output digest {digest[:12]} differs from "
                                              f"the first pass's {first[:12]}"]
        facts = self.facts[inv.label]
        try:
            if inv.command == "analyze":
                problems += checks.check_analyze(out, facts, inv.expect)
            elif inv.command == "qrf":
                problems += checks.check_qrf(out, facts, inv.expect)
            elif inv.command == "sample":
                problems += checks.check_sample(out, facts, self.exact[inv.label])
                problems += checks.check_sample_stderr(stderr, inv.expect)
            else:
                problems += checks.check_simulate(out, facts, inv.expect)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"malformed output: {exc!r}")
        return problems

    @staticmethod
    def check_trace(layers, result):
        """Self times must partition the traced call."""
        wall_ns = result["end_ns"] - result["start_ns"]
        if layers["self_sum_ns"] != layers["root_ns"] or layers["min_self_ns"] < 0:
            return [f"spans overlap: self sum {layers['self_sum_ns']} ns, root "
                    f"{layers['root_ns']} ns, smallest self {layers['min_self_ns']} ns"]
        if layers["root_ns"] > wall_ns:
            return [f"root span {layers['root_ns']} ns exceeds the traced call {wall_ns} ns"]
        return []

    def run_pass(self, pass_id, traced):
        started = time.monotonic()
        records = [self.invoke(inv, pass_id, traced) for inv in self.invocations]
        for r in records:
            for problem in r["problems"]:
                self.problems.append(f"pass {pass_id} {r['label']}: {problem}")
        return {"traced": traced, "records": records, "duration_s": time.monotonic() - started}


def pass_scale(records):
    """``REFERENCE_ROUND_NS`` over the mean reference round of a pass."""
    rounds = ([ns for r in records for ns in r.get("reference_ns", ())]
              or [r["after_ns"] for r in records if "after_ns" in r])
    return REFERENCE_ROUND_NS * len(rounds) / sum(rounds) if rounds else 1.0


def pass_metrics(p, units):
    timed = [r for r in p["records"] if "wall_s" in r]
    raw_setup = sum(r["setup_s"] for r in timed)
    raw_wall = sum(r["wall_s"] for r in timed)
    wall = raw_wall * p["scale"]
    return {
        "setup_s": raw_setup * p["scale"],
        "wall_s": wall,
        "work_per_s": units / wall if wall > 0 else 0.0,
        "peak_rss_mb": max((r["rss_mb"] for r in timed), default=0.0),
        "raw_setup_s": raw_setup,
        "raw_wall_s": raw_wall,
        "scale": p["scale"],
    }


def layer_metrics(p):
    """Per-layer values of one traced pass, summed over its invocations.

    Self times are rescaled like ``wall_s``, by the pass's scale, and the
    reference rounds the timer signal ran inside the spans are taken out in
    proportion.
    """
    self_ns, calls, sums = {}, {}, {}
    distinct = working_set = 0
    for r in p["records"]:
        if "layers" not in r:
            continue
        lay = r["layers"]
        for k, v in lay["self_ns"].items():
            self_ns[k] = self_ns.get(k, 0) + v * p["scale"] * r["unpaused_share"]
        for bucket, src in ((calls, lay["calls"]), (sums, lay["sums"])):
            for k, v in src.items():
                bucket[k] = bucket.get(k, 0) + v
        distinct += lay["distinct_tables"]
        working_set = max(working_set, lay["working_set_bytes"])
    out = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        out[metric] = self_ns.get(span, 0) / 1e9 if kind == "self" else calls.get(span, 0)
    builds = sum(calls.get(s, 0) for s in TABLE_SPANS)
    trajectories = sums.get("trajectories", 0)
    out.update({
        "process.distinct_table_ratio": distinct / builds if builds else 0.0,
        "process.table_entries": sums.get("entries", 0),
        "process.working_set_bytes": working_set,
        "sampler.trajectories": trajectories,
        "sampler.distinct_histories": sums.get("distinct_histories", 0),
        "sampler.history_ratio": sums.get("distinct_histories", 0) / trajectories
        if trajectories else 0.0,
        "sampler.csv_bytes": sum(r.get("csv_bytes", 0) for r in p["records"]),
        "observer.propagations": sums.get("propagations", 0),
        "reporting.bytes": sums.get("bytes", 0),
    })
    return out


def _summary(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)  # before the checks import numpy

    root = Path.cwd().resolve()
    if not (root / "src" / "bornlab" / "cli.py").is_file() or not (root / "configs").is_dir():
        _fail(f"{root} is not a bornlab checkout (needs src/bornlab and configs/)")
    sys.path.insert(0, str(root / "src"))
    import bornlab

    if not Path(bornlab.__file__).resolve().is_relative_to(root / "src"):
        _fail(f"bornlab resolves to {bornlab.__file__}, outside this checkout")

    runner = Runner(root, args.workload, args.seed)
    runner.warm_up()
    passes = []
    started = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(runner.run_pass(len(passes), traced))
        passes[-1]["scale"] = pass_scale(passes[-1]["records"])
        elapsed = time.monotonic() - started
        next_pass = statistics.mean(p["duration_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + next_pass > min(args.seconds, RUN_LIMIT_S):
            break

    records = [r for p in passes for r in p["records"]]
    attempted, failed = len(records), sum(1 for r in records if r["problems"])
    untraced = [pass_metrics(p, runner.units) for p in passes if not p["traced"]]
    e2e = {k: _summary([m[k] for m in untraced])
           for k in (*END_TO_END, "raw_setup_s", "raw_wall_s", "scale")}
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [layer_metrics(p) for p in traced]
        layers = {k: _summary([m[k] for m in per_pass]) for k in per_pass[0]}
        traced_wall = statistics.median(pass_metrics(p, runner.units)["wall_s"] for p in traced)
        overhead = traced_wall - e2e["wall_s"]["median"]
        layers["trace.overhead_s"] = {"median": overhead, "n": len(traced)}
        metrics = {k: {"value": v["median"], "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        layers = None
        metrics = {k: {"value": e2e[k]["median"], "unit": UNITS[k]} for k in END_TO_END}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "work_units": runner.units,
        "environment": environment(root),
        "end_to_end": e2e,
        "failed_ratio": failed / attempted,
        "per_layer": layers,
        "digests": runner.digests,
        "problems": runner.problems,
        "passes": [{"traced": p["traced"], "duration_s": p["duration_s"], "scale": p["scale"],
                    "invocations": [{k: v for k, v in r.items() if k != "layers"}
                                    for r in p["records"]]} for p in passes],
    }
    (root / ".perfbench" / "result.json").write_text(json.dumps(details, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} invocations, {failed} failed (failed_ratio {failed / attempted:.3f}), "
          f"{runner.units} work units per pass")
    print("  environment " + json.dumps(details["environment"]))
    for problem in runner.problems:
        print(f"  FAILED {problem}")
    for k, v in e2e.items():
        print(f"  {k:<12} median {v['median']:.4f} {UNITS.get(k, '' if k == 'scale' else 's')} "
              f"(min {v['min']:.4f}, max {v['max']:.4f}, n={v['n']} passes)")
    if layers:
        for k, v in sorted(layers.items()):
            print(f"  {k:<30} {v['median']:.6g} {layer_unit(k)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "process.working_set_bytes":
        return "bytes_computed"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
