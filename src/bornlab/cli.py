"""Config-driven scenario runner.

    bornlab analyze  <config> [--out PATH]
    bornlab simulate <config> [--out PATH] [--seed S] [--force]
    bornlab sample   <config> [--out PATH] [--seed S]
    bornlab qrf      <config> [--out PATH]

Exit codes: 0 success (verdicts live in the report), 2 config error,
3 dimension/cap error, 4 surrogate-field refusal, 5 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import consistency, reporting, sampler
from .config import ScenarioConfig, load_config, require_integer
from .errors import (
    BornlabError,
    ConfigError,
    DimensionCap,
    DimensionMismatch,
    SFViolation,
    TableTooLarge,
)
# nothing here calls born_table; it stays bound because perfbench/tracing.py wraps it
from .process import biprob_table, born_table  # noqa: F401


def _analysis_source(cfg: ScenarioConfig):
    return cfg.source.sys if cfg.kind == "joint" else cfg.source


def _clustering_active(cfg: ScenarioConfig, source):
    sd = source.F_a if cfg.kind == "qrf" else source.F
    return bool(sd.clustered)


def _sf_gate(cfg: ScenarioConfig, source, grid):
    """SF check of the measured observable at the config-capped order."""
    gate_grid = grid.prefix(cfg.n_max)
    table = biprob_table(source, gate_grid, cfg.table_cap)
    report = consistency.check_sf(table, cfg.tolerances.consistency)
    return report.record("SF"), gate_grid


def cmd_analyze(cfg: ScenarioConfig, out_path):
    source = _analysis_source(cfg)
    analyses = []
    for name, grid in cfg.grids.items():
        for n in range(1, grid.prefix(cfg.n_max).n + 1):
            sub = grid.prefix(n)
            report, born, bip = consistency.analyze(
                source, sub, cfg.tolerances.consistency, cfg.table_cap
            )
            analyses.append({
                "grid": name,
                "n": n,
                "times": [float(t) for t in sub.times],
                "born": reporting.born_table_json(born, cfg.report_max_entries),
                "bi_probability": reporting.biprob_table_json(bip, cfg.report_max_entries),
                "consistency": reporting.consistency_json(report),
            })

    payload = reporting.envelope("analyze", cfg)
    payload["analyses"] = analyses
    payload["clustering_active"] = _clustering_active(cfg, source)
    _write_text(out_path, reporting.dump(payload))
    for entry in analyses:
        for rec in entry["consistency"]:
            print(
                f"[analyze] grid={entry['grid']} n={entry['n']} "
                f"{rec['condition']}: {rec['verdict']} "
                f"(max violation {rec['max_abs_violation']:.3e})"
            )
    print(f"[analyze] report written to {out_path}")
    return 0


def cmd_simulate(cfg: ScenarioConfig, out_path, seed=None, force=False):
    if cfg.kind != "joint":
        raise ConfigError("simulate requires kind: joint", "kind")
    from . import observer  # only a joint config needs it; load_config has loaded it
    if cfg.sampling is None:
        raise ConfigError("simulate requires a sampling section", "sampling")
    js = cfg.source
    sim = cfg.simulate
    grid_name = sim.grid if sim else cfg.sampling.grid
    grid = cfg.grid(grid_name)
    probe_times = sim.probe_times if sim else grid.times
    use_seed = cfg.sampling.seed if seed is None else require_integer(seed, "--seed", minimum=0)

    sf_record, gate_grid = _sf_gate(cfg, js.sys, grid)
    forced = False
    if not sf_record.passed:
        if not force:
            raise SFViolation(
                f"surrogate-field condition fails at n={gate_grid.n} "
                f"(max |off-diagonal| = {sf_record.max_abs_violation:.3e}); "
                "rerun with --force to simulate anyway"
            )
        forced = True
        print(
            "[simulate] WARNING: SF condition violated; sampled trajectories are "
            "measurement-contextual and the surrogate average need not reproduce "
            "the exact reduced dynamics",
            file=sys.stderr,
        )

    ens = sampler.sample_ensemble(js.sys, grid, cfg.sampling.size, use_seed)
    comparisons = []
    for t in probe_times:
        exact = observer.exact_reduced_state(js, t)
        avg = observer.surrogate_average(js.obs, ens, t)
        cmp_ = observer.compare(exact, avg)
        comparisons.append(
            {
                "t": float(t),
                "exact": reporting.matrix_json(exact),
                "mc_mean": reporting.matrix_json(avg.mean),
                "mc_stderr": [[float(v) for v in row] for row in avg.stderr],
                "trace_distance": float(cmp_.trace_distance),
                "max_z": cmp_.max_z if math.isfinite(cmp_.max_z) else None,
            }
        )

    payload = reporting.envelope("simulate", cfg, seed=use_seed)
    payload["sampling"] = {"N": cfg.sampling.size, "grid": grid_name,
                           "times": [float(t) for t in grid.times]}
    payload["sf_gate"] = reporting.record_json(sf_record)
    payload["sf_gate"]["gated_times"] = [float(t) for t in gate_grid.times]
    payload["forced"] = forced
    payload["comparisons"] = comparisons
    payload["clustering_active"] = _clustering_active(cfg, js.sys)
    _write_text(out_path, reporting.dump(payload))
    for c in comparisons:
        print(
            f"[simulate] t={c['t']:g} trace_distance={c['trace_distance']:.4e}"
        )
    print(f"[simulate] report written to {out_path}")
    return 0


def cmd_sample(cfg: ScenarioConfig, out_path, seed=None):
    if cfg.sampling is None:
        raise ConfigError("sample requires a sampling section", "sampling")
    source = _analysis_source(cfg)
    grid = cfg.grid(cfg.sampling.grid)
    use_seed = cfg.sampling.seed if seed is None else require_integer(seed, "--seed", minimum=0)
    _warn_if_inconsistent(cfg, source, grid)
    ens = sampler.sample_ensemble(source, grid, cfg.sampling.size, use_seed)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        sampler.export_csv(ens, fh)
    print(
        f"[sample] {ens.size} trajectories on grid {cfg.sampling.grid} "
        f"(seed {use_seed}) written to {out_path}"
    )
    return 0


def _warn_if_inconsistent(cfg, source, grid):
    """Trajectories of a KC-violating system are measurement-contextual.

    When the table cap stops the check, a note says that KC was not checked.
    """
    checked = grid.prefix(cfg.n_max)
    if checked.n < 2:
        return
    try:
        report = consistency.check_kc(source, checked, cfg.tolerances.consistency, cfg.table_cap)
    except TableTooLarge as exc:
        print(f"[sample] note: KC not checked at n={checked.n}: {exc}", file=sys.stderr)
        return
    if not report.record("KC").passed:
        print(
            "[sample] WARNING: Born distributions violate Kolmogorov consistency "
            f"at n={checked.n} (max violation "
            f"{report.record('KC').max_abs_violation:.3e}); trajectories are "
            "measurement-contextual, not samples of an objective process",
            file=sys.stderr,
        )


def cmd_qrf(cfg: ScenarioConfig, out_path):
    if cfg.kind != "qrf":
        raise ConfigError("qrf command requires kind: qrf", "kind")
    from . import qrf  # only a qrf config needs it; load_config has loaded it
    model = cfg.source
    first_grid = next(iter(cfg.grids.values()))
    structure = qrf.classify_block_structure(
        model, cfg.tolerances.consistency, sample_times=first_grid.times
    )
    grids_out = []
    for name, grid in cfg.grids.items():
        sub = grid.prefix(cfg.n_max)
        table = biprob_table(model, sub, cfg.table_cap)
        cm = consistency.check_cm(table, cfg.tolerances.consistency).record("CM")
        sf = consistency.check_sf(table, cfg.tolerances.consistency)
        pairs = qrf.grid_pairs(sub)
        entry = {
            "grid": name,
            "times": [float(t) for t in sub.times],
            "cm": reporting.record_json(cm),
            "sf": reporting.record_json(sf.record("SF")),
        }
        if pairs:
            ncgd = qrf.check_ncgd(model, pairs, cfg.tolerances.consistency)
            entry["ncgd"] = reporting.record_json(ncgd)
            try:
                agree = qrf.verify_ncgd_cm_equivalence(model, ncgd, cm,
                                                       cfg.tolerances.consistency)
                entry["ncgd_cm_equivalence"] = {
                    "ncgd": entry["ncgd"], "cm": entry["cm"], "agree": agree,
                }
            except BornlabError as exc:
                entry["ncgd_cm_equivalence"] = {"hypothesis_violated": str(exc)}
        grids_out.append(entry)

    payload = reporting.envelope("qrf", cfg)
    payload["block_structure"] = {
        "lower_triangular": structure.lower,
        "upper_triangular": structure.upper,
        "labels": list(structure.labels),
        "lower_violation": structure.lower_violation,
        "upper_violation": structure.upper_violation,
        "label_residuals": structure.label_residuals,
    }
    payload["grids"] = grids_out
    payload["clustering_active"] = _clustering_active(cfg, model)
    _write_text(out_path, reporting.dump(payload))
    print(
        f"[qrf] lower={structure.lower} upper={structure.upper} "
        f"labels={list(structure.labels)}"
    )
    for entry in grids_out:
        ncgd = entry.get("ncgd", {}).get("verdict", "n/a")
        print(
            f"[qrf] grid={entry['grid']} NCGD: {ncgd} CM: {entry['cm']['verdict']} "
            f"SF: {entry['sf']['verdict']}"
        )
    print(f"[qrf] report written to {out_path}")
    return 0


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _default_out(config_path, command):
    stem = Path(config_path).stem
    suffix = "trajectories.csv" if command == "sample" else f"{command}.json"
    return f"{stem}.{suffix}"


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


def main(argv=None):
    args = build_parser().parse_args(argv)
    out = args.out or _default_out(args.config, args.command)
    try:
        cfg = load_config(args.config)
        if args.command == "analyze":
            return cmd_analyze(cfg, out)
        if args.command == "simulate":
            return cmd_simulate(cfg, out, seed=args.seed, force=args.force)
        if args.command == "sample":
            return cmd_sample(cfg, out, seed=args.seed)
        return cmd_qrf(cfg, out)
    except ConfigError as exc:
        print(f"bornlab: config error: {exc}", file=sys.stderr)
        return 2
    except (DimensionMismatch, DimensionCap, TableTooLarge) as exc:
        print(f"bornlab: dimension/cap error: {exc}", file=sys.stderr)
        return 3
    except SFViolation as exc:
        print(f"bornlab: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"bornlab: I/O error: {exc}", file=sys.stderr)
        return 5
    except BornlabError as exc:
        print(f"bornlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
