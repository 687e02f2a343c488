"""Config-driven scenario runner.

usage:
    bornlab analyze  <config> [--out PATH]
    bornlab simulate <config> [--out PATH] [--seed S] [--force]
    bornlab sample   <config> [--out PATH] [--seed S]
    bornlab qrf      <config> [--out PATH]

    --out PATH   output path (default: <config stem>.<command>.json, and
                 <config stem>.trajectories.csv for sample)
    --seed S     override the config's sampling seed
    --force      simulate despite a surrogate-field violation
    -h, --help   print this and exit

Options go before or after the config, as ``--out PATH`` or ``--out=PATH``,
and are spelled in full. ``--`` ends them, the last of a repeated option
wins, and a value may look like a negative number (``-5``).

Exit codes: 0 success (verdicts live in the report), 2 usage or config
error, 3 dimension/cap error, 4 surrogate-field refusal, 5 I/O error.
"""

from __future__ import annotations

import math
import re
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
    UsageError,
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
        raise ConfigError(f"the simulate command needs 'joint', got {cfg.kind!r}", "kind")
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
        raise ConfigError(f"the qrf command needs 'qrf', got {cfg.kind!r}", "kind")
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


# the usage block, printed before a usage error; -h prints the options after it too
# (python -OO strips the docstring: the command line is then read the same, without the text)
USAGE, OPTIONS = __doc__.split("\n\n")[1:3] if __doc__ else ("", "")
# the options each command takes, besides -h and --help
COMMANDS = {"analyze": ("--out",), "qrf": ("--out",), "sample": ("--out", "--seed"),
            "simulate": ("--out", "--seed", "--force")}
HELP = ("-h", "--help")
# argparse's test for a negative number: a token that passes it is a value, not an option
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


def _option(token, known):
    """``(name, value)`` if ``token`` reads as an option, None if it is a value.

    ``value`` is the text after ``=``, or after ``-h`` (as argparse, ``-hx`` is ``-h``
    given ``x``), else None. An option not in ``known`` keeps its whole token as its name.
    """
    if token in known:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in known:
        return name, value
    if token.startswith("-h"):
        return "-h", token[2:]
    if token[:1] != "-" or token == "-" or " " in token or _NEGATIVE_NUMBER.match(token):
        return None
    return token, None


def parse_args(argv):
    """``(command, config, out, seed, force)`` from ``argv``, or None for ``-h``/``--help``.

    The tokens are read left to right, as argparse read them. Help, an unknown command, an
    option with a missing value and a flag given a value end the reading where they stand.
    An unknown or misplaced option and an extra argument are reported only once every
    token is read, so a later ``-h`` still prints the help. Refusals raise UsageError, and
    a ``--seed`` that ``int()`` refuses raises ConfigError.
    """
    command = config = out = seed = None
    force, ended, known, late = False, False, HELP, []
    tokens = iter(argv)
    for token in tokens:
        if token == "--" and command is not None and not ended:
            ended = True  # before the command, argparse read "--" as one
            continue
        option = None if ended or token == "--" else _option(token, known)
        if option is None:
            if command is None:
                if token not in COMMANDS:
                    raise UsageError(f"unknown command {token!r}")
                command, known = token, (*HELP, *COMMANDS[token])
            elif config is None:
                config = token
            else:
                late.append(f"extra argument {token!r}")
            continue
        name, value = option
        if name not in known:
            late.append(f"{command} takes no option {name!r}" if command
                        else f"option {name!r} comes before the command")
        elif name in HELP or name == "--force":
            if value is not None:
                raise UsageError(f"{name} takes no value, got {token!r}")
            if name in HELP:
                return None
            force = True
        else:
            if value is None:
                value = next(tokens, None)
                if value is None or _option(value, known) is not None:
                    raise UsageError(f"{name} needs a value")
            if name == "--out":
                out = value
            else:
                try:
                    seed = int(value)
                except ValueError:
                    raise ConfigError(f"expected a non-negative integer, got {value!r}",
                                      "--seed") from None
    if command is None:
        late.append("missing command")
    elif config is None:
        late.append(f"{command} needs a <config>")
    if late:
        raise UsageError(late[0])
    return command, config, out, seed, force


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(f"{USAGE}\n\n{OPTIONS}")
            return 0
        command, config, out, seed, force = args
        out = out or _default_out(config, command)
        cfg = load_config(config)
        if command == "analyze":
            return cmd_analyze(cfg, out)
        if command == "simulate":
            return cmd_simulate(cfg, out, seed=seed, force=force)
        if command == "sample":
            return cmd_sample(cfg, out, seed=seed)
        return cmd_qrf(cfg, out)
    except UsageError as exc:
        print(f"{USAGE}\nbornlab: usage error: {exc}", file=sys.stderr)
        return 2
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
