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


def _sf_gate(cfg: ScenarioConfig, source, grid):
    """SF check of the measured observable at the config-capped order."""
    gate_grid = grid.prefix(cfg.n_max)
    table = biprob_table(source, gate_grid, cfg.table_cap)
    return consistency.check_sf(table, cfg.tolerances.consistency), gate_grid


def cmd_analyze(cfg: ScenarioConfig, out_path):
    source = _analysis_source(cfg)
    analyses = []
    for name, grid in cfg.grids.items():
        for n in range(1, grid.prefix(cfg.n_max).n + 1):
            sub = grid.prefix(n)
            records, born, bip = consistency.analyze(
                source, sub, cfg.tolerances.consistency, cfg.table_cap
            )
            analyses.append({
                "grid": name,
                "n": n,
                "times": [float(t) for t in sub.times],
                "born": reporting.born_table_json(born, cfg.report_max_entries),
                "bi_probability": reporting.biprob_table_json(bip, cfg.report_max_entries),
                "consistency": reporting.consistency_json(records),
            })

    lines = [f"grid={entry['grid']} n={entry['n']} {rec['condition']}: {rec['verdict']} "
             f"(max violation {rec['max_abs_violation']:.3e})"
             for entry in analyses for rec in entry["consistency"]]
    return _report("analyze", cfg, source, out_path, {"analyses": analyses}, lines)


def cmd_simulate(cfg: ScenarioConfig, out_path, seed, force):
    from . import observer  # only a joint config needs it; load_config has loaded it
    js = cfg.source
    sim = cfg.simulate
    grid_name = sim.grid if sim else cfg.sampling.grid
    grid = cfg.grid(grid_name)
    probe_times = sim.probe_times if sim else grid.times

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

    ens = sampler.sample_ensemble(js.sys, grid, cfg.sampling.size, seed)
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

    body = {"sampling": {"N": cfg.sampling.size, "grid": grid_name,
                         "times": [float(t) for t in grid.times]},
            "sf_gate": {**reporting.record_json(sf_record),
                        "gated_times": [float(t) for t in gate_grid.times]},
            "forced": forced, "comparisons": comparisons}
    lines = [f"t={c['t']:g} trace_distance={c['trace_distance']:.4e}" for c in comparisons]
    return _report("simulate", cfg, js.sys, out_path, body, lines, seed)


def cmd_sample(cfg: ScenarioConfig, out_path, seed):
    source = _analysis_source(cfg)
    grid = cfg.grid(cfg.sampling.grid)
    _warn_if_inconsistent(cfg, source, grid)
    ens = sampler.sample_ensemble(source, grid, cfg.sampling.size, seed)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        sampler.export_csv(ens, fh)
    print(
        f"[sample] {ens.size} trajectories on grid {cfg.sampling.grid} "
        f"(seed {seed}) written to {out_path}"
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
        kc, _ = consistency.check_kc(source, checked, cfg.tolerances.consistency, cfg.table_cap)
    except TableTooLarge as exc:
        print(f"[sample] note: KC not checked at n={checked.n}: {exc}", file=sys.stderr)
        return
    if not kc.passed:
        print(
            "[sample] WARNING: Born distributions violate Kolmogorov consistency "
            f"at n={checked.n} (max violation {kc.max_abs_violation:.3e}); trajectories are "
            "measurement-contextual, not samples of an objective process",
            file=sys.stderr,
        )


def cmd_qrf(cfg: ScenarioConfig, out_path):
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
        cm, _ = consistency.check_cm(table, cfg.tolerances.consistency)
        sf = consistency.check_sf(table, cfg.tolerances.consistency)
        pairs = qrf.grid_pairs(sub)
        entry = {
            "grid": name,
            "times": [float(t) for t in sub.times],
            "cm": reporting.record_json(cm),
            "sf": reporting.record_json(sf),
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

    body = {"grids": grids_out, "block_structure": {
        "lower_triangular": structure.lower,
        "upper_triangular": structure.upper,
        "labels": list(structure.labels),
        "lower_violation": structure.lower_violation,
        "upper_violation": structure.upper_violation,
        "label_residuals": structure.label_residuals,
    }}
    lines = [f"lower={structure.lower} upper={structure.upper} labels={list(structure.labels)}"]
    lines += [f"grid={entry['grid']} NCGD: {entry.get('ncgd', {}).get('verdict', 'n/a')} "
              f"CM: {entry['cm']['verdict']} SF: {entry['sf']['verdict']}" for entry in grids_out]
    return _report("qrf", cfg, model, out_path, body, lines)


def _report(command, cfg, source, out_path, body, lines, seed=None):
    """Write ``command``'s report, the envelope plus ``body``, then print its summary ``lines``."""
    payload = {**reporting.envelope(command, cfg, seed=seed), **body,
               "clustering_active": source.dynamics.F.clustered}
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(reporting.dump(payload))
    for line in lines:
        print(f"[{command}] {line}")
    print(f"[{command}] report written to {out_path}")
    return 0


def _default_out(config_path, command):
    stem = Path(config_path).stem
    suffix = "trajectories.csv" if command == "sample" else f"{command}.json"
    return f"{stem}.{suffix}"


# the usage block, printed before a usage error; -h prints the options after it too
# (python -OO strips the docstring: the command line is then read the same, without the text)
USAGE, OPTIONS = __doc__.split("\n\n")[1:3] if __doc__ else ("", "")
# each command's options besides -h and --help, the config kind it needs (None: any kind),
# and whether it samples, so needs a sampling section and takes its seed
COMMANDS = {"analyze": (("--out",), None, False), "qrf": (("--out",), "qrf", False),
            "sample": (("--out", "--seed"), None, True),
            "simulate": (("--out", "--seed", "--force"), "joint", True)}
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
                command, known = token, (*HELP, *COMMANDS[token][0])
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
        if out == "":
            raise UsageError("--out needs a non-empty path")
        out = out or _default_out(config, command)
        cfg = load_config(config)
        _, kind, samples = COMMANDS[command]
        if kind is not None and cfg.kind != kind:
            raise ConfigError(f"the {command} command needs {kind!r}, got {cfg.kind!r}", "kind")
        if samples:
            if cfg.sampling is None:
                raise ConfigError(f"{command} requires a sampling section", "sampling")
            seed = cfg.sampling.seed if seed is None else require_integer(seed, "--seed", minimum=0)
        if command == "analyze":
            return cmd_analyze(cfg, out)
        if command == "simulate":
            return cmd_simulate(cfg, out, seed, force)
        if command == "sample":
            return cmd_sample(cfg, out, seed)
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
