"""The command line's own parser against the argparse parser it replaced.

``oracles.build_parser`` is that argparse parser, kept verbatim. The grammar
is the same with one exception, abbreviations: argparse read ``--fo`` as
``--force``, and ``bornlab.cli.parse_args`` refuses it. So the drawn command
lines are compared with the oracle made to refuse abbreviations too, and
wherever that changes nothing, with the oracle as it is.
"""

import argparse
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bornlab import cli
from bornlab.cli import main
from bornlab.errors import ConfigError, UsageError

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def argparse_outcome(argv, abbreviations=True):
    """``("ok", command, config, out, seed, force)``, or ``("exit", code)`` where it exits."""
    parser = oracles.build_parser()
    if not abbreviations:
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for p in (parser, *commands.choices.values()):
            p.allow_abbrev = False
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            ns = parser.parse_args(argv)
    except SystemExit as exc:
        return "exit", exc.code
    return "ok", ns.command, ns.config, ns.out, getattr(ns, "seed", None), getattr(ns, "force", False)


def bornlab_outcome(argv):
    try:
        args = cli.parse_args(argv)
    except (UsageError, ConfigError):
        return "exit", 2
    return ("exit", 0) if args is None else ("ok", *args)


OPTIONS = ["--out", "--seed", "--force", "-h", "--help", "--threads", "-x", "-hx"]
ABBREVIATIONS = ["--o", "--ou", "--se", "--see", "--f", "--fo", "--forc", "--h", "--he", "--hel"]
VALUES = ["cfg.yaml", "out.json", "-5", "-2.5", "-.5", "-5.", "-x", "2.7", "1_0", " 7 ", "",
          "-", "-x y", "3", "٣"]
COMMAND = st.sampled_from(["analyze", "qrf", "sample", "simulate", "bogus", ""])
TOKEN = st.one_of(
    st.sampled_from(OPTIONS), st.sampled_from(ABBREVIATIONS), st.sampled_from(VALUES),
    st.just("--"), COMMAND,
    st.builds("{}={}".format, st.sampled_from(OPTIONS + ABBREVIATIONS), st.sampled_from(VALUES)),
)
SOUP = st.builds(lambda head, command, tail: [*head, command, *tail],
                 st.lists(TOKEN, max_size=2), COMMAND, st.lists(TOKEN, max_size=6))


def _given(option, value, joined):
    return [f"{option}={value}"] if joined else [option, value]


# an option with its value, as one token or two, or a token argparse read as an option
OPTION = st.one_of(
    st.just(["--force"]),
    st.builds(_given, st.just("--out"), st.sampled_from(["o.json", "-5", "", "-", "-x y", "a=b"]),
              st.booleans()),
    st.builds(_given, st.just("--seed"), st.sampled_from(["3", "-5", "1_0", " 7 ", "٣", "2.7"]),
              st.booleans()),
    st.sampled_from([["-h"], ["-hx"], ["-x"], ["--"]] + [[o] for o in ABBREVIATIONS]),
)
# the usage block's shape: options before and after the config, which may follow "--"
SPELLED = st.builds(
    lambda command, before, ended, config, after:
        [command, *sum(before, []), *["--"][:ended], config, *sum(after, [])],
    st.sampled_from(["analyze", "qrf", "sample", "simulate"]), st.lists(OPTION, max_size=3),
    st.booleans(), st.sampled_from(["cfg.yaml", "-5", "-x y", "", "-", "-x"]),
    st.lists(OPTION, max_size=3))
ARGV = st.one_of(SOUP, SPELLED)


@settings(max_examples=1000, deadline=None)
@given(ARGV)
def test_parse_args_reads_what_argparse_read(argv):
    """Same values where argparse accepts, same exit code where it exits.

    argparse 3.11 refuses a final ``--`` that the config did not take up (``analyze cfg
    --out x --``, "unrecognized arguments: --"); ``--`` ends the options wherever it stands,
    so a final one is compared with the command line without it.
    """
    oracle_argv = argv[:-1] if argv[-1:] == ["--"] and argv.count("--") == 1 else argv
    # where no abbreviation matters, this is the oracle as it is
    assert bornlab_outcome(argv) == argparse_outcome(oracle_argv, abbreviations=False)


@pytest.mark.parametrize("argv, expected", [
    (["analyze", "c.yaml"], ("analyze", "c.yaml", None, None, False)),
    (["simulate", "--out", "o.json", "c.yaml", "--seed", "7", "--force"],
     ("simulate", "c.yaml", "o.json", 7, True)),
    (["sample", "--out=o.csv", "--seed=-5", "c.yaml"], ("sample", "c.yaml", "o.csv", -5, False)),
    (["qrf", "--out", "a", "c.yaml", "--out", "b"], ("qrf", "c.yaml", "b", None, False)),
    (["sample", "c.yaml", "--seed", "1_0", "--seed", " 3 "], ("sample", "c.yaml", None, 3, False)),
    (["analyze", "--out", "-5", "--", "-c.yaml"], ("analyze", "-c.yaml", "-5", None, False)),
    (["analyze", "--", "--out"], ("analyze", "--out", None, None, False)),
    (["analyze", "c.yaml", "--out", "o.json", "--"], ("analyze", "c.yaml", "o.json", None, False)),
    (["analyze", "-x y"], ("analyze", "-x y", None, None, False)),
])
def test_the_grammar_argparse_accepted(argv, expected):
    assert cli.parse_args(argv) == expected


@pytest.mark.parametrize("argv, token", [
    ([], "missing command"),
    (["bogus", "c.yaml"], "'bogus'"),
    (["--", "analyze", "c.yaml"], "'--'"),
    (["--out", "o.json", "analyze", "c.yaml"], "'o.json'"),
    (["--force", "simulate", "c.yaml"], "'--force'"),
    (["analyze"], "<config>"),
    (["analyze", "c.yaml", "d.yaml"], "'d.yaml'"),
    (["analyze", "c.yaml", "--seed", "3"], "'--seed'"),
    (["sample", "c.yaml", "--force"], "'--force'"),
    (["qrf", "c.yaml", "--threads", "2"], "'--threads'"),
    (["simulate", "c.yaml", "--force=yes"], "'--force=yes'"),
    (["analyze", "c.yaml", "--out"], "--out"),
    (["analyze", "c.yaml", "--out", "-x"], "--out"),
    (["analyze", "c.yaml", "--out", "--"], "--out"),
    (["analyze", "c.yaml", "-hx"], "'-hx'"),
    (["simulate", "c.yaml", "--fo"], "'--fo'"),
    (["sample", "c.yaml", "--se", "3"], "'--se'"),
    (["--he"], "'--he'"),
])
def test_a_refusal_prints_the_usage_and_one_line_naming_the_token(argv, token, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.rsplit("\n", 2)[:2]
    assert usage == cli.USAGE
    assert error.startswith("bornlab: usage error: ") and token in error


def test_abbreviations_are_refused():
    """argparse read each of these as its option; they are now options of no command."""
    for argv in (["simulate", "c.yaml", "--fo"], ["sample", "c.yaml", "--se", "3"],
                 ["analyze", "c.yaml", "--o", "x"], ["--he"], ["analyze", "--hel"]):
        assert argparse_outcome(argv) != ("exit", 2)
        with pytest.raises(UsageError):
            cli.parse_args(argv)


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["analyze", "-h"],
                                  ["simulate", "c.yaml", "--bogus", "--help"], ["--x", "-h"]])
def test_help_prints_the_usage_and_options_to_stdout(argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == f"{cli.USAGE}\n\n{cli.OPTIONS}\n"
    assert captured.err == ""
    assert captured.out.startswith("usage:\n    bornlab analyze  <config> [--out PATH]\n")


@pytest.mark.parametrize("argv, code", [
    (["analyze", "c.yaml", "--bogus", "extra", "-h"], 0),
    (["--force", "-h", "analyze"], 0),
    (["sample", "c.yaml", "-h", "--seed", "2.7"], 0),
    (["sample", "c.yaml", "--seed", "2.7", "-h"], 2),
    (["analyze", "c.yaml", "-hx", "-h"], 2),
    (["simulate", "c.yaml", "--force=", "-h"], 2),
    (["analyze", "c.yaml", "--out", "-h"], 2),
    (["bogus", "-h"], 2),
    (["--", "-h"], 2),
])
def test_help_wins_over_what_is_reported_last_and_not_over_what_stops_the_reading(argv, code):
    assert bornlab_outcome(argv) == argparse_outcome(argv) == ("exit", code)


@pytest.mark.parametrize("seed", ["2.7", "", "x", "1e3"])
def test_a_seed_int_refuses_is_a_config_error(seed, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["sample", str(CONFIGS / "rtn.yaml"), "--out", str(out), "--seed", seed]) == 2
    assert capsys.readouterr().err == (
        f"bornlab: config error: --seed: expected a non-negative integer, got {seed!r}\n")
    assert not out.exists()


def test_options_in_any_order_and_form_run_the_same_command(tmp_path, capsys):
    plain, odd = tmp_path / "plain.csv", tmp_path / "odd.csv"
    assert main(["sample", str(CONFIGS / "rtn.yaml"), "--out", str(plain), "--seed", "0"]) == 0
    assert main(["sample", "--seed=-0", "--out", "x", "--out", str(odd), "--",
                 str(CONFIGS / "rtn.yaml")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"[sample] 20000 trajectories on grid main (seed 0) written to {path}"
        for path in (plain, odd)]
    assert odd.read_bytes() == plain.read_bytes()


def test_a_command_runs_without_docstrings(tmp_path):
    """``python -OO`` strips the docstring that holds the usage text."""
    out = tmp_path / "rabi.json"
    proc = subprocess.run(
        [sys.executable, "-OO", "-m", "bornlab.cli", "analyze", str(CONFIGS / "rabi.yaml"),
         "--out", str(out)], env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
