"""How config bytes become a YAML document.

``config.load_config`` reads configs with libyaml (``yaml.CSafeLoader``) and
hands what libyaml refuses, or what holds a byte the two parsers read
differently, to PyYAML's pure-Python ``yaml.safe_load``. These tests hold the
result to the pure parser's: the same objects for every shipped and generated
config, and byte for byte the same error for malformed ones.
"""

import importlib.util
import math
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import config
from bornlab.cli import main
from bornlab.config import load_config
from bornlab.errors import ConfigError

from test_config_cli import RABI_YAML, write

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "configs").glob("*.yaml"))

needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")


def _generator():
    spec = importlib.util.spec_from_file_location("perfbench_generate", ROOT / "perfbench" / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATED = [(seed, name, text.encode("utf-8"))
             for seed in range(1, 21) for name, text in _generator().generate(seed).items()]


def same(a, b):
    """Equal with equal types all the way down, dict keys in the same order
    and floats with the same sign bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        return (a == b or a != a and b != b) and math.copysign(1, a) == math.copysign(1, b)
    return a == b


def test_same_is_strict():
    assert same({"a": [1, -0.0]}, {"a": [1, -0.0]})
    assert not same({"a": 1, "b": 2}, {"b": 2, "a": 1})
    assert not same([0.0], [-0.0])
    assert not same([1], [1.0])
    assert not same([True], [1])


@needs_libyaml
@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_configs_parse_alike(path):
    blob = path.read_bytes()
    assert same(yaml.load(blob, Loader=yaml.CSafeLoader), yaml.load(blob, Loader=yaml.SafeLoader))


@needs_libyaml
def test_generated_configs_parse_alike():
    for seed, name, blob in GENERATED:
        fast = yaml.load(blob, Loader=yaml.CSafeLoader)
        assert same(fast, yaml.load(blob, Loader=yaml.SafeLoader)), (seed, name)
        assert same(config._parse_yaml(blob), fast), (seed, name)


@needs_libyaml
@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_valid_configs_never_reach_the_pure_parser(path, monkeypatch):
    def refuse(self, stream):
        raise AssertionError("the pure-Python reader was used")
    monkeypatch.setattr(yaml.reader.Reader, "__init__", refuse)
    with pytest.raises(AssertionError):
        yaml.safe_load(b"a: 1")
    load_config(path)
    for _, _, blob in GENERATED[:7]:
        config._parse_yaml(blob)


# Malformed configs and the error text ``load_config`` gave for each before
# libyaml read configs; ``main`` prints it after "bornlab: config error: ".
MALFORMED = {
    "unclosed_flow_sequence": (
        "a: [1, 2\nb: 3\n",
        'YAML parse error at line 2, column 2: while parsing a flow sequence\n'
        '  in "<byte string>", line 1, column 4:\n'
        '    a: [1, 2\n'
        '       ^\n'
        "expected ',' or ']', but got ':'\n"
        '  in "<byte string>", line 2, column 2:\n'
        '    b: 3\n'
        '     ^'),
    "indented_mapping_value": (
        "schema: 1\nkind: unitary\n  system: 3\n",
        'YAML parse error at line 3, column 9: mapping values are not allowed here\n'
        '  in "<byte string>", line 3, column 9:\n'
        '      system: 3\n'
        '            ^'),
    "leading_tab": (
        "\tschema: 1\nkind: unitary\n",
        'YAML parse error at line 1, column 1: while scanning for the next token\n'
        "found character '\\t' that cannot start any token\n"
        '  in "<byte string>", line 1, column 1:\n'
        '    \tschema: 1\n'
        '    ^'),
    "unterminated_quote": (
        'schema: 1\nkind: "unitary\n',
        'YAML parse error at line 3, column 1: while scanning a quoted scalar\n'
        '  in "<byte string>", line 2, column 7:\n'
        '    kind: "unitary\n'
        '          ^\n'
        'found unexpected end of stream\n'
        '  in "<byte string>", line 3, column 1:\n'
        '    \n'
        '    ^'),
    "python_object_tag": (
        "schema: 1\nkind: !!python/object {}\n",
        "YAML parse error at line 2, column 7: could not determine a constructor for the tag "
        "'tag:yaml.org,2002:python/object'\n"
        '  in "<byte string>", line 2, column 7:\n'
        '    kind: !!python/object {}\n'
        '          ^'),
    # libyaml accepts these three, and the first two would load as valid configs
    "tab_before_comment": (
        RABI_YAML.replace("kind: unitary", "kind: unitary\t# comment"),
        'YAML parse error at line 3, column 14: while scanning for the next token\n'
        "found character '\\t' that cannot start any token\n"
        '  in "<byte string>", line 3, column 14:\n'
        '    kind: unitary\t# comment\n'
        '                 ^'),
    "question_mark_in_flow_key": (
        RABI_YAML.replace("grids:\n  main: [", "grids: {ma?in: [").replace(
            "1.5707963267948966]\n", "1.5707963267948966]}\n"),
        'YAML parse error at line 8, column 11: while parsing a flow mapping\n'
        '  in "<byte string>", line 8, column 8:\n'
        '    grids: {ma?in: [0.7853981633974483, 1.5 ... \n'
        '           ^\n'
        "expected ',' or '}', but got '?'\n"
        '  in "<byte string>", line 8, column 11:\n'
        '    grids: {ma?in: [0.7853981633974483, 1.5707 ... \n'
        '              ^'),
    "comment_after_block_indicator": (
        RABI_YAML.replace("kind: unitary", "kind: >-# comment\n  unitary"),
        'YAML parse error at line 3, column 9: while scanning a block scalar\n'
        '  in "<byte string>", line 3, column 7:\n'
        '    kind: >-# comment\n'
        '          ^\n'
        "expected chomping or indentation indicators, but found '#'\n"
        '  in "<byte string>", line 3, column 9:\n'
        '    kind: >-# comment\n'
        '            ^'),
    # libyaml skips a byte-order mark inside the stream; the pure parser reads it as text
    "byte_order_mark_inside": (
        RABI_YAML.replace("n_max: 2", "\ufeffn_max: 2"),
        "unknown top-level keys ['\\ufeffn_max']"),
}


@pytest.mark.parametrize("text, message", MALFORMED.values(), ids=MALFORMED)
def test_malformed_config_error_is_unchanged(tmp_path, capsys, text, message):
    path = write(tmp_path, text)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == message
    capsys.readouterr()
    assert main(["analyze", path, "--out", str(tmp_path / "r.json")]) == 2
    out, stderr = capsys.readouterr()
    assert (out, stderr) == ("", f"bornlab: config error: {message}\n")
    assert not (tmp_path / "r.json").exists()


def _outcome(parse, blob):
    try:
        return "ok", parse(blob)
    except yaml.YAMLError as exc:
        return "error", str(exc)
    except ValueError as exc:                # e.g. an impossible date
        return type(exc).__name__, str(exc)


# pieces that exercise YAML syntax, including every character class the two
# parsers were seen to read differently
PIECES = list(" \t\n\r:,[]{}-#?!|>&*%@`'\"\\~.0e") + [
    "\ufeff", "\u00e9", "\x85", "\u2028", "\x07", ": ", ", ", "- ", "  ", "---", "...",
    "1e5", "1.0e+5", ".inf", "-.nan", "0x1F", "1_0", "1:30", "2001-02-30", "null", "yes",
    "!!str ", "!!float ", "!!python/object ", "! ", "&a ", "*a", "<<: ", "|-", ">+",
    "%YAML 1.1\n---\n", "'it''s'", '"\\x41"', "{a: b}", "[1, 2]"]


@settings(max_examples=150, deadline=None)
@given(base=st.sampled_from(SHIPPED),
       edits=st.lists(st.tuples(st.floats(0, 1), st.sampled_from(["insert", "delete", "replace"]),
                                st.sampled_from(PIECES)), min_size=1, max_size=4))
def test_edited_configs_parse_as_the_pure_parser_reads_them(base, edits):
    blob = bytearray(base.read_bytes())
    for where, op, piece in edits:
        i = int(where * len(blob))
        piece = piece.encode("utf-8")
        blob[i:i + (0 if op == "insert" else 1 if op == "replace" else 3)] = b"" if op == "delete" else piece
    blob = bytes(blob)
    fast, pure = _outcome(config._parse_yaml, blob), _outcome(yaml.safe_load, blob)
    assert fast[0] == pure[0]
    assert fast[1] == pure[1] if fast[0] == "error" else same(fast[1], pure[1])


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure"])
@pytest.mark.parametrize("scalar, problem", [
    ("2001-02-30", "day is out of range for month"),
    ("2001-02-03 25:00:00", "hour must be in 0..23"),
], ids=["impossible-date", "impossible-time"])
def test_impossible_timestamp_is_a_config_error(tmp_path, capsys, monkeypatch, libyaml, scalar, problem):
    # PyYAML's timestamp constructor raises a bare ValueError under either loader
    if libyaml and not yaml.__with_libyaml__:
        pytest.skip("PyYAML built without libyaml")
    monkeypatch.setattr(yaml, "__with_libyaml__", libyaml)
    text = (ROOT / "configs" / "rabi.yaml").read_text(encoding="utf-8")
    path = write(tmp_path, text.replace("seed: 20260801", f"seed: {scalar}"))
    with pytest.raises(ConfigError, match=f"^YAML parse error: {problem}$"):
        load_config(path)
    capsys.readouterr()
    assert main(["analyze", path, "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr() == ("", f"bornlab: config error: YAML parse error: {problem}\n")
