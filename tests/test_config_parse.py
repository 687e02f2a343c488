"""How config bytes become a document.

``config._parse`` reads a config whose first non-blank character is ``{``
with ``json.loads`` and any other with ``config._read_yaml``, which reads the
part of YAML that configs use. PyYAML is the oracle here and no step of the
reader. Every shipped and generated config, read with PyYAML unimportable,
gives the objects ``yaml.safe_load`` gives, and so do its JSON forms. Every
other document agrees or is refused: edited configs and documents at the
edges of the YAML subset give what ``yaml.safe_load`` gives, save that a
number in JSON's grammar which YAML 1.1 reads as a string reads as a float,
or are refused with a ConfigError; JSON text gives what ``json.loads`` gives,
or is refused where ``json.loads`` refuses it or an object repeats a key. A
malformed config's refusal names its line and column.
"""

import importlib
import json
import math
import re
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bornlab import config
from bornlab.cli import main
from bornlab.config import load_config
from bornlab.errors import ConfigError

from conftest import perfbench_generator
from test_config_cli import RABI_YAML, write

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "configs").glob("*.yaml"))

GENERATED = [(seed, name, text.encode("utf-8"))
             for seed in range(1, 21) for name, text in perfbench_generator().generate(seed).items()]

JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")


def same(a, b, json_numbers=False):
    """Equal with equal types all the way down, dict keys in the same order
    and floats with the same sign bit; with ``json_numbers``, a float ``a``
    also equals a string ``b`` in JSON's number grammar that reads as it."""
    if json_numbers and type(a) is float and type(b) is str and JSON_NUMBER.fullmatch(b):
        b = float(b)
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k], json_numbers) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y, json_numbers) for x, y in zip(a, b))
    if isinstance(a, float):
        return (a == b or a != a and b != b) and math.copysign(1, a) == math.copysign(1, b)
    return a == b


def test_same_is_strict():
    assert same({"a": [1, -0.0]}, {"a": [1, -0.0]})
    assert not same({"a": 1, "b": 2}, {"b": 2, "a": 1})
    assert not same([0.0], [-0.0])
    assert not same([1], [1.0])
    assert not same([True], [1])
    assert not same([1e-05], ["1e-05"])
    assert same([1e-05, 1e5, -0.0], ["1e-05", "1E+5", "-0e1"], json_numbers=True)
    assert not same([1e-05], ["1.e-05"], json_numbers=True)
    assert not same([1], ["1"], json_numbers=True)
    assert not same(["1e5"], [1e5], json_numbers=True)


def _without_pyyaml(monkeypatch):
    """Make PyYAML unimportable, and any call that parses through it fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("PyYAML was used")
    monkeypatch.setattr(yaml, "load", refuse)
    monkeypatch.setattr(yaml, "safe_load", refuse)
    monkeypatch.setitem(sys.modules, "yaml", None)


def _forms(blob):
    """``blob`` and its JSON forms, compact and indented, with what ``yaml.safe_load`` reads."""
    expected = yaml.safe_load(blob)
    return expected, [blob, json.dumps(expected).encode(), json.dumps(expected, indent=2).encode()]


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_configs_parse_alike(path, monkeypatch):
    expected, forms = _forms(path.read_bytes())
    _without_pyyaml(monkeypatch)
    for blob in forms:
        assert same(config._parse(blob), expected)


def test_generated_configs_parse_alike(monkeypatch):
    expected = [_forms(blob) for _, _, blob in GENERATED]
    _without_pyyaml(monkeypatch)
    for (seed, name, _), (data, forms) in zip(GENERATED, expected):
        for blob in forms:
            assert same(config._parse(blob), data), (seed, name)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_valid_configs_never_reach_the_pure_parser(path, tmp_path, monkeypatch):
    # no PyYAML parser is reached: with yaml unimportable, each config and its JSON forms load
    _, forms = _forms(path.read_bytes())
    generated = [blob for _, _, blob in GENERATED[:7]]
    _without_pyyaml(monkeypatch)
    with pytest.raises(ImportError):
        importlib.import_module("yaml")
    for i, blob in enumerate(forms + generated):
        (tmp_path / f"{i}.yaml").write_bytes(blob)
        load_config(tmp_path / f"{i}.yaml")


def test_non_ascii_comments_are_read_without_pyyaml(monkeypatch):
    text = (ROOT / "configs" / "rabi.yaml").read_text(encoding="utf-8")
    blob = text.replace("schema: 1", "# γ — ε\nschema: 1  # → ≥").encode("utf-8")
    expected = yaml.safe_load(blob)
    _without_pyyaml(monkeypatch)
    assert same(config._parse(blob), expected)


def test_the_readme_schema_example_is_read_without_pyyaml(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("```yaml\nschema: 1") + len("```yaml\n")
    blob = readme[start:readme.index("```", start)].encode("utf-8")
    expected = yaml.safe_load(blob)
    assert expected["tolerances"]["cluster"] is None and expected["qrf"]["rates"]
    _without_pyyaml(monkeypatch)
    assert same(config._parse(blob), expected)


# Malformed configs and the error text ``load_config`` gives for each, naming
# the line and column it refuses; ``main`` prints it after "bornlab: config error: ".
MALFORMED = {
    "unclosed_flow_sequence": ("a: [1, 2\nb: 3\n", "line 1, column 9: expected ',' or ']'"),
    "indented_mapping_value": ("schema: 1\nkind: unitary\n  system: 3\n",
                               "line 3, column 3: unexpected indentation"),
    "leading_tab": ("\tschema: 1\nkind: unitary\n", "line 1, column 1: cannot read the character '\\t'"),
    "unterminated_quote": ('schema: 1\nkind: "unitary\n', 'line 2, column 7: cannot read \'"unitary\''),
    "python_object_tag": ("schema: 1\nkind: !!python/object {}\n",
                          "line 2, column 7: cannot read '!!python/object'"),
    "tab_before_comment": (RABI_YAML.replace("kind: unitary", "kind: unitary\t# comment"),
                           "line 3, column 14: cannot read the character '\\t'"),
    "question_mark_in_flow_key": (
        RABI_YAML.replace("grids:\n  main: [", "grids: {ma?in: [").replace(
            "1.5707963267948966]\n", "1.5707963267948966]}\n"),
        "line 8, column 9: cannot read 'ma?in:'"),
    "comment_after_block_indicator": (RABI_YAML.replace("kind: unitary", "kind: >-# comment\n  unitary"),
                                      "line 3, column 7: cannot read '>-#'"),
    "byte_order_mark_inside": (RABI_YAML.replace("n_max: 2", "\ufeffn_max: 2"),
                               "line 10, column 1: cannot read the character '\\ufeff'"),
    "date_scalar": (RABI_YAML.replace("seed: 7", "seed: 2001-02-30"),
                    "line 11, column 26: cannot read '2001-02-30'"),
    "json_trailing_comma": ('{"schema": 1,\n "kind": "unitary",\n}\n',
                            "line 3, column 1: Expecting property name enclosed in double quotes"),
    "yaml_integer_past_the_digit_limit": (
        "kind: unitary\nschema: " + "1" * 4301 + "\n",
        "line 2, column 9: cannot read an integer of 4301 digits; int reads at most 4300"),
    "json_integer_past_the_digit_limit": (
        '{"kind": "unitary",\n "note": "' + "2" * 4301 + '", "schema": [1.' + "3" * 4301 + ", -"
        + "1" * 4301 + "]}\n",
        "line 2, column 8631: cannot read an integer of 4301 digits; int reads at most 4300"),
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


# the characters beyond Latin-1 that the reader refuses; each is found apart from the Latin-1 ones
WIDE_UNREAD = ["\u2028", "\u2029", "\ufeff", "\ufffe", "\uffff"]


@pytest.mark.parametrize("char", WIDE_UNREAD, ids=[f"U+{ord(c):04X}" for c in WIDE_UNREAD])
def test_each_unread_character_beyond_latin1_is_refused_where_it_stands(tmp_path, char):
    path = write(tmp_path, RABI_YAML.replace("n_max: 2", f"n_max: 2  # {char}"))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"line 10, column 13: cannot read the character {char!r}"


@pytest.mark.parametrize("first", ["\x07", "\u2029"])
@pytest.mark.parametrize("same_line", [False, True], ids=["two_lines", "one_line"])
def test_the_earliest_unread_character_is_refused(tmp_path, first, same_line):
    """An unread Latin-1 character before or after one beyond Latin-1: the earlier is named."""
    second = "\u2029" if first == "\x07" else "\x07"
    if same_line:
        text = RABI_YAML.replace("kind: unitary", f"kind: unitary  # {first}{second}")
    else:
        text = RABI_YAML.replace("kind: unitary", f"kind: unitary  # {first}").replace(
            "n_max: 2", f"n_max: 2  # {second}")
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert str(err.value) == f"line 3, column 18: cannot read the character {first!r}"


# config bytes that are not UTF-8, and the refusal naming the line and column (in characters)
# of the first byte that does not decode
NOT_UTF8 = {
    "line_1": (b"schema: 1\xff\nkind: unitary\n",
               "line 1, column 10: cannot read byte 0xff: the config is not UTF-8 "
               "(invalid start byte)"),
    "later_line": (RABI_YAML.encode("utf-8").replace(b"[0, 0]]\n", b"[0, 0]]  # \xc3\xa9t\xc3\n"),
                   "line 7, column 30: cannot read byte 0xc3: the config is not UTF-8 "
                   "(invalid continuation byte)"),
}


@pytest.mark.parametrize("blob, message", NOT_UTF8.values(), ids=NOT_UTF8)
def test_a_config_that_is_not_utf8_is_refused_at_its_line_and_column(tmp_path, capsys, blob,
                                                                      message):
    path = tmp_path / "scenario.yaml"
    path.write_bytes(blob)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == message
    assert main(["analyze", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"bornlab: config error: {message}\n"


def _agree_or_refuse(blob, read=False):
    """``config._parse(blob)`` gives what ``yaml.safe_load`` gives, save that a number in
    JSON's grammar reads as a float, or, unless ``read``, refuses ``blob``."""
    try:
        got = config._parse(blob)
    except ConfigError as exc:
        assert not read, str(exc)
        return
    assert same(got, yaml.safe_load(blob), json_numbers=True)


# pieces that exercise YAML syntax, including every character class the reader
# refuses and the quoted strings and numbers it reads
PIECES = list(" \t\n\r:,[]{}-#?!|>&*%@`'\"\\~.0e") + [
    "\ufeff", "\u00e9", "\x85", "\u2028", "\x07", ": ", ", ", "- ", "  ", "---", "...", "\r\n",
    "1e5", "1e-05", "1.e5", "1.0e+5", ".inf", "-.nan", "0x1F", "1_0", "1:30", "2001-02-30", "null",
    "yes", "True", "false", "!!str ", "!!float ", "!!python/object ", "! ", "&a ", "*a", "<<: ", "|-",
    ">+", "%YAML 1.1\n---\n", "'it''s'", "'a # b'", '"\\x41"', '"\\u00e9\\/"', '"\\ud83d\\ude00"',
    '"a: b"', "{a: b}", "[1, 2]"]


@settings(max_examples=150, deadline=None)
@given(base=st.sampled_from(SHIPPED),
       edits=st.lists(st.tuples(st.floats(0, 1), st.sampled_from(["insert", "delete", "replace"]),
                                st.sampled_from(PIECES)), min_size=1, max_size=4))
def test_edited_configs_parse_as_the_pure_parser_reads_them(base, edits):
    _agree_or_refuse(_edit(base.read_bytes(), edits))


def _edit(blob, edits):
    """``blob`` with each (where, op, piece) edit applied in turn."""
    blob = bytearray(blob)
    for where, op, piece in edits:
        i = int(where * len(blob))
        piece = piece.encode("utf-8")
        blob[i:i + (0 if op == "insert" else 1 if op == "replace" else 3)] = b"" if op == "delete" else piece
    return bytes(blob)


def _repeats_a_key(text):
    """Whether an object of the JSON ``text`` repeats a key."""
    repeats = []
    json.loads(text, object_pairs_hook=lambda pairs: repeats.append(len(dict(pairs)) < len(pairs)))
    return any(repeats)


# pieces that exercise JSON syntax, and the numbers and escapes JSON reads and YAML does not
JSON_PIECES = list(' \t\n\r:,[]{}"\\-.0eE+') + [
    '"a"', '"a": 1, ', ', "a": 2', "1e-05", "1E5", "-0", "01", "NaN", "-Infinity", "true", "null",
    "\\u00e9", "\\ud83d", '"\\ud83d\\ude00"', "\\x41", "//", "\ufeff"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda values: st.lists(values, max_size=3) | st.dictionaries(st.text(max_size=3), values, max_size=3),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(doc=st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=4),
       indent=st.sampled_from([None, 2]), ascii=st.booleans(),
       edits=st.lists(st.tuples(st.floats(0, 1), st.sampled_from(["insert", "delete", "replace"]),
                                st.sampled_from(JSON_PIECES)), max_size=3))
@example(doc={"a": 1e-05, "b": {"c": [1e300, -0.0]}}, indent=2, ascii=True, edits=[])
@example(doc={"a": {"b": 1}}, indent=None, ascii=True, edits=[(0.9, "insert", ', "a": 2')])
@example(doc={"a": "\U0001f600"}, indent=None, ascii=True, edits=[])
def test_json_text_reads_as_json_loads_reads_it(doc, indent, ascii, edits):
    blob = _edit(json.dumps(doc, indent=indent, ensure_ascii=ascii).encode("utf-8"), edits)
    if blob.lstrip(b" \t\r\n")[:1] != b"{":
        return _agree_or_refuse(blob)
    try:
        expected = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError):
        with pytest.raises(ConfigError):
            config._parse(blob)
        return
    if _repeats_a_key(blob.decode("utf-8")):
        with pytest.raises(ConfigError, match="duplicate key"):
            config._parse(blob)
    else:
        assert same(config._parse(blob), expected)


# scalars inside and at the edges of what ``config._read_yaml`` reads: YAML
# 1.1 booleans and nulls in several capitalisations, numbers YAML reads as
# ints, floats or strings, and quoted strings, each drawn as a key and as a value
SUBSET_SCALARS = ["a", "b_1", "0", "-0", "12", "1.", "-0.0", "2.5", "1.0e+5", "1.0E-5", "true",
                  "false", "null", "'it''s'", '"a # b"', '"\\u00e9\\n"', "''", "[1, 2]", "[1,2,]",
                  "[]", "{a: 1}", "{b: [x, {c: null}]}", '{"c": 1}']
EDGE_SCALARS = ["yes", "No", "ON", "nULL", "Null", "True", "~", "010", "+1", ".5", "1e5", "1e-05",
                "1.0e5", "1.e5", "1_0", "1:30", "0x1F", "2001-02-03", "{a:1}", "[a, No]", "{ON: 1}",
                "- 1", "a b", "x#y", "'a''", '"\\x41"', '"\\ud83d\\ude00"', '{"c":1}']
SUBSET_COMMENTS = ["", " # c", "  # γ — ε"]
# comments YAML reads otherwise than as one line's comment, or not at all
EDGE_COMMENTS = ["#c", "\t# c", " # c\t", " # c\rd: 1", " # c\x85d: 1", " # c\u2028d: 1", " # \x07",
                 " # \ufeff"]


@st.composite
def edge_documents(draw):
    """A block mapping, its values inline, empty, block sequences at the key's indent or
    deeper, or nested mappings at 1 to 4 more spaces, and whether it stays inside the subset.
    A quarter of the documents do; each other one leaves it in one way: it holds one edge
    scalar, as a key or a value, or one edge comment, or it ends its lines with CRLF or
    another line break or starts with a BOM. No mapping repeats a key."""
    edge = draw(st.sampled_from(["none", "scalar", "comment", "break"]))
    scalars = SUBSET_SCALARS + [draw(st.sampled_from(EDGE_SCALARS))] * 4 * (edge == "scalar")
    scalar = st.sampled_from(scalars)
    word = st.sampled_from(["a", "b_1", "x", *scalars[len(SUBSET_SCALARS):]])
    comments = st.sampled_from(SUBSET_COMMENTS + [draw(st.sampled_from(EDGE_COMMENTS))] * (edge == "comment"))
    lines = []
    for key in draw(st.lists(word, min_size=1, max_size=4, unique=True)):
        form = draw(st.sampled_from(["inline", "empty", "same", "deeper", "nested"]))
        comment = draw(comments)
        lines.append(f"{key}: {draw(scalar)}{comment}" if form == "inline" else f"{key}:{comment}")
        indent = " " * draw(st.integers(1, 4))
        items = draw(st.lists(word, max_size=3, unique=True)) if form in ("same", "deeper", "nested") else []
        for item in items:
            item = f"{item}:" + draw(st.sampled_from(["", " " + draw(scalar)])) if form == "nested" \
                else "- " + draw(scalar)
            lines.append(("" if form == "same" else indent) + item + draw(comments))
    end = draw(st.sampled_from(["\n", "\r\n", "\x85", "\u2028"] if edge == "break" else ["\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"] if edge == "break" else [""]))
    return edge == "none", (bom + end.join(lines) + draw(st.sampled_from([end, ""]))).encode("utf-8")


@pytest.mark.parametrize("scalar", SUBSET_SCALARS + EDGE_SCALARS)
def test_each_edge_scalar_parses_as_the_pure_parser_reads_it(scalar):
    # each scalar agrees or is refused, as a key and as a value; the subset's are read as values
    values = (f"a: {scalar}\n", f"a: [{scalar}]\n", f"a: {{b: {scalar}}}\n", f"a:\n- {scalar}\n")
    keys = (f"{scalar}: 1\n", f"a: {{{scalar}: 1}}\n", f"a:\n  {scalar}: 1\n")
    for text in values + keys:
        _agree_or_refuse(text.encode("utf-8"), read=scalar in SUBSET_SCALARS and text in values)


@settings(max_examples=500, deadline=None)
@given(doc=edge_documents())
@example(doc=(False, b"a: 1\nYes:\n"))
@example(doc=(True, b"a:\n  b: 1.0e5\n"))
@example(doc=(True, b"a: -0\nb: -0.0\nc: 1.\nd:"))
@example(doc=(True, b"a:\n- [1]\n- {b: null}\nc:\n   - 2  # c\n"))
@example(doc=(False, b"a:\n  b:\n- 1\n"))
@example(doc=(False, "a: 1  # c\u2028b: 2\n".encode("utf-8")))
@example(doc=(True, b"a: 1\r\nb: 'x # y'  # c\r\n"))
def test_documents_at_the_edges_of_the_subset_parse_as_the_pure_parser_reads_them(doc):
    inside, blob = doc
    _agree_or_refuse(blob, read=inside)
