"""Scenario configuration files.

Configs are YAML or JSON mappings with a versioned ``schema`` field.
Matrices are nested arrays whose entries are numbers or two-element ``[re,
im]`` arrays; grids are named lists of strictly increasing positive times.
The schema is documented in the README.

``_SECTIONS`` gives the keys of each mapping section, ``_KINDS`` the
model sections each kind reads, and ``COMMANDS`` each command's options,
which the command line reads too, and the kind it needs. A config is
refused if it holds a section its kind does not read, a section that is not
a mapping or a key of neither table; a ``null`` section reads as absent. A
config loaded for a command is refused if it is of another kind than the
command needs, or lacks the ``sampling`` section of a command that takes
``--seed``, before its model is built.

A config whose first non-blank character is ``{`` is JSON, read by ``json.loads``; any
other is read by ``_read_yaml``, which reads the part of YAML that configs use, as
``yaml.safe_load`` reads it, and refuses everything else with its line and column.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import re
import sys
from typing import NamedTuple

import numpy as np

from .errors import BornlabError, ConfigError, DimensionCap, TableTooLarge
from .linalg import Tolerances, require_density
from .process import DEFAULT_JOINT_DIM_CAP, DEFAULT_TABLE_CAP, QuantumSystem, TimeGrid
from .spectral import spectral_decompose

SCHEMA_VERSION = 1

# the tokens of ``_read_yaml``'s flow text after their spaces: a bracket or comma; a scalar, with
# a key's colon if a space or the line's end follows, then a space, comma, closing bracket or the
# end: a number in JSON's grammar or ending in a dot, a word or a quoted string (JSON's escapes bar
# a surrogate's, which YAML decodes alone and JSON in pairs); or the end, a comment included
_TOKEN = re.compile(r"""(\ *)(?:
    ([\[\]{},])
  | (?:(-?(?:0|[1-9][0-9]*))((?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|\.) | ([A-Za-z_][A-Za-z0-9_]*)
      | ("(?:[^"\\]|\\(?:["\\/bfnrt]|u(?![dD][89a-fA-F])[0-9a-fA-F]{4}))*"|'(?:[^']|'')*')
    )(:(?=\ |$))?(?![^ \]},])
  | ($|(?<=\ )\#.*))""", re.X)
# a line holding more than a comment: its indent, the dash of a sequence item, and its content
_LINE = re.compile(r"^( *)(?:(-) +)?([^ #\n].*)", re.M)
_LITERALS = {"true": True, "false": False, "null": None}
# the words YAML 1.1 reads as booleans or null in some capitalisation
_RESERVED = {"yes", "no", "on", "off", *_LITERALS}
# characters PyYAML's reader refuses, or reads as a line break or byte-order mark, and the tab
_UNREAD = re.compile(r"[\x00-\x09\x0b-\x1f\x7f-\x9f\u2028\u2029\ufeff\ufffe\uffff]")

# the keys of each mapping section; a config holds only these sections and the fields below
_SECTIONS = {
    "system": ("H", "F", "rho"),
    "observer": ("H_o", "G_o", "rho_o", "coupling"),
    "qrf": ("F_a", "rho_a", "generator", "H_a", "rates", "G_a", "mu"),
    "sampling": ("N", "seed", "grid"),
    "simulate": ("grid", "probe_times"),
    "tolerances": Tolerances._fields,
    "caps": ("table_entries", "joint_dim"),
    "report": ("max_table_entries",),
}
_TOP_LEVEL_KEYS = {"schema", "kind", "grids", "n_max", *_SECTIONS}
# the sections among system, observer, qrf and simulate that each kind reads, True if required
_KINDS = {
    "unitary": {"system": True},
    "joint": {"system": True, "observer": True, "simulate": False},
    "qrf": {"qrf": True},
}
# each command's options besides -h and --help, and the kind it needs (None: any kind)
COMMANDS = {"analyze": (("--out",), None), "qrf": (("--out",), "qrf"),
            "sample": (("--out", "--seed"), None),
            "simulate": (("--out", "--seed", "--force"), "joint")}


def parse_complex(value, where):
    """A number or an [re, im] pair as a complex, each part read by ``require_number``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(require_number(value, where))
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        return complex(require_number(value[0], where), require_number(value[1], where))
    raise ConfigError("expected a number or a two-element [re, im] array", where)


def parse_matrix(value, where):
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise ConfigError("expected a matrix as a list of rows", where)
    width = len(value[0])
    rows = []
    for i, row in enumerate(value):
        if len(row) != width:
            raise ConfigError(f"row {i} has {len(row)} entries, expected {width}", where)
        rows.append([parse_complex(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows, dtype=complex)


def _known(sec, keys, where=None, refusal="unknown keys"):
    """Refuse the keys of ``sec`` outside ``keys``."""
    if unknown := set(sec) - set(keys):
        raise ConfigError(f"{refusal} {sorted(unknown)}", where)


def _section(data, name):
    """The mapping ``data[name]`` holding only keys of ``_SECTIONS[name]``; absent or null is {}."""
    sec = data.get(name)
    if sec is None:
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"expected a mapping, got {sec!r}", name)
    _known(sec, _SECTIONS[name], name)
    return sec


def require_integer(value, where, minimum=1):
    """``value`` if it is an int ≥ ``minimum`` (a YAML boolean is not), else a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        sign = "positive" if minimum == 1 else "non-negative"
        raise ConfigError(f"expected a {sign} integer, got {value!r}", where)
    return value


def require_number(value, where, minimum=-np.inf, exclusive=False):
    """``value`` as a float if a finite real, not a bool, ≥ ``minimum`` (> if ``exclusive``)."""
    x = float(value) if type(value) in (int, float) and abs(value) <= sys.float_info.max else np.nan
    if not math.isfinite(x) or x < minimum or exclusive and x == minimum:
        bound = "" if minimum == -np.inf else f" {'>' if exclusive else '≥'} {minimum:g}"
        raise ConfigError(f"expected a finite number{bound}, got {value!r}", where)
    return x


@contextlib.contextmanager
def _as_config_error(where):
    """Report a library error raised while building ``where`` as a ConfigError there."""
    try:
        yield
    except (ConfigError, DimensionCap, TableTooLarge):
        raise
    except BornlabError as exc:
        raise ConfigError(str(exc), where) from exc


def _get(sec, key, where):
    if key not in sec:
        raise ConfigError("missing required field", f"{where}.{key}")
    return sec[key]


class SamplingConfig(NamedTuple):
    size: int
    seed: int
    grid: str


class SimulateConfig(NamedTuple):
    grid: str
    probe_times: tuple[float, ...]


class ScenarioConfig:
    """A parsed config: its sections, and in ``raw`` the mapping they were read from."""

    def __init__(self, path, sha256, kind, tolerances: Tolerances, table_cap, joint_dim_cap,
                 grids: dict[str, TimeGrid], n_max, sampling: SamplingConfig | None,
                 simulate: SimulateConfig | None, report_max_entries, raw: dict):
        self.path = path
        self.sha256 = sha256
        self.kind = kind
        self.tolerances = tolerances
        self.table_cap = table_cap
        self.joint_dim_cap = joint_dim_cap
        self.grids = grids
        self.n_max = n_max
        self.sampling = sampling
        self.simulate = simulate
        self.report_max_entries = report_max_entries
        self.raw = raw
        # the kind's top object, built here so malformed matrices fail at load with field names
        self.source = {"unitary": self.build_system, "joint": self.build_joint,
                       "qrf": self.build_qrf}[kind]()

    def grid(self, name):
        return self.grids[name]

    def build_system(self) -> QuantumSystem:
        sec = _section(self.raw, "system")
        with _as_config_error("system"):
            return QuantumSystem.from_operators(
                parse_matrix(_get(sec, "H", "system"), "system.H"),
                parse_matrix(_get(sec, "F", "system"), "system.F"),
                parse_matrix(_get(sec, "rho", "system"), "system.rho"),
                self.tolerances,
            )

    def build_joint(self):
        """The JointScenario of a ``kind: joint`` config; only this kind loads ``observer``."""
        from .observer import JointScenario, ObserverSystem

        sys = self.build_system()
        sec = _section(self.raw, "observer")
        with _as_config_error("observer"):
            obs = ObserverSystem.from_operators(
                parse_matrix(_get(sec, "H_o", "observer"), "observer.H_o"),
                parse_matrix(_get(sec, "G_o", "observer"), "observer.G_o"),
                parse_matrix(_get(sec, "rho_o", "observer"), "observer.rho_o"),
                require_number(_get(sec, "coupling", "observer"), "observer.coupling"),
                self.tolerances,
            )
        return JointScenario(obs=obs, sys=sys, dim_cap=self.joint_dim_cap)

    def build_qrf(self):
        """The QRFModel of a ``kind: qrf`` config; only this kind loads ``qrf``."""
        from .qrf import QRFModel, build_gkls, generator_from_matrix

        sec = _section(self.raw, "qrf")
        with _as_config_error("qrf"):
            F_a = spectral_decompose(
                parse_matrix(_get(sec, "F_a", "qrf"), "qrf.F_a"),
                self.tolerances.cluster,
                self.tolerances.hermiticity,
            )
            rho_a = parse_matrix(_get(sec, "rho_a", "qrf"), "qrf.rho_a")
            if "generator" in sec:
                _known(sec, ("F_a", "rho_a", "generator"), "qrf", "the generator form reads no")
                gen = generator_from_matrix(parse_matrix(sec["generator"], "qrf.generator"))
            else:
                rates_raw = _get(sec, "rates", "qrf")
                if not isinstance(rates_raw, list):
                    raise ConfigError("expected a list of {omega, gamma} entries", "qrf.rates")
                rates = []
                for k, entry in enumerate(rates_raw):
                    if not isinstance(entry, dict) or "omega" not in entry or "gamma" not in entry:
                        raise ConfigError("each rate needs omega and gamma", f"qrf.rates[{k}]")
                    _known(entry, ("omega", "gamma"), f"qrf.rates[{k}]")
                    rates.append((
                        require_number(entry["omega"], f"qrf.rates[{k}].omega"),
                        parse_complex(entry["gamma"], f"qrf.rates[{k}].gamma"),
                    ))
                gen = build_gkls(
                    parse_matrix(_get(sec, "H_a", "qrf"), "qrf.H_a"),
                    parse_matrix(_get(sec, "G_a", "qrf"), "qrf.G_a"),
                    rates,
                    require_number(sec.get("mu", 1.0), "qrf.mu"),
                    self.tolerances.cluster,
                    self.tolerances.hermiticity,
                )
            rho_a = require_density(rho_a, self.tolerances.density, "qrf.rho_a")
            return QRFModel(generator=gen, F_a=F_a, rho_a=rho_a)


class _Refused(Exception):
    """Raised inside the readers with the position of the text they refuse and why."""


def _refusal(text, pos, message):
    """A ConfigError naming the line and column of ``text[pos]``."""
    line, column = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
    return ConfigError(f"line {line}, column {column}: {message}")


def _too_long(integer):
    """Why ``int`` refuses the decimal ``integer``, or "" if it reads it: past its digit limit."""
    digits, limit = len(integer.lstrip("-")), sys.get_int_max_str_digits()
    return f"cannot read an integer of {digits} digits; int reads at most {limit}" \
        if 0 < limit < digits else ""


def _tokens(text, pos, end):
    """The flow tokens of the line ``text[pos:end]`` as (kind, value, position): kind is a
    bracket, a comma, "k" for a key and its colon, "s" for a scalar or "$" for the line's end."""
    tokens = []
    while True:
        match = _TOKEN.match(text, pos, end)
        if match is None:
            # quote the text up to a space, a comma or a closing bracket
            unread = re.compile(r" *(.[^ ,\]}]*)").match(text, pos, end)
            raise _Refused(unread.start(1), f"cannot read {unread[1]!r}")
        _, punct, integer, fraction, word, quoted, colon, stop = match.groups()
        pos, value = match.end(1), None
        if integer:
            if not fraction and (reason := _too_long(integer)):
                raise _Refused(pos, reason)
            value = float(integer + fraction) if fraction else int(integer)
        elif word:
            if word.lower() in _RESERVED and word not in _LITERALS:
                raise _Refused(pos, f"cannot read {word!r}; write true, false or null, or quote it")
            value = _LITERALS.get(word, word)
        elif quoted:
            value = json.loads(quoted) if quoted[0] == '"' else quoted[1:-1].replace("''", "'")
        tokens.append((punct or ("$" if stop is not None else "k" if colon else "s"), value, pos))
        if stop is not None:
            return tokens
        pos = match.end()


def _key(node, token):
    """The string key of ``token``, new to ``node``."""
    kind, key, pos = token
    if kind != "k" or type(key) is not str:
        raise _Refused(pos, "expected a key: a word or a quoted string followed by a colon")
    if key in node:
        raise _Refused(pos, f"duplicate key {key!r}")
    return key


def _flow(tokens, i, whole=False):
    """The flow node at ``tokens[i]`` and the index after it; if ``whole``, it must end the line."""
    kind, node, pos = tokens[i]
    i += 1
    if kind in ("[", "{"):
        close, node = ("]", []) if kind == "[" else ("}", {})
        while tokens[i][0] != close:
            if close == "]":
                item, i = _flow(tokens, i)
                node.append(item)
            else:
                key = _key(node, tokens[i])
                node[key], i = _flow(tokens, i + 1)
            if tokens[i][0] == ",":
                i += 1
            elif tokens[i][0] != close:
                raise _Refused(tokens[i][2], f"expected ',' or '{close}'")
        i += 1
    elif kind != "s":
        raise _Refused(pos, "expected a value")
    if whole and tokens[i][0] != "$":
        raise _Refused(tokens[i][2], "expected the end of the line")
    return node, i


def _block(lines, i, indent):
    """The block mapping whose keys are the lines from ``i`` at ``indent``, and the index after it;
    a key's value is on its line, or is the block sequence or mapping of the lines below it."""
    node = {}
    while i < len(lines) and lines[i][:2] == (indent, False):
        tokens = lines[i][3]
        key = _key(node, tokens[0])
        i += 1
        if tokens[1][0] != "$":
            node[key] = _flow(tokens, 1, whole=True)[0]
        elif i < len(lines) and lines[i][1] and lines[i][0] >= indent:
            node[key], items = [], lines[i][0]
            while i < len(lines) and lines[i][:2] == (items, True):
                node[key].append(_flow(lines[i][3], 0, whole=True)[0])
                i += 1
        elif i < len(lines) and lines[i][0] > indent:
            node[key], i = _block(lines, i, lines[i][0])
        else:
            node[key] = None
    return node, i


def _read_yaml(text):
    """The block mapping in ``text`` as ``yaml.safe_load`` reads it, refused if there is none; a
    CRLF line end reads as LF."""
    text = text.replace("\r\n", "\n")
    try:
        if unread := _UNREAD.search(text):
            raise _Refused(unread.start(), f"cannot read the character {unread[0]!r}")
        lines = [(len(line[1]), bool(line[2]), line.end(1), _tokens(text, line.start(3), line.end()))
                 for line in _LINE.finditer(text)]
        if not lines:
            raise ConfigError("config must be a mapping")
        data, i = _block(lines, 0, lines[0][0])
        if i < len(lines):
            raise _Refused(lines[i][2], f"unexpected {'sequence item' if lines[i][1] else 'indentation'}")
        return data
    except _Refused as exc:
        raise _refusal(text, *exc.args) from None


def _unique(pairs):
    """The JSON object of ``pairs``, refused if a key repeats."""
    if len(node := dict(pairs)) < len(pairs):
        raise _Refused
    return node


def _read_json(text):
    """The JSON document in ``text`` as ``json.loads`` reads it, refused if an object repeats a key."""
    try:
        return json.loads(text, object_pairs_hook=_unique)
    except json.JSONDecodeError as exc:
        raise _refusal(text, exc.pos, exc.msg) from None
    except ValueError:  # an integer past int's digit limit, which json names without a position
        # each string, and each number outside strings with its fraction and exponent
        for match in re.finditer(r'"(?:[^"\\]|\\.)*"|(-?[0-9]+)([.eE][-+.eE0-9]*)?', text):
            if match[1] and not match[2] and (reason := _too_long(match[1])):
                raise _refusal(text, match.start(), reason) from None
        raise
    except _Refused:
        keys = []  # the keys read so far of each open object
        # each string, with the colon after it if it is a key, and each brace outside strings
        for match in re.finditer(r'("(?:[^"\\]|\\.)*")(\s*:)?|[{}]', text):
            if match[0] == "{":
                keys.append(set())
            elif match[0] == "}":
                keys.pop()
            elif match[2]:
                key = json.loads(match[1])
                if key in keys[-1]:
                    raise _refusal(text, match.start(), f"duplicate key {key!r}") from None
                keys[-1].add(key)


def _parse(blob):
    """The document in the config bytes ``blob``: JSON if it opens with ``{``, else YAML."""
    try:
        text = blob.decode("utf-8")
        return (_read_json if text.lstrip(" \t\r\n")[:1] == "{" else _read_yaml)(text)
    except UnicodeDecodeError as exc:
        text = blob[:exc.start].decode("utf-8")
        raise _refusal(text, len(text), f"cannot read byte {blob[exc.start]:#04x}: "
                                        f"the config is not UTF-8 ({exc.reason})") from None
    except (RecursionError, ValueError) as exc:  # deep nesting, or a ValueError no reader placed
        raise ConfigError(str(exc)) from None


def _grid_name(sec, grids, where):
    """The grid that section ``sec`` names, the first grid if it names none."""
    name = sec.get("grid", next(iter(grids)))
    if not isinstance(name, str):
        raise ConfigError(f"expected the name of a grid, got {name!r}", where)
    if name not in grids:
        raise ConfigError(f"unknown grid {name!r}", where)
    return name


def load_config(path, command=None) -> ScenarioConfig:
    """The config at ``path``, its model built; checked against ``command``'s needs if given."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    data = _parse(blob)

    _known(data, _TOP_LEVEL_KEYS, refusal="unknown top-level keys")
    schema, kind = data.get("schema"), data.get("kind")
    if type(schema) is not int or schema != SCHEMA_VERSION:  # a YAML true or 1.0 is not 1
        raise ConfigError(f"expected schema {SCHEMA_VERSION}, got {schema!r}", "schema")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(f"kind must be one of {sorted(_KINDS)}, got {kind!r}", "kind")
    for name in ("system", "observer", "qrf", "simulate"):
        if data.get(name) is None:
            if _KINDS[kind].get(name):
                raise ConfigError(f"kind {kind!r} requires the {name!r} section", name)
        elif name not in _KINDS[kind]:
            raise ConfigError(f"kind {kind!r} reads no {name!r} section", name)

    grids_raw = data.get("grids")
    if not isinstance(grids_raw, dict) or not grids_raw:
        raise ConfigError("at least one named grid is required", "grids")
    grids = {}
    for name, times in grids_raw.items():
        if not isinstance(times, list) or not times:
            raise ConfigError("grid must be a non-empty list of times", f"grids.{name}")
        try:
            grids[name] = TimeGrid(tuple(require_number(t, f"grids.{name}") for t in times))
        except ValueError as exc:
            raise ConfigError(str(exc), f"grids.{name}") from exc

    caps = _section(data, "caps")
    table_cap = require_integer(caps.get("table_entries", DEFAULT_TABLE_CAP),
                                "caps.table_entries")
    joint_cap = require_integer(caps.get("joint_dim", DEFAULT_JOINT_DIM_CAP), "caps.joint_dim")
    n_max = require_integer(data.get("n_max", 3), "n_max")

    sampling = simulate = None
    if data.get("sampling") is not None:
        sec = _section(data, "sampling")
        grid_name = _grid_name(sec, grids, "sampling.grid")
        size = require_integer(_get(sec, "N", "sampling"), "sampling.N")
        seed = require_integer(_get(sec, "seed", "sampling"), "sampling.seed", minimum=0)
        sampling = SamplingConfig(size=size, seed=seed, grid=grid_name)

    if data.get("simulate") is not None:
        sec = _section(data, "simulate")
        grid_name = _grid_name(sec, grids, "simulate.grid")
        grid = grids[grid_name]
        probes = sec.get("probe_times", list(grid.times))
        if not isinstance(probes, list) or not probes:
            raise ConfigError("probe_times must be a non-empty list", "simulate.probe_times")
        probe_times = tuple(require_number(t, "simulate.probe_times") for t in probes)
        for t in probe_times:
            if t < 0 or t > grid.times[-1]:
                raise ConfigError(
                    f"probe time {t} outside the sampling grid span [0, {grid.times[-1]}]",
                    "simulate.probe_times",
                )
        simulate = SimulateConfig(grid=grid_name, probe_times=probe_times)

    report_max = require_integer(_section(data, "report").get("max_table_entries", 4096),
                                 "report.max_table_entries")
    tolerances = Tolerances(**{
        k: None if k == "cluster" and v is None else
        require_number(v, f"tolerances.{k}", 0.0, exclusive=k == "cluster")
        for k, v in _section(data, "tolerances").items()})

    if command is not None:
        options, needs = COMMANDS[command]
        if needs is not None and kind != needs:
            raise ConfigError(f"the {command} command needs {needs!r}, got {kind!r}", "kind")
        if "--seed" in options and sampling is None:
            raise ConfigError(f"{command} requires a sampling section", "sampling")

    return ScenarioConfig(
        path=str(path),
        sha256=hashlib.sha256(blob).hexdigest(),
        kind=kind,
        tolerances=tolerances,
        table_cap=table_cap,
        joint_dim_cap=joint_cap,
        grids=grids,
        n_max=n_max,
        sampling=sampling,
        simulate=simulate,
        report_max_entries=report_max,
        raw=data,
    )
