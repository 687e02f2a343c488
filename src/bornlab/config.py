"""Scenario configuration files.

Configs are YAML (JSON syntax is accepted too) with a versioned ``schema``
field. Matrices are nested arrays whose entries are numbers or two-element
``[re, im]`` arrays; grids are named lists of strictly increasing positive
times. The schema is documented in the README.

``_SECTIONS`` gives the keys of each mapping section, and ``_KINDS`` the
model sections each kind reads. A config is refused if it holds a section
its kind does not read, a section that is not a mapping or a key of neither
table; a ``null`` section reads as absent.

Configs are parsed by libyaml through PyYAML when PyYAML was built with it.
PyYAML's pure-Python parser re-reads a config libyaml refuses, so the error
text keeps its context snippet and caret. It alone reads a config holding a
byte outside ``_LIBYAML_BYTES``: libyaml accepts tabs, ``?``, ``!`` tags,
``|``/``>`` block scalars and an inner byte-order mark where the pure parser
refuses them. Either way a config reads as ``yaml.safe_load`` reads it.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import sys
from typing import NamedTuple

import numpy as np
import yaml

from .errors import BornlabError, ConfigError, DimensionCap, TableTooLarge
from .linalg import Tolerances, require_density
from .process import DEFAULT_JOINT_DIM_CAP, DEFAULT_TABLE_CAP, QuantumSystem, TimeGrid
from .spectral import spectral_decompose

SCHEMA_VERSION = 1

# the bytes of configs libyaml may read: every shipped and generated config
# is made of them, and libyaml and the pure parser agree on text made of them
_LIBYAML_BYTES = (b"\n\r #\"'()*+,-./:=[]_{}~0123456789"
                  b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")

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
    """Refuse the keys of ``sec`` outside ``keys``, sorted by ``str`` as YAML keys may mix types."""
    unknown = set(sec) - set(keys)
    if unknown:
        raise ConfigError(f"{refusal} {sorted(unknown, key=str)}", where)


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
        if name not in self.grids:
            raise ConfigError(f"unknown grid {name!r}", "grids")
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


def _parse_yaml(blob):
    """The YAML document in ``blob`` as ``yaml.safe_load`` reads it, read by libyaml where it can be."""
    if yaml.__with_libyaml__ and not blob.translate(None, _LIBYAML_BYTES):
        try:
            return yaml.load(blob, Loader=yaml.CSafeLoader)
        except yaml.YAMLError:
            pass
    return yaml.safe_load(blob)


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        data = _parse_yaml(blob)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"YAML parse error{loc}: {exc}") from exc
    except ValueError as exc:  # a scalar that reads as an impossible date or time
        raise ConfigError(f"YAML parse error: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping")

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
            grids[str(name)] = TimeGrid(tuple(require_number(t, f"grids.{name}") for t in times))
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
        grid_name = str(sec.get("grid", next(iter(grids))))
        if grid_name not in grids:
            raise ConfigError(f"unknown grid {grid_name!r}", "sampling.grid")
        size = require_integer(_get(sec, "N", "sampling"), "sampling.N")
        seed = require_integer(_get(sec, "seed", "sampling"), "sampling.seed", minimum=0)
        sampling = SamplingConfig(size=size, seed=seed, grid=grid_name)

    if data.get("simulate") is not None:
        sec = _section(data, "simulate")
        grid_name = str(sec.get("grid", next(iter(grids))))
        if grid_name not in grids:
            raise ConfigError(f"unknown grid {grid_name!r}", "simulate.grid")
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
