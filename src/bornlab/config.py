"""Scenario configuration files.

Configs are YAML (JSON syntax is accepted too) with a versioned ``schema``
field. Matrices are nested arrays whose entries are numbers or two-element
``[re, im]`` arrays; grids are named lists of strictly increasing positive
times. The schema is documented in the README.

Configs are parsed by libyaml through PyYAML when PyYAML was built with it.
PyYAML's pure-Python parser re-reads a config libyaml refuses, so the error
text keeps its context snippet and caret. It alone reads a config holding a
byte outside ``_LIBYAML_BYTES``: libyaml accepts tabs, ``?``, ``!`` tags,
``|``/``>`` block scalars and an inner byte-order mark where the pure parser
refuses them. Either way a config reads as ``yaml.safe_load`` reads it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import sys
from typing import NamedTuple

import numpy as np
import yaml

from .errors import BornlabError, ConfigError, DimensionCap, TableTooLarge
from .linalg import Tolerances, require_density, require_hermitian
from .process import DEFAULT_JOINT_DIM_CAP, DEFAULT_TABLE_CAP, QuantumSystem, TimeGrid
from .spectral import spectral_decompose

SCHEMA_VERSION = 1

# the bytes of configs libyaml may read: every shipped and generated config
# is made of them, and libyaml and the pure parser agree on text made of them
_LIBYAML_BYTES = (b"\n\r #\"'()*+,-./:=[]_{}~0123456789"
                  b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")

_TOP_LEVEL_KEYS = {
    "schema", "kind", "tolerances", "caps", "system", "observer", "qrf",
    "grids", "n_max", "sampling", "simulate", "report",
}
_REQUIRED_SECTIONS = {
    "unitary": ("system",),
    "joint": ("system", "observer"),
    "qrf": ("qrf",),
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


def _section(data, name):
    sec = data.get(name)
    if not isinstance(sec, dict):
        raise ConfigError("missing or malformed section", name)
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

    def grid(self, name):
        if name not in self.grids:
            raise ConfigError(f"unknown grid {name!r}", "grids")
        return self.grids[name]

    @functools.cached_property
    def source(self):
        """The kind's top object, built once: a QuantumSystem, JointScenario or QRFModel."""
        return {"unitary": self.build_system, "joint": self.build_joint,
                "qrf": self.build_qrf}[self.kind]()

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
                matrix = parse_matrix(sec["generator"], "qrf.generator")
                H_a = sec.get("H_a")
                H_a = None if H_a is None else parse_matrix(H_a, "qrf.H_a")
                gen = generator_from_matrix(matrix)
                if H_a is not None:  # checked only: the raw generator already holds −i[H_a, ·]
                    require_hermitian(H_a, self.tolerances.hermiticity, "H_a")
            else:
                rates_raw = _get(sec, "rates", "qrf")
                if not isinstance(rates_raw, list):
                    raise ConfigError("expected a list of {omega, gamma} entries", "qrf.rates")
                rates = []
                for k, entry in enumerate(rates_raw):
                    if not isinstance(entry, dict) or "omega" not in entry or "gamma" not in entry:
                        raise ConfigError("each rate needs omega and gamma", f"qrf.rates[{k}]")
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


def _parse_tolerances(sec):
    if not isinstance(sec, dict):
        raise ConfigError("tolerances must be a mapping", "tolerances")
    unknown = set(sec) - set(Tolerances._fields)
    if unknown:
        raise ConfigError(f"unknown tolerance keys {sorted(unknown)}", "tolerances")
    return Tolerances(**{k: None if k == "cluster" and v is None else
                         require_number(v, f"tolerances.{k}", 0.0, exclusive=k == "cluster")
                         for k, v in sec.items()})


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

    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
    if data.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"expected schema {SCHEMA_VERSION}, got {data.get('schema')!r}", "schema")
    kind = data.get("kind")
    if kind not in _REQUIRED_SECTIONS:
        raise ConfigError(f"kind must be one of {sorted(_REQUIRED_SECTIONS)}, got {kind!r}", "kind")
    for required in _REQUIRED_SECTIONS[kind]:
        if required not in data:
            raise ConfigError(f"kind {kind!r} requires the {required!r} section", required)

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

    caps = data.get("caps") or {}
    if not isinstance(caps, dict):
        raise ConfigError("caps must be a mapping", "caps")
    table_cap = require_integer(caps.get("table_entries", DEFAULT_TABLE_CAP),
                                "caps.table_entries")
    joint_cap = require_integer(caps.get("joint_dim", DEFAULT_JOINT_DIM_CAP), "caps.joint_dim")
    n_max = require_integer(data.get("n_max", 3), "n_max")

    sampling = None
    if "sampling" in data:
        sec = data["sampling"]
        if not isinstance(sec, dict):
            raise ConfigError("sampling must be a mapping", "sampling")
        grid_name = str(sec.get("grid", next(iter(grids))))
        if grid_name not in grids:
            raise ConfigError(f"unknown grid {grid_name!r}", "sampling.grid")
        size = require_integer(_get(sec, "N", "sampling"), "sampling.N")
        seed = require_integer(_get(sec, "seed", "sampling"), "sampling.seed", minimum=0)
        sampling = SamplingConfig(size=size, seed=seed, grid=grid_name)

    simulate = None
    if "simulate" in data:
        sec = data["simulate"]
        if not isinstance(sec, dict):
            raise ConfigError("simulate must be a mapping", "simulate")
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

    report_sec = data.get("report") or {}
    if not isinstance(report_sec, dict):
        raise ConfigError("report must be a mapping", "report")
    report_max = require_integer(report_sec.get("max_table_entries", 4096),
                                 "report.max_table_entries")

    cfg = ScenarioConfig(
        path=str(path),
        sha256=hashlib.sha256(blob).hexdigest(),
        kind=kind,
        tolerances=_parse_tolerances(data.get("tolerances") or {}),
        table_cap=table_cap,
        joint_dim_cap=joint_cap,
        grids=grids,
        n_max=n_max,
        sampling=sampling,
        simulate=simulate,
        report_max_entries=report_max,
        raw=data,
    )
    cfg.source  # built at load time, so malformed matrices fail here with field names
    return cfg
