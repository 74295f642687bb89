"""Config schema shared by every experiment kind, with a collecting validator.

A config is a YAML mapping with common keys (kind, sigma, replicates, base_seed,
workers, out_dir, label, equation, thresholds) plus a geometry block (lattice
for the wave equation, heat_grid for the heat equation) and a kind-specific
params block. Every block is described by one table of fields below; parsing
walks a mapping against its table once, so `ExperimentConfig.params` holds
parsed values with defaults filled in. `validate` keeps only the rules that
join several keys or depend on the geometry. What a kind is on the config
side, the points it reads and its plan's geometry included, is its one `Kind`
record in `KINDS`.

Thresholds are declared here, never hard-coded in studies: a summary's
pass/fail flags are evaluated against exactly what the config file says.
"""
from __future__ import annotations

import math
import os
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import yaml

from .errors import ConfigurationError, ConfigurationWarning
from .fluctuations import probe_geometry
from .heat import HeatGridSpec
from .lattice import LatticeSpec
from .quadvar import spatial_geometry, temporal_geometry
from .sigma import SigmaSpec

__all__ = [
    "KINDS",
    "Kind",
    "Threshold",
    "ExperimentConfig",
    "read_config",
    "load_config",
    "config_from_dict",
    "validate",
    "place_reads",
]

MIN_SLOPE_POINTS = 4  # the fewest points a slope, exponent or rate is fitted to


@dataclass(frozen=True)
class Threshold:
    """Closed or half-open acceptance interval for one summary statistic."""

    stat: str
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if self.lo is None and self.hi is None:
            raise ConfigurationError(f"threshold on {self.stat!r} has no bounds")
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ConfigurationError(
                f"threshold on {self.stat!r} has lo {self.lo} > hi {self.hi}"
            )

    def check(self, value: float) -> bool:
        if not np.isfinite(value):
            return False
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    sigma: SigmaSpec
    replicates: int
    base_seed: int = 0
    workers: int = 1
    out_dir: str | None = None
    label: str = "study"
    equation: str = "wave"
    lattice: LatticeSpec | None = None
    heat_grid: HeatGridSpec | None = None
    params: dict = field(default_factory=dict)
    thresholds: tuple[Threshold, ...] = ()

    @property
    def on_heat_grid(self) -> bool:
        """Heat linearize runs on heat_grid; every other study on the lattice."""
        return self.equation == "heat" and KINDS[self.kind].heat

    @property
    def temporal_line(self) -> bool:
        """qv-time and time-axis ladders read the line up in time above (t, x);
        qv-space and space-axis ladders the segment [x_lo, x_hi] at time t."""
        return self.kind == "qv-time" or (self.kind == "ladder" and self.params["axis"] == "time")


@dataclass(frozen=True)
class Kind:
    """What one config kind is on the config side; the KINDS table holds one.

    `params` is its params table. `reads(params)` lists the points its
    replicates read, as (key, value, t, x), and `check(cfg, params, errors, notes)`
    adds the rules that join its params with the geometry; `geometry(cfg,
    trapezoid, points)`, None for the kinds that read only their points,
    builds its estimators' index arrays from the resolved points. Its
    aggregation takes at least `least_replicates(params)` replicates, and its
    estimators read the increments after the solve when `reads_noise(params)`.
    `heat` lets it run on the heat equation too. With fewer replicates than
    the first of `advice`, a run warns of the second. `command` is the CLI
    subcommand that runs it.
    """

    command: str
    params: dict
    reads: Callable[[dict], list[Read]]
    check: Callable[[ExperimentConfig, dict, list[str], list[str]], None]
    geometry: Callable[[ExperimentConfig, LatticeSpec, list], object] | None = None
    least_replicates: Callable[[dict], int] = lambda p: 1
    reads_noise: Callable[[dict], bool] = lambda p: False
    heat: bool = False
    advice: tuple[int, str] = (0, "")

    def warnings(self, replicates: int) -> list[str]:
        """The run warnings of a study with this many replicates."""
        least, cost = self.advice
        return ([f"{replicates} replicates: {cost}, {least}+ recommended"]
                if replicates < least else [])


# -- field parsers: (value, key) -> parsed value, or ConfigurationError naming key


def _refuse(key: str, what: str, value) -> ConfigurationError:
    return ConfigurationError(f"{key} must be {what}, got {value!r}")


def _exactly(kind: type, what: str):
    def parse(value, key: str):
        if type(value) is kind:  # bool is no integer here
            return value
        raise _refuse(key, what, value)
    return parse


_integer = _exactly(int, "an integer")
_text = _exactly(str, "a string")
_flag = _exactly(bool, "true or false")


def _number(value, key: str) -> float:
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise _refuse(key, "a finite number", value)


def _sigma(value, key: str) -> SigmaSpec:
    return SigmaSpec.parse(_text(value, key))


def _path(value, key: str) -> str:
    """A string the file system takes: no NUL byte."""
    text = _text(value, key)
    if "\0" in text:
        raise _refuse(key, "a string without a NUL byte", value)
    return text


def _label(value, key: str) -> str:
    """A file-name prefix: with no path separator, every output stays in out_dir."""
    text = _path(value, key)
    if "/" in text or os.sep in text:
        raise _refuse(key, "a string without a path separator", value)
    return text


def _choice(*options: str):
    def parse(value, key: str) -> str:
        if type(value) is str and value in options:
            return value
        raise _refuse(key, f"one of {options}", value)
    return parse


def _list(item, least: int = 1):
    def parse(value, key: str) -> tuple:
        if type(value) not in (list, tuple) or len(value) < least:
            raise _refuse(key, "a nonempty list" if least else "a list", value)
        return tuple(item(v, f"{key}[{i}]") for i, v in enumerate(value))
    return parse


def _distinct(parse):
    """A list parser that also refuses a repeated value: each value of a
    ladder is one rung, and a rung given twice would count twice in a fit."""
    def distinct(value, key: str) -> tuple:
        out = parse(value, key)
        if len(set(out)) < len(out):
            raise _refuse(key, "a list without repeated values", value)
        return out
    return distinct


def _pair(value, key: str) -> tuple[float, float]:
    """A [t, x] point."""
    if type(value) not in (list, tuple) or len(value) != 2:
        raise _refuse(key, "a [t, x] pair", value)
    return _number(value[0], f"{key}[0]"), _number(value[1], f"{key}[1]")


def _block(table: dict, make=dict):
    """A nested mapping parsed against its own table, then built by `make`."""
    def parse(value, key: str):
        fields = _parse(value, table, key)
        try:
            return make(**fields)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{key}: {exc}") from None
    return parse


_REQUIRED = object()


def _parse(raw, table: dict, where: str) -> dict:
    """Walk a mapping against its table of {key: (parser, default or _REQUIRED)}.

    A key set to None counts as absent. Unknown keys, missing required keys and
    values of the wrong type raise ConfigurationError naming the full key.
    """
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigurationError(
            f"{where or 'config'} must be a mapping, got {type(raw).__name__}"
        )
    prefix = f"{where}." if where else ""
    unknown = sorted(f"{prefix}{k}" for k in raw if k not in table)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {unknown}")
    out = {}
    for key, (parse, default) in table.items():
        value = raw.get(key)
        if value is not None:
            out[key] = parse(value, prefix + key)
        elif default is _REQUIRED:
            raise ConfigurationError(f"config is missing required key {prefix + key!r}")
        else:
            out[key] = default
    return out


# -- tables --------------------------------------------------------------------

_NUMBER = (_number, _REQUIRED)
_NUMBERS = (_distinct(_list(_number)), _REQUIRED)
_LAGS = _block({"t": _NUMBER, "x": _NUMBER, "lags": _NUMBERS})
_SCALES = {"t": _NUMBER, "x": _NUMBER, "scales": _NUMBERS}

_LATTICE = {"h": _NUMBER, "t_max": _NUMBER, "x_lo": _NUMBER, "x_hi": _NUMBER}
_HEAT_GRID = {"dx": _NUMBER, "t_max": _NUMBER, "circumference": _NUMBER, "dt": (_number, None)}
_THRESHOLD = {"stat": (_text, _REQUIRED), "min": (_number, None), "max": (_number, None)}


def _heat_grid(**fields) -> HeatGridSpec:
    """A circumference below 16*sqrt(t_max) lets the periodic images of the heat
    kernel overlap measurably: warned once, when the config is parsed."""
    grid = HeatGridSpec(**fields)
    if grid.circumference < 16.0 * math.sqrt(grid.t_max):
        warnings.warn(f"circumference {grid.circumference} below 16*sqrt(t_max) "
                      f"= {16 * math.sqrt(grid.t_max):.4g}: periodic wrap-around may bias "
                      "increment statistics", ConfigurationWarning, stacklevel=2)
    return grid


def config_from_dict(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a config mapping. Override values that are not None replace the
    config's; an overrides["params"] mapping is merged into params key by key."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config must be a mapping, got {type(raw).__name__}")
    raw = dict(raw)
    for key, value in (overrides or {}).items():
        if key == "params" and isinstance(value, dict):
            params = raw.get("params") or {}
            if not isinstance(params, dict):
                continue  # left for the params table to refuse
            value = {**params, **{k: v for k, v in value.items() if v is not None}}
        if value is not None:
            raw[key] = value
    params = raw.pop("params", None)
    top = _parse(raw, _CONFIG, "")
    top["params"] = _parse(params, KINDS[top["kind"]].params, "params")
    return ExperimentConfig(**top)


# libyaml's parser where it is built (several times faster), else PyYAML's own
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def read_config(path: str) -> dict:
    """The YAML mapping in a config file; unreadable or malformed files raise
    ConfigurationError."""
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config {path} is not valid YAML: {exc}") from exc
    if raw is None:
        raise ConfigurationError(f"{path} is empty")
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config {path} must be a YAML mapping")
    return raw


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    return config_from_dict(read_config(path), overrides)


# -- read points ---------------------------------------------------------------
# Each kind's replicates read the field at a few points; KINDS[kind].reads(params)
# lists them as (key, value, t, x), in the order the replicates read them, with
# key naming the params key or keys that place the point and value the lag or
# scale written there (None for a point placed directly). place_reads resolves
# every one, for validate and for studies.plan_study alike, and the plan hands
# the resolved points, in this order, to KINDS[kind].geometry.
Read = tuple[str, float | None, float, float]


def _reads_simulate(p: dict) -> list[Read]:
    """The probes, then per lag block its base point and one point per lag."""
    out = [(f"params.probes[{i}]", None, t, x) for i, (t, x) in enumerate(p["probes"])]
    for key in ("temporal_lags", "spatial_lags"):
        block = p[key]
        if block:
            t0, x0 = block["t"], block["x"]
            out.append((f"params.{key}.t, params.{key}.x", None, t0, x0))
            for lag in sorted(block["lags"]):
                t, x = (t0 + lag, x0) if key == "temporal_lags" else (t0, x0 + lag)
                out.append((f"params.{key}.lags", lag, t, x))
    return out


def _reads_apex(p: dict) -> list[Read]:
    return [("params.t, params.x", None, p["t"], p["x"])]


def _reads_segment(p: dict) -> list[Read]:
    """The two ends of the segment: their cones hold every cone between."""
    return [("params.t, params.x_lo", None, p["t"], p["x_lo"]),
            ("params.t, params.x_hi", None, p["t"], p["x_hi"])]


def _reads_probes(p: dict) -> list[Read]:
    """(t, x) and (t + scale, x) at every scale."""
    t, x = p["t"], p["x"]
    return _reads_apex(p) + [("params.scales", s, t + s, x) for s in p["scales"]]


def _reads_linearize(p: dict) -> list[Read]:
    """(t, x), then (t, x + lag) at every lag, on either equation."""
    t, x = p["t"], p["x"]
    return _reads_apex(p) + [("params.lags", lag, t, x + lag) for lag in sorted(p["lags"])]


def _plan_line(cfg: ExperimentConfig, lat: LatticeSpec, points: list):
    """The line's geometry at every piece count: a qv study is a one-rung ladder."""
    p = cfg.params
    counts = sorted(p["counts"]) if cfg.kind == "ladder" else [p["n_pieces"]]
    if cfg.temporal_line:
        return temporal_geometry(lat, points[0], counts)
    return spatial_geometry(lat, p["t"], points, counts)


def _plan_probes(cfg: ExperimentConfig, lat: LatticeSpec, points: list,
                 descending: bool = False, shells: bool = False):
    """The probe at the apex, its scales sorted with the level of each top."""
    p = cfg.params
    apex, *tops = points
    scales, levels = zip(*sorted(zip(p["scales"], (n for n, _ in tops)), reverse=descending))
    return probe_geometry(lat, p["t"], apex, scales, levels, shells=shells)


def place_reads(cfg: ExperimentConfig, errors: list[str]) -> list | None:
    """Every point the kind reads, resolved once and in read order: to its
    (level, col) apex on the lattice, whose backward cone is then inside the
    base, or to its (step, site) on the heat grid. A lag or scale at or below
    zero is refused by its sign alone, and one read off a refused base point
    (the read placed directly before it) is skipped, so each bad coordinate
    is refused once. Every refusal is recorded under its key and the value
    written there. None if any read was refused or skipped."""
    grid = cfg.heat_grid
    place = ((lambda t, x: (grid.step_of(t), grid.site_of(x))) if cfg.on_heat_grid
             else cfg.lattice.apex)
    reads = KINDS[cfg.kind].reads(cfg.params)
    points, base = [], None  # base: the last point placed directly, None if refused
    for key, value, t, x in reads:
        where = key if value is None else f"{key} value {value}"
        if value is not None and value <= 0:
            errors.append(f"{where} must be positive")
        elif value is None or base is not None:
            try:
                point = place(t, x)
                points.append(point)
            except ConfigurationError as exc:
                errors.append(f"{where}: {exc}")
                point = None
            if value is None:
                base = point
    return points if len(points) == len(reads) else None


# -- validation ----------------------------------------------------------------


def validate(cfg: ExperimentConfig) -> tuple[list[str], list[str]]:
    """(errors, notes): all violations collected, plus admissibility echoes."""
    errors: list[str] = []
    notes: list[str] = []
    kind = KINDS[cfg.kind]
    need = kind.least_replicates(cfg.params)
    if cfg.replicates < need:
        errors.append(f"replicates must be >= {need} for kind {cfg.kind!r}, "
                      f"got {cfg.replicates}")
    if cfg.workers < 1:
        errors.append(f"workers must be >= 1, got {cfg.workers}")
    if cfg.base_seed < 0 or cfg.base_seed + max(cfg.replicates, 1) > 2 ** 64:
        errors.append("base_seed must keep every replicate seed inside [0, 2^64)")

    if cfg.equation == "heat" and not kind.heat:
        errors.append(f"equation: heat runs only kind 'linearize', got kind {cfg.kind!r}")
    elif not cfg.on_heat_grid and cfg.lattice is None:
        errors.append(f"kind {cfg.kind!r} requires a lattice block")
    if cfg.heat_grid is not None and not kind.heat:
        errors.append(f"heat_grid: kind {cfg.kind!r} never reads it; only linearize "
                      "runs on the heat equation")
    if cfg.on_heat_grid and cfg.heat_grid is None:
        errors.append(f"{cfg.kind} on the heat equation requires a heat_grid block")
    if errors:
        return errors, notes

    if cfg.kind != "simulate" and cfg.sigma.is_zero:
        errors.append(f"sigma: vanishes identically, so u stays 1 and {cfg.kind} "
                      "has no fluctuation to measure")
    try:
        kind.check(cfg, cfg.params, errors, notes)
    except ConfigurationError as exc:
        errors.append(str(exc))
    return errors, notes


def _check_height(cfg: ExperimentConfig, points: list | None, errors: list[str]) -> None:
    """Probes, spatial lines and defects read below their first point: it lies
    on level 1 or above on the lattice, at step 1 or later on the heat grid."""
    if points is not None and points[0][0] < 1:
        errors.append(f"params.t={cfg.params['t']} must be >= " + (
            f"dt={cfg.heat_grid.dt}: the defect needs at least one step" if cfg.on_heat_grid
            else f"h={cfg.lattice.h}: the estimators read the backward cone below t"))


def _divisors(k: int) -> list[int]:
    """Divisors of k in ascending order, pairing each d <= isqrt(k) with k // d."""
    small = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    large = [k // d for d in reversed(small) if d * d != k]
    return small + large


def _piece_counts(cfg: ExperimentConfig, p: dict, errors, notes) -> list[int] | None:
    """Admissible piece counts of a qv study or ladder, from its resolved
    points: N admissible when N divides half the line's length in h, the
    level n0 of a temporal line or the column span m_hi - m_lo of a spatial
    one, so every partition point is a lattice point."""
    points = place_reads(cfg, errors)
    lat, t = cfg.lattice, p["t"]
    if not cfg.temporal_line:
        _check_height(cfg, points, errors)
    if points is None:
        return None
    if cfg.temporal_line:
        length, key = points[0][0], "params.t"
        where = f"temporal piece counts at t={t}, h={lat.h}"
        bad = f"t={t} must be a positive even multiple of h={lat.h}"
    else:
        (_, lo), (_, hi) = points
        length, key = hi - lo, "params.x_lo, params.x_hi"
        span = f"[{p['x_lo']}, {p['x_hi']}]"
        where = f"spatial piece counts on {span}"
        bad = f"{span} must span a positive even multiple of h={lat.h}"
    if length < 2 or length % 2:
        errors.append(f"{key}: {bad}")
        return None
    good = _divisors(length // 2)
    notes.append(f"admissible {where}: {good}")
    return good


def _check_simulate(cfg, p, errors, notes):
    for key in ("temporal_lags", "spatial_lags"):
        block = p[key]
        if block is None:
            continue
        lags = block["lags"]
        if len(lags) < MIN_SLOPE_POINTS:
            notes.append(f"{key}: fitted slopes need >= {MIN_SLOPE_POINTS} points, "
                         f"got {len(lags)}")
    place_reads(cfg, errors)


def _check_qv(cfg, p, errors, notes):
    good = _piece_counts(cfg, p, errors, notes)
    if good is not None and p["n_pieces"] not in good:
        errors.append(
            f"params.n_pieces value {p['n_pieces']} is not admissible; choose one of {good}"
        )


def _check_clt(cfg, p, errors, notes):
    _check_height(cfg, place_reads(cfg, errors), errors)
    if p["standardization"] == "shell" and not cfg.sigma.is_constant:
        errors.append("params.standardization: shell standardization requires a constant sigma")
    if cfg.replicates < 500:
        notes.append(
            f"warning: {cfg.replicates} replicates gives a weak distribution test; "
            "500+ recommended"
        )


def _check_lil(cfg, p, errors, notes):
    _check_height(cfg, place_reads(cfg, errors), errors)
    t, scales = p["t"], p["scales"]
    for s in scales:
        if s > t / 8.0 + 1e-12:
            errors.append(f"params.scales value {s} exceeds t/8 = {t / 8}")
        if s > 0.0 and math.log(1.0 / s) <= 1.0:
            errors.append(
                f"params.scales value {s} is too coarse for an iterated-logarithm "
                f"rate: loglog(1/s) must be positive, so s < 1/e"
            )
    if len(scales) < 5:
        notes.append(
            f"iterated-logarithm grids are meant to span >= 4 dyadic halvings "
            f"below t/8; got {len(scales)} scales"
        )


def _check_mart(cfg, p, errors, notes):
    _check_height(cfg, place_reads(cfg, errors), errors)
    if len(p["scales"]) < MIN_SLOPE_POINTS:
        notes.append(f"fitted exponents need >= {MIN_SLOPE_POINTS} scales")


def _check_linearize(cfg, p, errors, notes):
    lags = p["lags"]
    if len(lags) < 2:
        errors.append("params.lags: linearize needs at least 2 lags to compare scales")
    if cfg.on_heat_grid and max(lags) >= cfg.heat_grid.circumference:
        errors.append("params.lags: largest lag wraps around the circle; "
                      "enlarge circumference")
    _check_height(cfg, place_reads(cfg, errors), errors)


def _check_ladder(cfg, p, errors, notes):
    counts = p["counts"]
    if len(counts) < MIN_SLOPE_POINTS:
        notes.append(f"fitted rates need >= {MIN_SLOPE_POINTS} ladder points")
    for key in ("x_lo", "x_hi") if p["axis"] == "time" else ("x",):
        if p[key] is not None:
            errors.append(f"params.{key}: a {p['axis']}-axis ladder never reads it")
    if p["axis"] == "time" and p["x"] is None:
        errors.append("a time-axis ladder needs params.x")
        return
    if p["axis"] == "space" and (p["x_lo"] is None or p["x_hi"] is None):
        errors.append("a space-axis ladder needs params.x_lo and params.x_hi")
        return
    good = _piece_counts(cfg, p, errors, notes)
    if good is None:
        return
    bad = [n for n in counts if n not in good]
    if bad:
        errors.append(f"params.counts values {bad} are not admissible; choose from {good}")


# -- the kinds -----------------------------------------------------------------

# in the order `kind must be one of` lists them; README's config section lists
# the same params
KINDS = {
    "simulate": Kind(
        "simulate",
        {"probes": (_list(_pair, least=0), ()),
         "temporal_lags": (_LAGS, None),
         "spatial_lags": (_LAGS, None),
         "snapshot": (_flag, False)},
        _reads_simulate, _check_simulate, least_replicates=lambda p: 2),
    "qv-time": Kind(
        "qv", {"t": _NUMBER, "x": _NUMBER, "n_pieces": (_integer, _REQUIRED)},
        _reads_apex, _check_qv, _plan_line, least_replicates=lambda p: 2, reads_noise=lambda p: True),
    "qv-space": Kind(
        "qv", {"t": _NUMBER, "x_lo": _NUMBER, "x_hi": _NUMBER, "n_pieces": (_integer, _REQUIRED)},
        _reads_segment, _check_qv, _plan_line, least_replicates=lambda p: 2),
    "clt": Kind(
        "clt", {**_SCALES, "standardization": (_choice("trace", "shell"), "trace")},
        _reads_probes, _check_clt, partial(_plan_probes, descending=True),
        advice=(500, "KS power too low")),
    "lil": Kind("lil", _SCALES, _reads_probes, _check_lil, _plan_probes),
    "mart": Kind("mart", _SCALES, _reads_probes, _check_mart, partial(_plan_probes, shells=True),
                 least_replicates=lambda p: 2, reads_noise=lambda p: True),
    "linearize": Kind("linearize", {"t": _NUMBER, "x": _NUMBER, "lags": _NUMBERS},
                      _reads_linearize, _check_linearize, heat=True),
    # a time-axis ladder reads its apex and the increments; a space-axis one
    # reads its segment, and its summary carries standard errors
    "ladder": Kind(
        "qv",
        {"axis": (_choice("time", "space"), "time"),
         "t": _NUMBER,
         "x": (_number, None),
         "x_lo": (_number, None),
         "x_hi": (_number, None),
         "counts": (_distinct(_list(_integer)), _REQUIRED)},
        lambda p: _reads_apex(p) if p["axis"] == "time" else _reads_segment(p), _check_ladder,
        _plan_line, least_replicates=lambda p: 1 if p["axis"] == "time" else 2,
        reads_noise=lambda p: p["axis"] == "time", advice=(100, "rate fits will be noisy")),
}

# every top-level key but params, whose table depends on the kind
_CONFIG = {
    "kind": (_choice(*KINDS), _REQUIRED),
    "sigma": (_sigma, _REQUIRED),
    "replicates": (_integer, _REQUIRED),
    "base_seed": (_integer, 0),
    "workers": (_integer, 1),
    "out_dir": (_path, None),
    "label": (_label, "study"),
    "equation": (_choice("wave", "heat"), "wave"),
    "lattice": (_block(_LATTICE, LatticeSpec), None),
    "heat_grid": (_block(_HEAT_GRID, _heat_grid), None),
    "thresholds": (_list(_block(_THRESHOLD, lambda **f: Threshold(f["stat"], f["min"], f["max"])),
                         least=0), ()),
}
