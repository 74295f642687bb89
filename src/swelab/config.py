"""Config schema shared by every experiment kind, with a collecting validator.

A config is a YAML mapping with common keys (kind, sigma, replicates, base_seed,
workers, out_dir, label, thresholds) plus a geometry block (lattice for the wave
equation, heat_grid for the heat equation) and a kind-specific params block.
Thresholds are declared here, never hard-coded in studies: a summary's pass/fail
flags are evaluated against exactly what the config file says.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .errors import AlignmentError, ConfigurationError, DomainError
from .heat import HeatGridSpec
from .lattice import LatticeSpec
from .quadvar import admissible_spatial_pieces, admissible_temporal_pieces
from .sigma import SigmaSpec

__all__ = [
    "KINDS",
    "Threshold",
    "ExperimentConfig",
    "load_config",
    "config_from_dict",
    "validate",
    "require_valid",
]

KINDS = ("simulate", "qv-time", "qv-space", "clt", "lil", "mart", "linearize", "ladder")
_EQUATIONS = ("wave", "heat")


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

    def replicate_seeds(self) -> list[int]:
        return [self.base_seed + i for i in range(self.replicates)]


def _as_mapping(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{what} must be a mapping, got {type(obj).__name__}")
    return obj


def config_from_dict(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    raw = dict(_as_mapping(raw, "config"))
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    known = {
        "kind", "sigma", "replicates", "base_seed", "workers", "out_dir",
        "label", "equation", "lattice", "heat_grid", "params", "thresholds",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    try:
        kind = raw["kind"]
        sigma_text = raw["sigma"]
        replicates = raw["replicates"]
    except KeyError as exc:
        raise ConfigurationError(f"config is missing required key {exc.args[0]!r}") from None
    sigma = sigma_text if isinstance(sigma_text, SigmaSpec) else SigmaSpec.parse(str(sigma_text))
    if not isinstance(replicates, int) or isinstance(replicates, bool):
        raise ConfigurationError(f"replicates must be an integer, got {replicates!r}")
    lattice = raw.get("lattice")
    if isinstance(lattice, dict):
        lattice = LatticeSpec(**{k: float(v) for k, v in lattice.items()})
    heat_grid = raw.get("heat_grid")
    if isinstance(heat_grid, dict):
        heat_grid = HeatGridSpec(**{k: float(v) for k, v in heat_grid.items()})
    thresholds = []
    for item in raw.get("thresholds", []) or []:
        item = dict(_as_mapping(item, "threshold entry"))
        thresholds.append(Threshold(
            stat=str(item.pop("stat")),
            lo=None if item.get("min") is None else float(item.pop("min")),
            hi=None if item.get("max") is None else float(item.pop("max")),
        ))
    return ExperimentConfig(
        kind=str(kind),
        sigma=sigma,
        replicates=replicates,
        base_seed=int(raw.get("base_seed", 0)),
        workers=int(raw.get("workers", 1)),
        out_dir=None if raw.get("out_dir") is None else str(raw["out_dir"]),
        label=str(raw.get("label", "study")),
        equation=str(raw.get("equation", "wave")),
        lattice=lattice,
        heat_grid=heat_grid,
        params=dict(raw.get("params", {}) or {}),
        thresholds=tuple(thresholds),
    )


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if raw is None:
        raise ConfigurationError(f"{path} is empty")
    return config_from_dict(_as_mapping(raw, "config file"), overrides)


# -- validation ----------------------------------------------------------------


def validate(cfg: ExperimentConfig) -> tuple[list[str], list[str]]:
    """(errors, notes): all violations collected, plus admissibility echoes."""
    errors: list[str] = []
    notes: list[str] = []
    if cfg.kind not in KINDS:
        errors.append(f"unknown kind {cfg.kind!r}; expected one of {KINDS}")
        return errors, notes
    need = _min_replicates(cfg)
    if cfg.replicates < need:
        errors.append(f"replicates must be >= {need} for kind {cfg.kind!r}, "
                      f"got {cfg.replicates}")
    if cfg.workers < 1:
        errors.append(f"workers must be >= 1, got {cfg.workers}")
    if cfg.base_seed < 0 or cfg.base_seed + max(cfg.replicates, 1) > 2 ** 64:
        errors.append("base_seed must keep every replicate seed inside [0, 2^64)")
    if cfg.equation not in _EQUATIONS:
        errors.append(f"equation must be one of {_EQUATIONS}, got {cfg.equation!r}")

    needs_wave = cfg.kind != "linearize" or cfg.equation == "wave"
    needs_heat = cfg.kind == "linearize" and cfg.equation == "heat"
    if needs_wave and cfg.lattice is None:
        errors.append(f"kind {cfg.kind!r} requires a lattice block")
    if needs_heat and cfg.heat_grid is None:
        errors.append("linearize on the heat equation requires a heat_grid block")
    if errors:
        return errors, notes

    p = cfg.params
    check = _KIND_CHECKS[cfg.kind]
    try:
        check(cfg, p, errors, notes)
    except ConfigurationError as exc:
        errors.append(str(exc))
    return errors, notes


def _min_replicates(cfg: ExperimentConfig) -> int:
    """Replicates the kind's aggregation needs: standard errors take two."""
    if cfg.kind in ("simulate", "qv-time", "qv-space", "mart"):
        return 2
    if cfg.kind == "ladder" and cfg.params.get("axis", "time") == "space":
        return 2
    return 1


def require_valid(cfg: ExperimentConfig) -> ExperimentConfig:
    errors, _ = validate(cfg)
    if errors:
        raise ConfigurationError("invalid config:\n  - " + "\n  - ".join(errors))
    return cfg


def _need(p: dict, keys: list[str], errors: list[str], kind: str) -> bool:
    missing = [k for k in keys if k not in p]
    if missing:
        errors.append(f"kind {kind!r} params missing {missing}")
        return False
    return True


def _check_point(lat: LatticeSpec, t: float, x: float, errors: list[str],
                 margin: int = 1) -> None:
    """Apex alignment plus dependence coverage with the stated time margin."""
    try:
        n, m = lat.apex(t, x)
    except (AlignmentError, DomainError) as exc:
        errors.append(str(exc))
        return
    reach = margin * n
    if m - reach < lat.col_lo or m + reach > lat.col_hi:
        errors.append(
            f"base [{lat.x_lo}, {lat.x_hi}] too narrow for the observable at "
            f"(t={t}, x={x}): needs [{x - margin * t}, {x + margin * t}]"
        )


def _even_scales(lat: LatticeSpec, scales, errors: list[str], what: str) -> None:
    if not isinstance(scales, (list, tuple)) or not scales:
        errors.append(f"{what} must be a nonempty list")
        return
    for s in scales:
        k = s / lat.h
        if abs(k - round(k)) > 1e-9 or round(k) % 2 != 0 or round(k) < 2:
            errors.append(
                f"{what} value {s} must be an even multiple of h={lat.h}, >= {2 * lat.h}"
            )


def _check_simulate(cfg, p, errors, notes):
    lat = cfg.lattice
    for pt in p.get("probes", []):
        _check_point(lat, float(pt[0]), float(pt[1]), errors)
    for key in ("temporal_lags", "spatial_lags"):
        block = p.get(key)
        if block is None:
            continue
        t0, x0 = float(block["t"]), float(block["x"])
        lags = [float(v) for v in block["lags"]]
        if len(lags) < 4:
            notes.append(f"{key}: fitted slopes need >= 4 points, got {len(lags)}")
        _even_scales(lat, lags, errors, key)
        top = max(lags, default=0.0)
        if key == "temporal_lags":
            _check_point(lat, t0 + top, x0, errors)
        else:
            _check_point(lat, t0, x0 + top, errors)
        _check_point(lat, t0, x0, errors)


def _check_qv_time(cfg, p, errors, notes):
    if not _need(p, ["t", "x", "n_pieces"], errors, cfg.kind):
        return
    lat = cfg.lattice
    t, x = float(p["t"]), float(p["x"])
    _check_point(lat, t, x, errors)
    try:
        good = admissible_temporal_pieces(t, lat.h)
    except AlignmentError as exc:
        errors.append(str(exc))
        return
    notes.append(f"admissible temporal piece counts at t={t}, h={lat.h}: {good}")
    if p["n_pieces"] not in good:
        errors.append(
            f"n_pieces={p['n_pieces']} is not admissible; choose one of {good}"
        )


def _check_qv_space(cfg, p, errors, notes):
    if not _need(p, ["t", "x_lo", "x_hi", "n_pieces"], errors, cfg.kind):
        return
    lat = cfg.lattice
    t = float(p["t"])
    x_lo, x_hi = float(p["x_lo"]), float(p["x_hi"])
    # characteristics through the whole segment: double-reach margin
    _check_point(lat, t, x_lo, errors, margin=2)
    _check_point(lat, t, x_hi, errors, margin=2)
    try:
        good = admissible_spatial_pieces(x_lo, x_hi, lat.h)
    except AlignmentError as exc:
        errors.append(str(exc))
        return
    notes.append(f"admissible spatial piece counts on [{x_lo}, {x_hi}]: {good}")
    if p["n_pieces"] not in good:
        errors.append(
            f"n_pieces={p['n_pieces']} is not admissible; choose one of {good}"
        )


def _check_probe_grid(cfg, p, errors, notes, *, cap_to_eighth: bool):
    if not _need(p, ["t", "x", "scales"], errors, cfg.kind):
        return
    lat = cfg.lattice
    t, x = float(p["t"]), float(p["x"])
    scales = [float(s) for s in p["scales"]]
    _even_scales(lat, scales, errors, "scales")
    top = max(scales, default=0.0)
    _check_point(lat, t, x, errors, margin=2)
    if t + top > lat.t_max + 1e-12:
        errors.append(
            f"largest scale {top} at t={t} exceeds the horizon t_max={lat.t_max}"
        )
    if cap_to_eighth:
        for s in scales:
            if s > t / 8.0 + 1e-12:
                errors.append(f"scale {s} exceeds t/8 = {t / 8}")
        if len(scales) < 5:
            notes.append(
                f"iterated-logarithm grids are meant to span >= 4 dyadic halvings "
                f"below t/8; got {len(scales)} scales"
            )


def _check_clt(cfg, p, errors, notes):
    _check_probe_grid(cfg, p, errors, notes, cap_to_eighth=False)
    std = p.get("standardization", "trace")
    if std not in ("trace", "shell"):
        errors.append(f"standardization must be 'trace' or 'shell', got {std!r}")
    if std == "shell" and not cfg.sigma.is_constant:
        errors.append("shell standardization requires a constant sigma")
    if cfg.sigma.is_zero:
        errors.append("sigma vanishes identically: standardized increments undefined")
    if cfg.replicates < 500:
        notes.append(
            f"warning: {cfg.replicates} replicates gives a weak distribution test; "
            "500+ recommended"
        )


def _check_lil(cfg, p, errors, notes):
    _check_probe_grid(cfg, p, errors, notes, cap_to_eighth=True)
    if cfg.sigma.is_zero:
        errors.append("sigma vanishes identically: the normalized statistic is undefined")


def _check_mart(cfg, p, errors, notes):
    _check_probe_grid(cfg, p, errors, notes, cap_to_eighth=False)
    if len(p.get("scales", [])) < 4:
        notes.append("fitted exponents need >= 4 scales")


def _check_linearize(cfg, p, errors, notes):
    if not _need(p, ["t", "x", "lags"], errors, cfg.kind):
        return
    t, x = float(p["t"]), float(p["x"])
    lags = [float(v) for v in p["lags"]]
    if len(lags) < 2:
        errors.append("linearize needs at least 2 lags to compare scales")
    if cfg.equation == "wave":
        lat = cfg.lattice
        _even_scales(lat, lags, errors, "lags")
        _check_point(lat, t, x, errors)
        _check_point(lat, t, x + max(lags, default=0.0), errors)
    else:
        grid = cfg.heat_grid
        try:
            grid.step_of(t)
        except (ConfigurationError, DomainError) as exc:
            errors.append(str(exc))
        for lag in lags + [0.0]:
            try:
                grid.site_of(x + lag)
            except AlignmentError as exc:
                errors.append(str(exc))
        if max(lags, default=0.0) + x >= grid.circumference:
            errors.append("largest lag wraps around the circle; enlarge circumference")


def _check_ladder(cfg, p, errors, notes):
    axis = p.get("axis", "time")
    if axis not in ("time", "space"):
        errors.append(f"ladder axis must be 'time' or 'space', got {axis!r}")
        return
    counts = p.get("counts")
    if not isinstance(counts, (list, tuple)) or len(counts) < 1:
        errors.append("ladder needs a nonempty counts list")
        return
    if len(counts) < 4:
        notes.append("fitted rates need >= 4 ladder points")
    lat = cfg.lattice
    if axis == "time":
        if not _need(p, ["t", "x"], errors, cfg.kind):
            return
        t, x = float(p["t"]), float(p["x"])
        _check_point(lat, t, x, errors)
        try:
            good = admissible_temporal_pieces(t, lat.h)
        except AlignmentError as exc:
            errors.append(str(exc))
            return
        notes.append(f"admissible temporal piece counts at t={t}, h={lat.h}: {good}")
        bad = [n for n in counts if n not in good]
        if bad:
            errors.append(f"inadmissible counts {bad}; choose from {good}")
    else:
        if not _need(p, ["t", "x_lo", "x_hi"], errors, cfg.kind):
            return
        t = float(p["t"])
        x_lo, x_hi = float(p["x_lo"]), float(p["x_hi"])
        _check_point(lat, t, x_lo, errors, margin=2)
        _check_point(lat, t, x_hi, errors, margin=2)
        try:
            good = admissible_spatial_pieces(x_lo, x_hi, lat.h)
        except AlignmentError as exc:
            errors.append(str(exc))
            return
        notes.append(f"admissible spatial piece counts on [{x_lo}, {x_hi}]: {good}")
        bad = [n for n in counts if n not in good]
        if bad:
            errors.append(f"inadmissible counts {bad}; choose from {good}")


_KIND_CHECKS = {
    "simulate": _check_simulate,
    "qv-time": _check_qv_time,
    "qv-space": _check_qv_space,
    "clt": _check_clt,
    "lil": _check_lil,
    "mart": _check_mart,
    "linearize": _check_linearize,
    "ladder": _check_ladder,
}
