"""Deterministic output writers: CSV tables, JSON summaries, binary snapshots.

Every writer is byte-stable: floats use %.17g (round-trips float64), newlines
are always "\\n", JSON keys are sorted, and nothing embeds a timestamp or
hostname. Binary snapshots carry a 32-byte header (magic, two float64, two
float32) followed by the raw float64 grid in C order.
"""
from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import ExperimentConfig
from .ensemble import EnsembleResult
from .errors import ConfigurationError, SimulationError
from .lattice import LatticeSpec
from .wave import WaveField

__all__ = [
    "format_value",
    "write_ensemble_csv",
    "write_table_csv",
    "write_field_csv",
    "evaluate_thresholds",
    "summary_report",
    "write_json_report",
    "write_wave_snapshot",
    "read_wave_snapshot",
    "write_noise_snapshot",
    "read_noise_snapshot",
    "ensure_out_dir",
]

_HEADER = struct.Struct("<8sddff")
_WAVE_MAGIC = b"SWFLD001"
_NOISE_MAGIC = b"SWNOIS01"


def ensure_out_dir(path: str | Path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def format_value(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def write_table_csv(path: str | Path, columns: Sequence[str],
                    rows: Iterable[Sequence]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise SimulationError(f"row width {len(row)} != {len(columns)} columns")
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_ensemble_csv(path: str | Path, result: EnsembleResult) -> None:
    columns = ("replicate", "seed") + result.columns
    rows = (
        (idx, seed) + tuple(result.rows[k])
        for k, (idx, seed) in enumerate(zip(result.index, result.seeds))
    )
    write_table_csv(path, columns, rows)


def write_field_csv(path: str | Path, field: WaveField) -> None:
    """Full solution dump, one row per lattice point inside the trapezoid."""
    lat = field.lattice
    lines = ["t,x,u"]
    for n in range(lat.n_levels + 1):
        row = field.level(n)
        for j, m in enumerate(range(lat.col_lo + n, lat.col_hi - n + 1, 2)):
            lines.append(
                f"{format_value(n * lat.h)},{format_value(m * lat.h)},"
                f"{format_value(row[j])}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


# -- JSON summaries ------------------------------------------------------------


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("swelab")
    except Exception:
        return "unknown"


def _config_dict(cfg: ExperimentConfig) -> dict:
    out = {
        "kind": cfg.kind,
        "sigma": cfg.sigma.label(),
        "replicates": cfg.replicates,
        "base_seed": cfg.base_seed,
        "workers": cfg.workers,
        "out_dir": cfg.out_dir,
        "label": cfg.label,
        "equation": cfg.equation,
        "params": cfg.params,
        "thresholds": [
            {"stat": th.stat, "min": th.lo, "max": th.hi} for th in cfg.thresholds
        ],
    }
    if cfg.lattice is not None:
        lat = cfg.lattice
        out["lattice"] = {"h": lat.h, "t_max": lat.t_max,
                          "x_lo": lat.x_lo, "x_hi": lat.x_hi}
    if cfg.heat_grid is not None:
        g = cfg.heat_grid
        out["heat_grid"] = {"dx": g.dx, "t_max": g.t_max,
                            "circumference": g.circumference, "dt": g.dt}
    return out


def evaluate_thresholds(cfg: ExperimentConfig,
                        stats: dict[str, float]) -> tuple[list[dict], bool | None]:
    checks = []
    for th in cfg.thresholds:
        if th.stat not in stats:
            raise ConfigurationError(
                f"threshold references unknown stat {th.stat!r}; "
                f"this study produces {sorted(stats)}"
            )
        value = float(stats[th.stat])
        checks.append({
            "stat": th.stat,
            "min": th.lo,
            "max": th.hi,
            "value": value,
            "passed": bool(th.check(value)),
        })
    if not checks:
        return checks, None
    return checks, all(c["passed"] for c in checks)


def summary_report(cfg: ExperimentConfig, stats: dict[str, float],
                   extra: dict | None = None) -> dict:
    checks, passed = evaluate_thresholds(cfg, stats)
    report = {
        "package": {"name": "swelab", "version": _package_version()},
        "config": _config_dict(cfg),
        "stats": {k: float(v) for k, v in stats.items()},
        "checks": checks,
        "passed": passed,
    }
    if extra:
        report.update(extra)
    return report


def write_json_report(path: str | Path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


# -- binary snapshots ----------------------------------------------------------


def _write_grid(path: str | Path, magic: bytes, d1: float, d2: float,
                f1: float, f2: float, values: np.ndarray) -> None:
    header = _HEADER.pack(magic, d1, d2, f1, f2)
    body = np.ascontiguousarray(values, dtype=np.float64).tobytes()
    Path(path).write_bytes(header + body)


def _read_grid(path: str | Path, magic: bytes):
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise SimulationError(f"{path}: truncated snapshot")
    tag, d1, d2, f1, f2 = _HEADER.unpack_from(blob)
    if tag != magic:
        raise SimulationError(f"{path}: magic {tag!r} does not match {magic!r}")
    values = np.frombuffer(blob, dtype=np.float64, offset=_HEADER.size)
    return d1, d2, float(f1), float(f2), values


def write_wave_snapshot(path: str | Path, field: WaveField) -> None:
    """The field as an (n_levels + 1, width(0)) grid, level n in row n and NaN
    beyond its width."""
    lat = field.lattice
    grid = np.full((lat.n_levels + 1, lat.width(0)), np.nan)
    for n, row in enumerate(grid):
        row[:lat.width(n)] = field.level(n)
    _write_grid(path, _WAVE_MAGIC, lat.h, lat.t_max, lat.x_lo, lat.x_hi, grid)


def read_wave_snapshot(path: str | Path) -> tuple[LatticeSpec, np.ndarray]:
    h, t_max, x_lo, x_hi, flat = _read_grid(path, _WAVE_MAGIC)
    lat = LatticeSpec(h=h, t_max=t_max, x_lo=x_lo, x_hi=x_hi)
    return lat, flat.reshape(lat.n_levels + 1, lat.width(0))


def write_noise_snapshot(path: str | Path, lattice: LatticeSpec,
                         grid: np.ndarray) -> None:
    _write_grid(path, _NOISE_MAGIC, lattice.h, lattice.t_max,
                lattice.x_lo, lattice.x_hi, grid)


def read_noise_snapshot(path: str | Path) -> tuple[LatticeSpec, np.ndarray]:
    h, t_max, x_lo, x_hi, flat = _read_grid(path, _NOISE_MAGIC)
    lat = LatticeSpec(h=h, t_max=t_max, x_lo=x_lo, x_hi=x_hi)
    return lat, flat.reshape(lat.n_levels, lat.col_hi - lat.col_lo + 1)
