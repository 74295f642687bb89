"""Deterministic output writers: CSV tables, JSON summaries, binary snapshots.

Every writer is byte-stable: floats use %.17g (round-trips float64), newlines
are always "\\n", JSON keys are sorted, and nothing embeds a timestamp or
hostname. Binary snapshots carry a 32-byte header (magic, two float64, two
float32) followed by the raw float64 grid in C order.
"""
from __future__ import annotations

import dataclasses
import functools
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
    rows = ((i, result.base_seed + i) + tuple(row) for i, row in enumerate(result.rows))
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


@functools.cache
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
    for key in ("lattice", "heat_grid"):
        block = getattr(cfg, key)
        if block is not None:
            out[key] = dataclasses.asdict(block)
    return out


def evaluate_thresholds(cfg: ExperimentConfig,
                        stats: dict[str, float]) -> tuple[list[dict], bool | None]:
    checks = []
    for i, th in enumerate(cfg.thresholds):
        if th.stat not in stats:
            raise ConfigurationError(
                f"thresholds[{i}].stat: threshold references unknown stat {th.stat!r}; "
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


def _write_grid(path: str | Path, magic: bytes, lattice: LatticeSpec,
                values: np.ndarray) -> None:
    header = _HEADER.pack(magic, lattice.h, lattice.t_max, lattice.x_lo, lattice.x_hi)
    body = np.ascontiguousarray(values, dtype=np.float64).tobytes()
    Path(path).write_bytes(header + body)


def _read_grid(path: str | Path, magic: bytes) -> tuple[LatticeSpec, np.ndarray]:
    """The snapshot's lattice and its flat grid. The header holds x_lo and x_hi
    as float32; each comes back as the even multiple of h nearest it, which
    is what the lattice requires of them."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise SimulationError(f"{path}: truncated snapshot")
    tag, h, t_max, x_lo, x_hi = _HEADER.unpack_from(blob)
    if tag != magic:
        raise SimulationError(f"{path}: magic {tag!r} does not match {magic!r}")
    lo, hi = (2 * round(x / (2 * h)) * h for x in (x_lo, x_hi))
    values = np.frombuffer(blob, dtype=np.float64, offset=_HEADER.size)
    return LatticeSpec(h=h, t_max=t_max, x_lo=lo, x_hi=hi), values


def write_wave_snapshot(path: str | Path, field: WaveField) -> None:
    """The field as an (n_levels + 1, width(0)) grid, level n in row n and NaN
    beyond its width."""
    lat = field.lattice
    grid = np.full((lat.n_levels + 1, lat.width(0)), np.nan)
    for n, row in enumerate(grid):
        row[:lat.width(n)] = field.level(n)
    _write_grid(path, _WAVE_MAGIC, lat, grid)


def read_wave_snapshot(path: str | Path) -> tuple[LatticeSpec, np.ndarray]:
    lat, flat = _read_grid(path, _WAVE_MAGIC)
    return lat, flat.reshape(lat.n_levels + 1, lat.width(0))


def write_noise_snapshot(path: str | Path, lattice: LatticeSpec,
                         increments: np.ndarray) -> None:
    """One seed's increments on `lattice` as an (n_levels, col span) grid:
    cell k of level n in column n + 1 + 2k of row n, 0.0 off-cell."""
    grid = np.zeros((lattice.n_levels, lattice.col_hi - lattice.col_lo + 1))
    starts = lattice.cell_row_starts
    for n, row in enumerate(grid):
        cells = increments[starts[n]:starts[n + 1]]
        row[n + 1:n + 1 + 2 * cells.size:2] = cells
    _write_grid(path, _NOISE_MAGIC, lattice, grid)


def read_noise_snapshot(path: str | Path) -> tuple[LatticeSpec, np.ndarray]:
    lat, flat = _read_grid(path, _NOISE_MAGIC)
    return lat, flat.reshape(lat.n_levels, lat.col_hi - lat.col_lo + 1)
