"""Replicate scheduling with reproducible, worker-count-independent results.

Replicate i always runs with seed base_seed + i. Workers only affect how the
work is chunked; rows are reassembled in replicate order and finite-ness is
checked in the parent, so the output bytes never depend on the worker count.
The per-replicate callable must live at module level (it is pickled when
workers > 1) and must return the same stat names for every replicate.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PreconditionError, SimulationError

__all__ = ["EnsembleResult", "run_replicates"]

ReplicateFn = Callable[[int, object], dict[str, float]]


@dataclass(frozen=True)
class EnsembleResult:
    """Rectangular per-replicate table, rows sorted by replicate index."""

    columns: tuple[str, ...]
    index: tuple[int, ...]
    seeds: tuple[int, ...]
    rows: np.ndarray  # shape (len(index), len(columns))

    def __post_init__(self):
        if self.rows.shape != (len(self.index), len(self.columns)):
            raise PreconditionError(
                f"rows shape {self.rows.shape} does not match "
                f"{len(self.index)} replicates x {len(self.columns)} stats"
            )

    @property
    def n(self) -> int:
        return len(self.index)

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no stat named {name!r}; have {self.columns}") from None
        return self.rows[:, j]


def _call(args) -> tuple[int, int, dict[str, float]]:
    fn, index, seed, payload = args
    return index, seed, fn(seed, payload)


def _assemble(columns: tuple[str, ...] | None,
              produced: list[tuple[int, int, dict[str, float]]]) -> EnsembleResult:
    produced.sort(key=lambda item: item[0])
    index: list[int] = []
    seeds: list[int] = []
    rows: list[list[float]] = []
    for idx, seed, record in produced:
        if columns is None:
            columns = tuple(record)
        if tuple(record) != columns:
            raise SimulationError(
                f"replicate {idx} produced stats {tuple(record)}, expected {columns}",
                seed=seed,
            )
        values = [float(record[name]) for name in columns]
        bad = [name for name, v in zip(columns, values) if not np.isfinite(v)]
        if bad:
            raise SimulationError(
                f"replicate {idx} produced non-finite {bad}; rerun with seed {seed}",
                seed=seed,
            )
        index.append(idx)
        seeds.append(seed)
        rows.append(values)
    data = np.array(rows, dtype=float).reshape(len(index), len(columns or ()))
    return EnsembleResult(tuple(columns or ()), tuple(index), tuple(seeds), data)


def run_replicates(fn: ReplicateFn, payload, *, base_seed: int, replicates: int,
                   workers: int = 1) -> EnsembleResult:
    if replicates < 1:
        raise PreconditionError(f"replicates must be >= 1, got {replicates}")
    if workers < 1:
        raise PreconditionError(f"workers must be >= 1, got {workers}")
    tasks = [(fn, i, base_seed + i, payload) for i in range(replicates)]
    if workers == 1:
        produced = [_call(t) for t in tasks]
    else:
        chunk = max(1, replicates // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            produced = list(pool.map(_call, tasks, chunksize=chunk))
    return _assemble(None, produced)
