"""Replicate scheduling with reproducible, worker-count-independent results.

Replicate i always runs with seed base_seed + i. Seeds are split into blocks
of BLOCK_SIZE consecutive replicates; the replicate callable takes one block
of seeds and returns one row per seed, and workers take whole blocks. Rows are
reassembled in replicate order and finite-ness is checked per replicate in
the parent, so the output bytes depend on neither the worker count nor the
block size. The callable must be picklable (it is sent to workers when
workers > 1) and must return the same stat names for every replicate.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import PreconditionError, SimulationError

__all__ = ["EnsembleResult", "run_replicates"]

# block of seeds, payload -> one row of named stats per seed, in seed order
ReplicateFn = Callable[[Sequence[int], object], list[dict[str, float]]]

BLOCK_SIZE = 16


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


def _call(args) -> list[tuple[int, int, dict[str, float]]]:
    fn, first, seeds, payload = args
    records = fn(seeds, payload)
    if len(records) != len(seeds):
        raise SimulationError(
            f"replicates {first}..{first + len(seeds) - 1} produced {len(records)} "
            f"rows for {len(seeds)} seeds",
            seed=seeds[0],
        )
    return [(first + k, seed, record) for k, (seed, record) in enumerate(zip(seeds, records))]


def _assemble(produced: list[tuple[int, int, dict[str, float]]]) -> EnsembleResult:
    """The rows in replicate order, with the first row's stat names as columns."""
    produced.sort(key=lambda item: item[0])
    columns: tuple[str, ...] | None = None
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
    blocks = [
        (fn, i, [base_seed + j for j in range(i, min(i + BLOCK_SIZE, replicates))], payload)
        for i in range(0, replicates, BLOCK_SIZE)
    ]
    if workers == 1:
        produced = [row for block in blocks for row in _call(block)]
    else:
        # the pool starts all its processes at the first submit, so it gets
        # no more than there are blocks or CPUs to keep busy
        processes = min(workers, len(blocks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=processes) as pool:
            produced = [row for rows in pool.map(_call, blocks) for row in rows]
    return _assemble(produced)
