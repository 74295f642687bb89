"""Replicate scheduling with reproducible, worker-count-independent results.

Replicate i always runs with seed base_seed + i. Seeds are split into blocks
of BLOCK_SIZE consecutive replicates; the replicate callable takes one block
of seeds and returns one row per seed, and workers take whole blocks. Blocks
come back in the order they were sent, so the rows are in replicate order as
they arrive; finite-ness is checked once over the whole table in the parent,
and the output bytes depend on neither the worker count nor the block size.
The callable must be picklable (it is sent to workers when workers > 1) and
must return the same stat names for every replicate.
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
    """Rectangular per-replicate table: row i is replicate i, run with seed
    base_seed + i."""

    columns: tuple[str, ...]
    base_seed: int
    rows: np.ndarray  # shape (replicates, len(columns))

    def __post_init__(self):
        if self.rows.shape[1:] != (len(self.columns),):
            raise PreconditionError(
                f"rows shape {self.rows.shape} does not match {len(self.columns)} stats"
            )

    @property
    def n(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no stat named {name!r}; have {self.columns}") from None
        return self.rows[:, j]


def _call(args) -> list[dict[str, float]]:
    fn, first, seeds, payload = args
    records = fn(seeds, payload)
    if len(records) != len(seeds):
        raise SimulationError(
            f"replicates {first}..{first + len(seeds) - 1} produced {len(records)} "
            f"rows for {len(seeds)} seeds",
            seed=seeds[0],
        )
    return records


def _assemble(records: list[dict[str, float]], base_seed: int) -> EnsembleResult:
    """Record i is replicate i, run with seed base_seed + i; the first record's
    stat names are the columns."""
    columns = tuple(records[0])
    for i, record in enumerate(records):
        if tuple(record) != columns:
            raise SimulationError(f"replicate {i} produced stats {tuple(record)}, "
                                  f"expected {columns}", seed=base_seed + i)
    rows = np.array([[*record.values()] for record in records], dtype=float)
    finite = np.isfinite(rows)
    if not finite.all():
        i = int(np.argmin(finite.all(axis=1)))
        bad = [name for name, ok in zip(columns, finite[i]) if not ok]
        raise SimulationError(f"replicate {i} produced non-finite {bad}; rerun with seed "
                              f"{base_seed + i}", seed=base_seed + i)
    return EnsembleResult(columns, base_seed, rows)


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
        records = [row for block in blocks for row in _call(block)]
    else:
        # the pool starts all its processes at the first submit, so it gets
        # no more than there are blocks or CPUs to keep busy
        processes = min(workers, len(blocks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=processes) as pool:
            records = [row for rows in pool.map(_call, blocks) for row in rows]
    return _assemble(records, base_seed)
