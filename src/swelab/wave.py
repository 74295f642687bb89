"""Explicit solver on the characteristic lattice.

The update writes the integral identity cell by cell: a new value is the two
neighbors minus the value below plus sigma at the bottom vertex times the diamond's
noise increment.  Evaluating sigma at the bottom vertex keeps the weight adapted,
so the field mean stays exactly 1 and, for constant sigma, the solution telescopes
to 1 + sigma * (cone noise sum) with no scheme error at all.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeSpec, packed_index
from .noise import INITIAL_LEVEL, NoiseBlock, NoiseRealization
from .sigma import CONSTANT_ONE, SigmaSpec


@dataclass(frozen=True)
class WaveField:
    """Solved field on the trapezoid, packed in the layout of a NoiseBlock row.

    values[0] is the initial level u = 1, shared by every base point.  Level
    n >= 1 sits in the slots of cell row n - 1 (cells_at(n - 1) == width(n)),
    from offset 1 + cell_row_starts[n - 1]: its entry j is
    u(n*h, (col_lo + n + 2j)*h), in the slot of the cell right below it.
    """

    lattice: LatticeSpec
    sigma: SigmaSpec
    seed: int
    values: np.ndarray = field(repr=False)  # (1 + lattice.total_cells,)

    def level(self, n: int) -> np.ndarray:
        if n == 0:
            return np.full(self.lattice.width(0), self.values[0])
        start = 1 + int(self.lattice.cell_row_starts[n - 1])
        return self.values[start:start + self.lattice.width(n)]

    def at_point(self, level: int, col: int) -> float:
        return float(self.values[point_index(self.lattice, level, col)])


@dataclass(frozen=True)
class WaveBlock:
    """The fields of a block of seeds, one packed row each (WaveField's layout);
    indexing gives one seed's WaveField, a view of its row."""

    lattice: LatticeSpec
    sigma: SigmaSpec
    seeds: tuple[int, ...]
    rows: np.ndarray = field(repr=False)  # (len(seeds), 1 + lattice.total_cells)

    def __len__(self) -> int:
        return len(self.seeds)

    def __getitem__(self, b: int) -> WaveField:
        return WaveField(self.lattice, self.sigma, self.seeds[b], self.rows[b])


def point_index(lat: LatticeSpec, levels: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Offsets of aligned points into WaveField.values.

    Levels <= 0 map to offset 0, which holds the initial profile everywhere.
    """
    levels = np.asarray(levels, dtype=np.int64)
    j = (np.asarray(cols) - lat.col_lo - levels) // 2
    start = lat.cell_row_starts[np.maximum(levels - 1, 0)]
    return np.where(levels <= 0, 0, 1 + start + j)


def solve_wave(sigma: SigmaSpec, noise: NoiseRealization | NoiseBlock) -> WaveField | WaveBlock:
    """The field of a realization, or the fields of every seed of a block.

    A block is solved in place: level n + 1 overwrites cell row n, so the
    block holds fields, not increments, afterwards.  A realization is copied
    into a block of one first and stays as it was.
    """
    if isinstance(noise, NoiseRealization):
        rows = np.empty((1, 1 + noise.flat.size))
        rows[0, 0] = INITIAL_LEVEL
        rows[0, 1:] = noise.flat
        _solve_rows(sigma, noise.lattice, rows)
        return WaveField(noise.lattice, sigma, noise.seed, rows[0])
    _solve_rows(sigma, noise.lattice, noise.rows)
    return WaveBlock(noise.lattice, sigma, noise.seeds, noise.rows)


def _solve_rows(sigma: SigmaSpec, lat: LatticeSpec, u: np.ndarray) -> None:
    """Overwrite NoiseBlock rows with their fields, one level for all rows at a time."""
    # offset of each level's first point; level 0 is the single column 0
    at = [0, *(1 + lat.cell_row_starts).tolist()]
    # first layer: each base point sits on the apex of one base triangle
    first = u[:, at[1]:at[2]]
    first *= sigma.scalar(INITIAL_LEVEL)
    first += INITIAL_LEVEL
    # the new level takes the rounding of prev[:-1] + prev[1:] - below +
    # sigma(below) * xi, term by term; the kick is taken before the add
    # overwrites xi
    for n in range(1, lat.n_levels):
        prev = u[:, at[n]:at[n + 1]]
        row = u[:, at[n + 1]:at[n + 2]]
        if n == 1:
            below = np.broadcast_to(u[:, :1], row.shape)
        else:  # the columns of level n - 1 right under the new level
            below = u[:, at[n - 1] + 1:at[n] - 1]
        kick = sigma(below)
        kick *= row
        np.add(prev[:, :-1], prev[:, 1:], out=row)
        row -= below
        row += kick


def solve_coupled_linearization(
        sigma: SigmaSpec, noise: NoiseRealization | NoiseBlock,
) -> tuple[WaveField, WaveField] | tuple[WaveBlock, WaveBlock]:
    """(nonlinear field, sigma==1 field) driven by the identical noise; for a
    block, the sigma==1 fields are solved on a copy and the nonlinear in place."""
    linear = solve_wave(CONSTANT_ONE, noise.copy() if isinstance(noise, NoiseBlock) else noise)
    return solve_wave(sigma, noise), linear


def field_at(fld: WaveField, t: float, x: float) -> float:
    """Value at an exactly aligned lattice point; no interpolation ever.

    The point is checked by LatticeSpec.apex, which names the error.
    """
    return fld.at_point(*fld.lattice.apex(t, x))


def cone_boundary_trace(lat: LatticeSpec, level: int, col: int) -> tuple[np.ndarray, np.ndarray]:
    """Points of the backward cone boundary of an apex: y -> (t - |x - y|, y).

    Every column in [x-t, x+t] carries an aligned boundary point when the apex is
    aligned, so the trace is sampled at spacing h.  Returns (y, field offsets),
    both read-only.
    """
    dm = np.arange(-level, level + 1)
    ys = (col + dm) * lat.h
    ys.flags.writeable = False
    return ys, packed_index(point_index(lat, level - np.abs(dm), col + dm))
