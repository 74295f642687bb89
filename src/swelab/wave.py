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

from .lattice import LatticeSpec, index_array
from .noise import INITIAL_LEVEL, NoiseBlock
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


def solve_wave(sigma: SigmaSpec, noise: NoiseBlock) -> WaveBlock:
    """The fields of every seed of a block, solved in place: level n + 1
    overwrites cell row n, so the block holds fields, not increments,
    afterwards. All rows advance one level at a time.

    The rows stay seed-major, but each level is computed seed-minor, in a
    window of the last three levels shaped (3, width(1), len(seeds)): the
    cell row is copied in transposed, the update runs on contiguous slabs
    rather than on one short segment per seed, and the finished level is
    copied back over its cell row. sigma(below) goes into one kick buffer
    per solve, so no level allocates."""
    lat, u = noise.lattice, noise.rows
    # offset of each level's first point; level 0 is the single column 0
    at = [0, *(1 + lat.cell_row_starts).tolist()]
    # first layer: each base point sits on the apex of one base triangle
    first = u[:, at[1]:at[2]]
    first *= sigma.scalar(INITIAL_LEVEL)
    first += INITIAL_LEVEL
    # level n sits in slot n % 3; level 0 is flat, so width(1) of it is
    # as much as the level-2 update reads
    window = np.empty((3, lat.width(1), len(u)))
    window[0] = INITIAL_LEVEL
    window[1] = first.T
    kicks = np.empty((lat.width(1), len(u)))
    # the new level takes the rounding of prev[:-1] + prev[1:] - below +
    # sigma(below) * xi, term by term; the kick is taken before the add
    # overwrites xi
    for n in range(1, lat.n_levels):
        cells = u[:, at[n + 1]:at[n + 2]]
        w = cells.shape[1]
        prev = window[n % 3, :w + 1]
        # the columns of level n - 1 right under the new level
        below = window[(n - 1) % 3, 1:w + 1]
        row = window[(n + 1) % 3, :w]
        row[...] = cells.T
        kick = sigma(below, out=kicks[:w])
        kick *= row
        np.add(prev[:-1], prev[1:], out=row)
        row -= below
        row += kick
        cells[...] = row.T
    return WaveBlock(lat, sigma, noise.seeds, u)


def solve_coupled_linearization(sigma: SigmaSpec,
                                noise: NoiseBlock) -> tuple[WaveBlock, WaveBlock]:
    """(nonlinear fields, sigma==1 fields) driven by the identical noise; the
    sigma==1 fields are solved on a copy and the nonlinear in place."""
    linear = solve_wave(CONSTANT_ONE, noise.copy())
    return solve_wave(sigma, noise), linear


def field_at(fld: WaveField, t: float, x: float) -> float:
    """Value at an exactly aligned lattice point; no interpolation ever.

    The point is checked by LatticeSpec.apex, which names the error.
    """
    return float(fld.values[point_index(fld.lattice, *fld.lattice.apex(t, x))])


def cone_boundary_trace(lat: LatticeSpec, level: int, col: int) -> tuple[np.ndarray, np.ndarray]:
    """Points of the backward cone boundary of an apex: y -> (t - |x - y|, y).

    Every column in [x-t, x+t] carries an aligned boundary point when the apex is
    aligned, so the trace is sampled at spacing h.  Returns (y, field offsets),
    both read-only.
    """
    dm = np.arange(-level, level + 1)
    ys = (col + dm) * lat.h
    ys.flags.writeable = False
    return ys, index_array(point_index(lat, level - np.abs(dm), col + dm))
