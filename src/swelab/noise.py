"""Counter-based Gaussian noise on the cell lattice.

Every cell increment is a pure function of (seed, cell index): word g of a Philox
stream keyed by (seed, stream tag), mapped through the inverse normal CDF and
scaled by sqrt(cell area).  Random access is O(1) and evaluation order is irrelevant,
so a study can draw only the cells of a smaller solve trapezoid: each keeps the
word, and with it the value, it has in the configured lattice.

A study draws a whole block of seeds into one array (NoiseBlock), one row per
seed, laid out for the solver to overwrite in place (see wave.solve_wave).
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .errors import ConfigurationError
from .lattice import LatticeSpec

INITIAL_LEVEL = 1.0  # flat initial profile; also the value of u(0, y) for every y

WAVE_STREAM_TAG = 0x57415645  # wave-equation cell stream
HEAT_STREAM_TAG = 0x48454154  # rectangular-grid stream for the parabolic solver

_U64 = np.uint64
_SHIFT = _U64(11)
_SCALE = 2.0 ** -53
_HALF_ULP = 2.0 ** -54


def stream_words(seed: int, tag: int, start: int, count: int) -> np.ndarray:
    """Words [start, start+count) of the Philox stream keyed by (seed, tag).

    Each 128-bit counter block yields four 64-bit words; slicing into blocks keeps
    the value of word g independent of how the stream is chunked.
    """
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    block, off = divmod(start, 4)
    # explicit uint64 arrays: a bare int list would round-trip large seeds
    # through float64 and silently corrupt anything >= 2**53
    bg = Philox(counter=np.array([block, 0, 0, 0], dtype=np.uint64),
                key=np.array([seed, tag], dtype=np.uint64))
    raw = bg.random_raw(off + count)
    return raw[off:]


def words_to_unit_normals(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map 64-bit words to standard normals via the open-(0,1) inverse CDF,
    written into `out` when it is given."""
    u = (words >> _SHIFT).astype(np.float64)
    u *= _SCALE
    u += _HALF_ULP
    return ndtri(u, out=u if out is None else out)


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ConfigurationError(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) < 2 ** 64:
        raise ConfigurationError(f"seed must lie in [0, 2^64), got {seed}")
    return int(seed)


@dataclass(frozen=True)
class NoiseRealization:
    """The cell increments of one lattice under one seed.

    `flat` holds the increments of `lattice`'s cells level by level, columns
    ascending; `row(level)` is one level.  The lattice is either the configured
    one, whose cell g is word g of the stream, or a solve trapezoid cut out of
    it, whose cells are drawn from their words in the configured lattice.
    """

    lattice: LatticeSpec
    seed: int
    flat: np.ndarray = field(repr=False)  # variance = cell area

    def row(self, level: int) -> np.ndarray:
        starts = self.lattice.cell_row_starts
        return self.flat[starts[level]:starts[level + 1]]

    @property
    def rows(self) -> tuple[np.ndarray, ...]:
        return tuple(self.row(n) for n in range(self.lattice.n_levels))


@dataclass(frozen=True)
class NoiseBlock:
    """The realizations of one lattice under each seed of a block, in one array.

    Row b belongs to seeds[b]: column 0 holds INITIAL_LEVEL and cell g's
    increment sits in column 1 + g, so that solve_wave can overwrite the row
    with the field in place.  Indexing gives one seed's NoiseRealization, a
    view of its row.
    """

    lattice: LatticeSpec
    seeds: tuple[int, ...]
    rows: np.ndarray = field(repr=False)  # (len(seeds), 1 + total_cells)

    def __len__(self) -> int:
        return len(self.seeds)

    def __getitem__(self, b: int) -> NoiseRealization:
        return NoiseRealization(self.lattice, self.seeds[b], self.rows[b, 1:])

    def copy(self) -> NoiseBlock:
        return NoiseBlock(self.lattice, self.seeds, self.rows.copy())


def make_noise(seeds: int | Sequence[int], lattice: LatticeSpec,
               words: np.ndarray | None = None) -> NoiseRealization | NoiseBlock:
    """The realizations of `lattice` under a block of seeds, as a NoiseBlock;
    one seed alone gives its read-only NoiseRealization.

    Without `words` cell g is word g.  With `words`, the Philox word of each
    cell in the configured lattice, one stream span [first, last] is drawn per
    seed and the cells gathered from it, so every cell has its configured value.
    """
    if np.ndim(seeds) == 0:
        seed = _check_seed(seeds)
        flat = _draw([seed], lattice, words)[0, 1:]
        flat.flags.writeable = False
        return NoiseRealization(lattice, seed, flat)
    seeds = tuple(_check_seed(seed) for seed in seeds)
    return NoiseBlock(lattice, seeds, _draw(seeds, lattice, words))


def _draw(seeds: Sequence[int], lattice: LatticeSpec,
          words: np.ndarray | None) -> np.ndarray:
    """NoiseBlock.rows of the seeds: each seed's normals are written straight
    into its row, then every row is scaled by sqrt(cell area) at once."""
    total = lattice.total_cells
    rows = np.empty((len(seeds), 1 + total))
    rows[:, 0] = INITIAL_LEVEL
    first, count, gather = 0, total, None
    if words is not None:
        first = int(words[0])
        count = int(words[-1]) - first + 1
        gather = words - first
    for row, seed in zip(rows, seeds):
        span = stream_words(seed, WAVE_STREAM_TAG, first, count)
        words_to_unit_normals(span if gather is None else span[gather], out=row[1:])
    h = lattice.h
    split = 1 + lattice.cells_at(0)
    rows[:, 1:split] *= h  # base triangles, area h^2
    rows[:, split:] *= h * np.sqrt(2.0)  # diamonds, area 2 h^2
    return rows


def cell_index(lat: LatticeSpec, levels: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Offsets of cells (level, col) into NoiseRealization.flat."""
    return lat.cell_row_starts[levels] + (cols - lat.col_lo - levels - 1) // 2


def render_grid(noise: NoiseRealization) -> np.ndarray:
    """Dense (n_levels, col span) array of a realization's increments, 0.0 off-cell."""
    lat = noise.lattice
    grid = np.zeros((lat.n_levels, lat.col_hi - lat.col_lo + 1), dtype=np.float64)
    for level, row in enumerate(noise.rows):
        first = level + 1  # col offset of first cell from col_lo
        grid[level, first:first + 2 * len(row):2] = row
    return grid
