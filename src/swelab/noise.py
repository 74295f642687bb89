"""Counter-based Gaussian noise on the cell lattice.

Every cell increment is a pure function of (seed, cell index): word g of a Philox
stream keyed by (seed, stream tag), mapped through the inverse normal CDF and
scaled by sqrt(cell area).  Random access is O(1) and evaluation order is irrelevant,
so a study can draw only the cells of a smaller solve trapezoid: each keeps the
word, and with it the value, it has in the configured lattice.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .errors import ConfigurationError
from .lattice import LatticeSpec

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


def words_to_unit_normals(words: np.ndarray) -> np.ndarray:
    """Map 64-bit words to standard normals via the open-(0,1) inverse CDF."""
    u = (words >> _SHIFT).astype(np.float64) * _SCALE + _HALF_ULP
    return ndtri(u)


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ConfigurationError(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) < 2 ** 64:
        raise ConfigurationError(f"seed must lie in [0, 2^64), got {seed}")
    return int(seed)


@dataclass(frozen=True)
class NoiseRealization:
    """The cell increments of one lattice under one seed; read-only after construction.

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


def make_noise(seed: int, lattice: LatticeSpec,
               words: np.ndarray | None = None) -> NoiseRealization:
    """The realization of `lattice` under `seed`.

    Without `words` cell g is word g.  With `words`, the Philox word of each
    cell in the configured lattice, one stream span [first, last] is drawn and
    the cells gathered from it, so every cell has its configured value.
    """
    seed = _check_seed(seed)
    if words is None:
        words = stream_words(seed, WAVE_STREAM_TAG, 0, lattice.total_cells)
    else:
        first = int(words[0])
        span = stream_words(seed, WAVE_STREAM_TAG, first, int(words[-1]) - first + 1)
        words = span[words - first]
    flat = words_to_unit_normals(words)
    h = lattice.h
    starts = lattice.cell_row_starts
    flat[:starts[1]] *= h  # base triangles, area h^2
    flat[starts[1]:] *= h * np.sqrt(2.0)  # diamonds, area 2 h^2
    flat.flags.writeable = False
    return NoiseRealization(lattice, seed, flat)


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
