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
from .noise import NoiseRealization
from .sigma import CONSTANT_ONE, SigmaSpec

INITIAL_LEVEL = 1.0  # flat initial profile; also the value of u(0, y) for every y


@dataclass(frozen=True)
class WaveField:
    """Solved field on the trapezoid; values[n, j] is u(n*h, (col_lo + n + 2j)*h)."""

    lattice: LatticeSpec
    sigma: SigmaSpec
    seed: int
    values: np.ndarray = field(repr=False)  # padded (n_levels+1, width(0)), NaN beyond row widths

    def level(self, n: int) -> np.ndarray:
        return self.values[n, : self.lattice.width(n)]

    def at_point(self, level: int, col: int) -> float:
        return float(self.values[level, (col - self.lattice.col_lo - level) // 2])

    @property
    def flat(self) -> np.ndarray:
        """The values as one flat view, indexed by point_index offsets."""
        return self.values.reshape(-1)


def point_index(lat: LatticeSpec, levels: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Offsets of aligned points into WaveField.flat.

    Levels <= 0 map to offset 0: row 0 holds the initial profile everywhere.
    """
    levels = np.asarray(levels)
    j = np.where(levels <= 0, 0, (np.asarray(cols) - lat.col_lo - levels) // 2)
    return np.maximum(levels, 0) * lat.width(0) + j


def solve_wave(sigma: SigmaSpec, noise: NoiseRealization) -> WaveField:
    lat = noise.lattice
    n_levels = lat.n_levels
    w0 = lat.width(0)
    u = np.full((n_levels + 1, w0), np.nan)
    u[0] = INITIAL_LEVEL
    # first layer: each base point sits on the apex of one base triangle
    u[1, : w0 - 1] = INITIAL_LEVEL + sigma.scalar(INITIAL_LEVEL) * noise.row(0)
    xi = noise.flat
    starts = lat.cell_row_starts.tolist()
    # level n holds w0 - n points; the new level is written in place with the
    # rounding of prev[:-1] + prev[1:] - below + sigma(below) * xi, term by term
    for n in range(1, n_levels):
        w = w0 - n
        prev = u[n]
        below = u[n - 1, 1:w]  # columns directly under the new level
        new = u[n + 1, : w - 1]
        np.add(prev[: w - 1], prev[1:w], out=new)
        new -= below
        kick = sigma(below)
        kick *= xi[starts[n]:starts[n + 1]]
        new += kick
    return WaveField(lat, sigma, noise.seed, u)


def solve_coupled_linearization(sigma: SigmaSpec, noise: NoiseRealization) -> tuple[WaveField, WaveField]:
    """(nonlinear field, sigma==1 field) driven by the identical noise realization."""
    return solve_wave(sigma, noise), solve_wave(CONSTANT_ONE, noise)


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
