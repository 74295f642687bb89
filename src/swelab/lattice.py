"""Characteristic lattice geometry.

Field points live at (n*h, m*h) with n+m even on a trapezoid that shrinks by one
column per side per level, so no boundary condition is ever needed: every point's
dependence cone stays inside the base.  Noise cells are the sites of the opposite
parity (n+m odd): level 0 cells are base triangles of area h^2, higher cells are
diamonds of area 2*h^2.  Together the cells tile the slab exactly, and a backward
cone decomposes into whole cells — all estimators in this package work on unions
of whole cells, never on fractions of one.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AlignmentError, ConfigurationError, DomainError

_REL_TOL = 1e-9


def _exact_index(value: float, h: float, what: str) -> int:
    """Integer k with value == k*h, else alignment error."""
    k = value / h
    if not np.isfinite(k):
        raise AlignmentError(f"{what}={value!r} is not a finite multiple of h={h!r}")
    r = round(k)
    if abs(k - r) > _REL_TOL * max(1.0, abs(k)):
        raise AlignmentError(f"{what}={value!r} is not an integer multiple of h={h!r}")
    return int(r)


Segment = tuple[int, int, int]  # (level, col_lo, col_hi) inclusive, step 2


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice geometry: spacing h (time step = space step), horizon t_max, base [x_lo, x_hi].

    x_lo/h and x_hi/h must be even integers so the field parity class starts on the
    base layer; t_max/h must be an integer and the trapezoid must stay nonempty.
    """

    h: float
    t_max: float
    x_lo: float
    x_hi: float

    def __post_init__(self):
        if not (self.h > 0.0 and np.isfinite(self.h)):
            raise ConfigurationError(f"h must be positive and finite, got {self.h!r}")
        if self.x_hi <= self.x_lo:
            raise ConfigurationError("x_hi must exceed x_lo")
        n = _exact_index(self.t_max, self.h, "t_max")
        lo = _exact_index(self.x_lo, self.h, "x_lo")
        hi = _exact_index(self.x_hi, self.h, "x_hi")
        if n < 1:
            raise ConfigurationError("t_max must be at least one level (t_max >= h)")
        if lo % 2 != 0 or hi % 2 != 0:
            raise ConfigurationError(
                "x_lo/h and x_hi/h must be even integers "
                f"(got {lo} and {hi}); nearest admissible: {2 * round(lo / 2) * self.h}, "
                f"{2 * round(hi / 2) * self.h}"
            )
        if hi - lo < 2 * n:
            raise ConfigurationError(
                f"base too narrow: need x_hi - x_lo >= 2*t_max, got {self.x_hi - self.x_lo} < {2 * self.t_max}"
            )

    # -- index ranges ---------------------------------------------------------

    @property
    def n_levels(self) -> int:
        return round(self.t_max / self.h)

    @property
    def col_lo(self) -> int:
        return round(self.x_lo / self.h)

    @property
    def col_hi(self) -> int:
        return round(self.x_hi / self.h)

    def width(self, level: int) -> int:
        """Number of field points at a level."""
        return (self.col_hi - self.col_lo - 2 * level) // 2 + 1

    def cells_at(self, level: int) -> int:
        """Number of noise cells at a level (= width(level) - 1)."""
        return self.width(level) - 1

    @cached_property
    def cell_row_starts(self) -> np.ndarray:
        counts = (self.col_hi - self.col_lo) // 2 - np.arange(self.n_levels, dtype=np.int64)
        return np.concatenate(([0], np.cumsum(counts)))

    @property
    def total_cells(self) -> int:
        return int(self.cell_row_starts[-1])

    # -- apex bookkeeping ------------------------------------------------------

    def level_of(self, t: float) -> int:
        return _exact_index(t, self.h, "t")

    def col_of(self, x: float) -> int:
        return _exact_index(x, self.h, "x")

    def apex(self, t: float, x: float) -> tuple[int, int]:
        """(level, col) of an aligned field point.

        Off-lattice coordinates, and odd parity within the horizon, raise an
        alignment error; aligned points outside the trapezoid and times beyond
        the horizon raise a domain error.
        """
        n, m = self.level_of(t), self.col_of(x)
        in_horizon = 0 <= n <= self.n_levels
        if in_horizon and (n + m) % 2 != 0:
            raise AlignmentError(
                f"(t, x)=({t}, {x}) has odd parity (t/h + x/h must be even)"
            )
        if not (in_horizon and self.col_lo + n <= m <= self.col_hi - n):
            raise DomainError(f"(t, x)=({t}, {x}) lies outside the simulated trapezoid")
        return n, m

    def require_cone_inside(self, level: int, col: int) -> None:
        if col - level < self.col_lo or col + level > self.col_hi:
            raise DomainError(
                f"backward cone of level={level}, col={col} leaves the base "
                f"[{self.x_lo}, {self.x_hi}]"
            )


# -- closed-form region areas (regions are exact cell unions) ------------------


def temporal_shell_area(t_inner: float, t_outer: float) -> float:
    return t_outer * t_outer - t_inner * t_inner


def spatial_shell_area(t: float, delta: float) -> float:
    """Area of one side (left or right) of the symmetric difference of cones δ apart."""
    return t * delta - delta * delta / 4.0


# -- cell enumeration for cones and shells ------------------------------------


def shell_segments(lat: LatticeSpec, apex_col: int, inner_level: int, outer_level: int,
                   col_cap: int | None = None) -> list[Segment]:
    """Step-2 column ranges of the cells in cone(outer) \\ cone(inner), one apex column.

    A cell (n, m) belongs iff inner_level <= n + |m - apex_col| <= outer_level - 1,
    optionally truncated to |m - apex_col| <= col_cap.  inner_level=0 gives the full
    cone of the outer apex.
    """
    if not 0 <= inner_level < outer_level <= lat.n_levels:
        raise DomainError(
            f"bad shell levels: inner={inner_level}, outer={outer_level}, "
            f"lattice holds {lat.n_levels} levels"
        )
    lat.require_cone_inside(outer_level, apex_col)
    segs: list[Segment] = []
    for n in range(min(outer_level, lat.n_levels)):
        dm_hi = outer_level - 1 - n
        if dm_hi < 0:
            break
        # cells need dm ≡ 1 + n + apex_col (mod 2)
        want = (1 + n + apex_col) % 2
        hi = dm_hi if col_cap is None else min(dm_hi, col_cap)
        hi = hi if hi % 2 == want else hi - 1
        dm_lo = inner_level - n
        if dm_lo <= 0:
            if hi < 0:
                continue
            if hi == 0:
                segs.append((n, apex_col, apex_col))
            else:
                segs.append((n, apex_col - hi, apex_col + hi))
        else:
            lo = dm_lo if dm_lo % 2 == want else dm_lo + 1
            if lo > hi:
                continue
            segs.append((n, apex_col - hi, apex_col - lo))
            segs.append((n, apex_col + lo, apex_col + hi))
    return segs


def cone_segments(lat: LatticeSpec, apex_level: int, apex_col: int) -> list[Segment]:
    """Step-2 column ranges of all cells inside the backward cone of an apex."""
    return shell_segments(lat, apex_col, 0, apex_level)


def _subtract_range(lo_a: int, hi_a: int, lo_b: int, hi_b: int) -> list[tuple[int, int]]:
    """Set difference of two same-parity step-2 inclusive ranges."""
    out = []
    if lo_a < lo_b:
        out.append((lo_a, min(hi_a, lo_b - 2)))
    if hi_a > hi_b:
        out.append((max(lo_a, hi_b + 2), hi_a))
    return [(lo, hi) for lo, hi in out if lo <= hi]


def side_shell_segments(lat: LatticeSpec, level_t: int, col_a: int, col_b: int,
                        side: str) -> list[Segment]:
    """Cells of cone(col_a) \\ cone(col_b) ('left') or cone(col_b) \\ cone(col_a) ('right').

    Both apexes sit at the same level; col_a < col_b with equal parity.
    """
    if col_a >= col_b or (col_a - col_b) % 2 != 0:
        raise AlignmentError("side shells need col_a < col_b of equal parity")
    lat.require_cone_inside(level_t, col_a)
    lat.require_cone_inside(level_t, col_b)
    keep, drop = (col_a, col_b) if side == "left" else (col_b, col_a)
    segs: list[Segment] = []
    for n in range(min(level_t, lat.n_levels)):
        dm = level_t - 1 - n
        if dm < 0:
            break
        want = (1 + n + keep) % 2
        hi = dm if dm % 2 == want else dm - 1
        if hi < 0:
            continue
        a_lo, a_hi = keep - hi, keep + hi
        # the dropped cone has the same dm bound around its own apex (same parity)
        b_lo, b_hi = drop - hi, drop + hi
        for lo, hi2 in _subtract_range(a_lo, a_hi, b_lo, b_hi):
            segs.append((n, lo, hi2))
    return segs


def segment_coords(segs: Sequence[Segment]) -> tuple[np.ndarray, np.ndarray]:
    """(levels, cols) of every cell in the segments, in segment order."""
    seg = np.array(segs, dtype=np.int64).reshape(-1, 3)
    sizes = (seg[:, 2] - seg[:, 1]) // 2 + 1
    rank = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return np.repeat(seg[:, 0], sizes), np.repeat(seg[:, 1], sizes) + 2 * rank


def index_array(values: np.ndarray) -> np.ndarray:
    """Read-only intp copy of a nonnegative integer array: numpy gathers
    through intp indices without converting them on every fancy index."""
    out = np.array(values, dtype=np.intp)
    out.flags.writeable = False
    return out
