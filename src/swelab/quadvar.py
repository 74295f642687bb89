"""Quadratic variation along time and space lines, with cone-integral limits.

Temporal route: at a fixed point x the squared increments of t -> u(t, x) pick up,
piece by piece, the noise mass of nested cone shells; their sum converges to the
integral of sigma(u)^2 over the full backward cone.  The decomposition below
exposes the intermediate estimators used to see that happen at finite mesh.

Spatial route: at a fixed time the squared increments of x -> u(t, x) converge to
an integral of sigma(u)^2 along the two characteristics through each point, not
to the flat-slice value 2*t*int sigma(u(t,x))^2 dx; both are computed here so the
gap is measurable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AlignmentError, ConfigurationError
from .lattice import LatticeSpec, cone_segments, packed_index, segment_coords
from .noise import NoiseRealization, cell_index
from .wave import WaveField, point_index

__all__ = [
    "TemporalPartition",
    "SpatialPartition",
    "QvDecomposition",
    "admissible_temporal_pieces",
    "admissible_spatial_pieces",
    "temporal_increments",
    "temporal_qv",
    "temporal_qv_limit",
    "temporal_qv_decomposition",
    "temporal_qv_ladder",
    "spatial_increments",
    "spatial_qv",
    "spatial_qv_limit",
    "naive_qv_prediction",
]


@dataclass(frozen=True)
class TemporalPartition:
    """Evenly spaced times 0 = t_0 < ... < t_N = t observed at a fixed point x."""

    t: float
    x: float
    n_pieces: int

    def __post_init__(self):
        if not isinstance(self.n_pieces, (int, np.integer)) or self.n_pieces < 1:
            raise ConfigurationError(
                f"n_pieces must be a positive integer, got {self.n_pieces!r}"
            )

    @property
    def mesh(self) -> float:
        return self.t / self.n_pieces

    def times(self) -> np.ndarray:
        return np.arange(self.n_pieces + 1) * self.mesh


@dataclass(frozen=True)
class SpatialPartition:
    """Evenly spaced points x_lo = x_0 < ... < x_N = x_hi observed at a fixed time t."""

    t: float
    x_lo: float
    x_hi: float
    n_pieces: int

    def __post_init__(self):
        if not isinstance(self.n_pieces, (int, np.integer)) or self.n_pieces < 1:
            raise ConfigurationError(
                f"n_pieces must be a positive integer, got {self.n_pieces!r}"
            )
        if self.x_hi <= self.x_lo:
            raise ConfigurationError("x_hi must exceed x_lo")

    @property
    def spacing(self) -> float:
        return (self.x_hi - self.x_lo) / self.n_pieces

    def points(self) -> np.ndarray:
        return self.x_lo + np.arange(self.n_pieces + 1) * self.spacing


@dataclass(frozen=True)
class QvDecomposition:
    """The four estimators of one temporal quadratic variation rung.

    direct        sum of squared field increments
    frozen_noise  squared shell noise sums, each cell reweighted by sigma(u) at
                  the point where the shell's inner cone crosses the cell column
                  (clamped to the initial layer outside the inner cone's base)
    frozen_area   squared weights times cell areas (the conditional mean of
                  frozen_noise given the field on the inner cones)
    cone_integral sigma(u at each cell's bottom vertex)^2 times cell area,
                  summed over the full cone: a cell quadrature of the cone
                  integral, independent of temporal_qv_limit's columns rule
    """

    n_pieces: int
    direct: float
    frozen_noise: float
    frozen_area: float
    cone_integral: float


def _format_counts(counts: list[int]) -> str:
    if len(counts) <= 12:
        return ", ".join(str(c) for c in counts)
    head = ", ".join(str(c) for c in counts[:10])
    return f"{head}, ..., {counts[-1]}"


def _divisors(k: int) -> list[int]:
    """Divisors of k in ascending order, pairing each d <= isqrt(k) with k // d."""
    small = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    large = [k // d for d in reversed(small) if d * d != k]
    return small + large


def admissible_temporal_pieces(t: float, h: float) -> list[int]:
    """Piece counts N for which every partition time i*t/N is a lattice time of
    the right parity: N must divide (t/h)/2."""
    n0 = round(t / h)
    if abs(t / h - n0) > 1e-9 or n0 % 2 != 0 or n0 < 2:
        raise AlignmentError(f"t={t} must be a positive even multiple of h={h}")
    return _divisors(n0 // 2)


def admissible_spatial_pieces(x_lo: float, x_hi: float, h: float) -> list[int]:
    """Piece counts N for which the spacing (x_hi-x_lo)/N is an even multiple of h."""
    span = round((x_hi - x_lo) / h)
    if abs((x_hi - x_lo) / h - span) > 1e-9 or span % 2 != 0 or span < 2:
        raise AlignmentError(
            f"[{x_lo}, {x_hi}] must span a positive even multiple of h={h}"
        )
    return _divisors(span // 2)


# -- temporal line -------------------------------------------------------------


def temporal_increments(field: WaveField, part: TemporalPartition) -> np.ndarray:
    lat, n0, m0, step = _temporal_layout(field, part)
    levels = np.arange(part.n_pieces + 1) * step
    j = (m0 - lat.col_lo - levels) // 2
    vals = field.values[levels, j]
    return np.diff(vals)


def temporal_qv(field: WaveField, part: TemporalPartition) -> float:
    inc = temporal_increments(field, part)
    return float(np.sum(inc * inc))


def temporal_qv_limit(field: WaveField, t: float, x: float) -> float:
    """Columns quadrature of the cone integral of sigma(u)^2 at apex (t, x).

    Each lattice column is integrated by the trapezoid rule in time, then the
    column integrals by the trapezoid rule in space; both rules are folded into
    one weight per field point of the cone.  The ladder's `cone_integral` is an
    independent quadrature of the same integral (a sum over the cone's cells).
    """
    lat = field.lattice
    n0, m0 = _temporal_apex(lat, t, x)
    points, weights = _limit_geometry(lat, n0, m0)
    sv = field.sigma(field.flat[points])
    return float(np.sum(sv * sv * weights))


def temporal_qv_decomposition(field: WaveField, noise: NoiseRealization,
                              part: TemporalPartition) -> QvDecomposition:
    return temporal_qv_ladder(field, noise, part.t, part.x, [part.n_pieces])[0]


def temporal_qv_ladder(field: WaveField, noise: NoiseRealization,
                       t: float, x: float, counts: list[int]) -> list[QvDecomposition]:
    """Decompositions for several piece counts sharing one cone enumeration."""
    if not counts:
        return []
    parts = [TemporalPartition(t, x, n) for n in counts]
    lat = field.lattice
    steps = [_temporal_layout(field, p)[3] for p in parts]
    n0, m0 = _temporal_apex(lat, t, x)
    cone = _cone_geometry(lat, n0, m0)
    sig = field.sigma
    u = field.flat
    xi = noise.flat[cone.noise]
    cone_integral = _area_sum(sig(u[cone.base]), cone)
    out = []
    for part, step in zip(parts, steps):
        bucket, crossing = _rung_geometry(lat, n0, m0, step)
        w = sig(u[crossing])
        shell_sums = np.bincount(bucket, weights=w * xi, minlength=part.n_pieces)
        out.append(QvDecomposition(
            n_pieces=part.n_pieces,
            direct=temporal_qv(field, part),
            frozen_noise=float(np.sum(shell_sums * shell_sums)),
            frozen_area=_area_sum(w, cone),
            cone_integral=cone_integral,
        ))
    return out


# -- spatial line --------------------------------------------------------------


def spatial_increments(field: WaveField, part: SpatialPartition) -> np.ndarray:
    lat, n0, m_lo, m_hi, step = _spatial_layout(field, part)
    cols = m_lo + np.arange(part.n_pieces + 1) * step
    j = (cols - lat.col_lo - n0) // 2
    vals = field.values[n0, j]
    return np.diff(vals)


def spatial_qv(field: WaveField, part: SpatialPartition) -> float:
    inc = spatial_increments(field, part)
    return float(np.sum(inc * inc))


def spatial_qv_limit(field: WaveField, t: float, x_lo: float, x_hi: float) -> float:
    """Characteristic-route quadrature of the spatial quadratic variation limit.

    For each apex x in [x_lo, x_hi], sigma(u)^2 is integrated along the two
    characteristics s -> (s, x - t + s) and s -> (s, x + t - s), which pass
    through lattice points at every level; the apex integrals are then
    integrated over x.
    """
    lat, n0, m_lo, m_hi = _spatial_line(field, t, x_lo, x_hi, need_cones=True)
    h = lat.h
    sig = field.sigma
    ls = np.arange(n0 + 1)
    apexes = np.arange(m_lo, m_hi + 1, 2)
    L = np.broadcast_to(ls, (apexes.size, ls.size))
    M = apexes[:, None]
    left = sig(field.gather(L, M - n0 + L))
    right = sig(field.gather(L, M + n0 - L))
    inner = np.trapezoid(left * left + right * right, ls * h, axis=1)
    return float(np.trapezoid(inner, apexes * h))


def naive_qv_prediction(field: WaveField, t: float, x_lo: float, x_hi: float) -> float:
    """2t times the flat-slice integral of sigma(u(t, x))^2 over [x_lo, x_hi].

    This is the value the spatial quadratic variation would approach if the
    time-slice behaved like a memoryless diffusion profile; it overshoots the
    true characteristic-route limit whenever sigma(u) fluctuates.
    """
    lat, n0, m_lo, m_hi = _spatial_line(field, t, x_lo, x_hi, need_cones=False)
    cols = np.arange(m_lo, m_hi + 1, 2)
    vals = field.gather(np.full(cols.size, n0), cols)
    sv = field.sigma(vals)
    return float(2.0 * t * np.trapezoid(sv * sv, cols * lat.h))


# -- layout validation ---------------------------------------------------------


def _temporal_apex(lat: LatticeSpec, t: float, x: float) -> tuple[int, int]:
    n0 = lat.level_of(t)
    m0 = lat.col_of(x)
    if m0 % 2 != 0:
        raise AlignmentError(
            f"temporal estimators need x/h even (all partition times share the "
            f"base parity); got x={x}, h={lat.h}"
        )
    if n0 % 2 != 0:
        raise AlignmentError(f"temporal estimators need t/h even; got t={t}, h={lat.h}")
    if n0 < 2:
        raise ConfigurationError(f"t={t} leaves no room for a partition (t >= 2h needed)")
    if n0 > lat.n_levels:
        raise ConfigurationError(f"t={t} exceeds the simulated horizon {lat.t_max}")
    lat.require_cone_inside(n0, m0)
    return n0, m0


def _temporal_layout(field: WaveField,
                     part: TemporalPartition) -> tuple[LatticeSpec, int, int, int]:
    lat = field.lattice
    n0, m0 = _temporal_apex(lat, part.t, part.x)
    half = n0 // 2
    if half % part.n_pieces != 0:
        raise AlignmentError(
            f"n_pieces={part.n_pieces} does not divide the time line: t/n_pieces must "
            f"be an even multiple of h; admissible counts for t={part.t}, h={lat.h}: "
            f"{_format_counts(_divisors(half))}"
        )
    return lat, n0, m0, n0 // part.n_pieces


def _spatial_line(field: WaveField, t: float, x_lo: float, x_hi: float,
                  need_cones: bool) -> tuple[LatticeSpec, int, int, int]:
    lat = field.lattice
    n0 = lat.level_of(t)
    if not 1 <= n0 <= lat.n_levels:
        raise ConfigurationError(f"t={t} outside the simulated horizon (0, {lat.t_max}]")
    if x_hi <= x_lo:
        raise ConfigurationError("x_hi must exceed x_lo")
    m_lo = lat.col_of(x_lo)
    m_hi = lat.col_of(x_hi)
    if (m_lo + n0) % 2 != 0 or (m_hi + n0) % 2 != 0:
        raise AlignmentError(
            f"spatial line endpoints must be field points at t={t}: "
            f"x/h + t/h must be even (got x_lo/h={m_lo}, x_hi/h={m_hi}, t/h={n0})"
        )
    if need_cones:
        lat.require_cone_inside(n0, m_lo)
        lat.require_cone_inside(n0, m_hi)
    else:
        for m in (m_lo, m_hi):
            if not (lat.col_lo + n0 <= m <= lat.col_hi - n0):
                raise ConfigurationError(
                    f"x={m * lat.h} falls outside the trapezoid at t={t}"
                )
    return lat, n0, m_lo, m_hi


def _spatial_layout(field: WaveField,
                    part: SpatialPartition) -> tuple[LatticeSpec, int, int, int, int]:
    lat, n0, m_lo, m_hi = _spatial_line(field, part.t, part.x_lo, part.x_hi,
                                        need_cones=False)
    span = m_hi - m_lo
    if span % (2 * part.n_pieces) != 0:
        raise AlignmentError(
            f"n_pieces={part.n_pieces} does not divide the space line: the spacing "
            f"must be an even multiple of h; admissible counts for "
            f"[{part.x_lo}, {part.x_hi}], h={lat.h}: {_format_counts(_divisors(span // 2))}"
        )
    return lat, n0, m_lo, m_hi, span // part.n_pieces


# -- cone geometry, built once per (lattice, apex, step) ---------------------
#
# Every array below is a pure function of its cache key, so replicates share
# them; they are read-only and stored in the smallest index dtype.  Field
# offsets index WaveField.flat, noise offsets NoiseRealization.flat.

_GEOMETRY_CACHE_SIZE = 8


@dataclass(frozen=True)
class _ConeCells:
    """The cone's cells level by level, columns ascending; the `triangles`
    base cells (area h^2) come first, every later cell is a diamond (2 h^2)."""

    noise: np.ndarray  # noise offset of each cell
    base: np.ndarray  # field offset of each cell's bottom vertex
    triangles: int
    h: float


def _area_sum(w: np.ndarray, cone: _ConeCells) -> float:
    """Sum over the cone's cells of w^2 times the cell area."""
    h2 = cone.h * cone.h
    sq = w * w
    sq[:cone.triangles] *= h2
    sq[cone.triangles:] *= 2.0 * h2
    return float(np.sum(sq))


def _cone_cells(lat: LatticeSpec, n0: int, m0: int) -> tuple[np.ndarray, np.ndarray]:
    return segment_coords(cone_segments(lat, n0, m0))


@lru_cache(maxsize=_GEOMETRY_CACHE_SIZE)
def _cone_geometry(lat: LatticeSpec, n0: int, m0: int) -> _ConeCells:
    levels, cols = _cone_cells(lat, n0, m0)
    return _ConeCells(
        noise=packed_index(cell_index(lat, levels, cols)),
        base=packed_index(point_index(lat, levels - 1, cols)),
        triangles=int(np.count_nonzero(levels == 0)),
        h=lat.h,
    )


@lru_cache(maxsize=_GEOMETRY_CACHE_SIZE)
def _rung_geometry(lat: LatticeSpec, n0: int, m0: int,
                   step: int) -> tuple[np.ndarray, np.ndarray]:
    """(shell bucket, crossing-point field offset) of each cone cell for one rung.

    A cell at distance dm from the apex column lies in shell
    (level + dm) // step; its weight is read where the inner cone of that
    shell crosses the cell's column.
    """
    levels, cols = _cone_cells(lat, n0, m0)
    dm = np.abs(cols - m0)
    bucket = (levels + dm) // step
    return packed_index(bucket), packed_index(point_index(lat, bucket * step - dm, cols))


@lru_cache(maxsize=_GEOMETRY_CACHE_SIZE)
def _limit_geometry(lat: LatticeSpec, n0: int, m0: int) -> tuple[np.ndarray, np.ndarray]:
    """(field offset, weight) of every point of the columns quadrature.

    Column m0 + dm is sampled at levels of its parity up to n0 - |dm|; odd
    columns carry no level-0 point, so u(0, .) = 1 is prepended at s = 0.  A
    point's weight is its time-trapezoid weight along the column times the
    space-trapezoid weight h of the column (the two end columns have zero
    length and drop out).
    """
    h = lat.h
    levels, cols, weights = [], [], []
    for dm in range(-n0 + 1, n0):
        lmax = n0 - abs(dm)
        ls = np.arange(dm % 2, lmax + 1, 2)
        if dm % 2:
            ls = np.concatenate(([0], ls))
        gaps = np.diff(ls * h)
        w = np.zeros(ls.size)
        w[:-1] += gaps / 2.0
        w[1:] += gaps / 2.0
        levels.append(ls)
        cols.append(np.full(ls.size, m0 + dm))
        weights.append(h * w)
    points = point_index(lat, np.concatenate(levels), np.concatenate(cols))
    weights = np.concatenate(weights)
    weights.flags.writeable = False
    return packed_index(points), weights
