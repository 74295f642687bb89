"""Quadratic variation along time and space lines, with cone-integral limits.

Temporal route: at a fixed point x the squared increments of t -> u(t, x) pick up,
piece by piece, the noise mass of nested cone shells; their sum converges to the
integral of sigma(u)^2 over the full backward cone.  The decomposition below
exposes the intermediate estimators used to see that happen at finite mesh.

Spatial route: at a fixed time the squared increments of x -> u(t, x) converge to
an integral of sigma(u)^2 along the two characteristics through each point, not
to the flat-slice value 2*t*int sigma(u(t,x))^2 dx; both are computed here so the
gap is measurable.

The study plan resolves the points a line reads (`config.place_reads`);
`temporal_geometry` or `spatial_geometry` enumerates, once per config, every
point and cell an estimator reads from them, and the estimators only gather
and sum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeSpec, cone_segments, index_array, segment_coords
from .noise import cell_index
from .wave import WaveField, point_index

__all__ = [
    "TemporalRung",
    "ConeGeometry",
    "SpatialGeometry",
    "QvDecomposition",
    "temporal_geometry",
    "spatial_geometry",
    "increments",
    "line_qv",
    "temporal_qv",
    "temporal_qv_limit",
    "temporal_qv_decomposition",
    "temporal_qv_ladder",
    "spatial_qv",
    "spatial_qv_limit",
    "naive_qv_prediction",
]


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


# -- geometry, built once per config ------------------------------------------
#
# Field offsets index WaveField.values, noise offsets a row of
# NoiseBlock.increments; every array is read-only, and every index array is
# intp, the dtype numpy gathers through without a conversion.


@dataclass(frozen=True)
class TemporalRung:
    """One piece count N at the apex: the N + 1 partition points, and for each
    cone cell its shell and the point where that shell's inner cone crosses the
    cell's column (a cell at distance dm from the apex column lies in shell
    (level + dm) // step, step = t / (N h))."""

    n_pieces: int
    line: np.ndarray  # field offsets of u(i t / N, x), i = 0..N
    bucket: np.ndarray  # shell of each cone cell
    crossing: np.ndarray  # field offset of each cell's weight point


@dataclass(frozen=True)
class ConeGeometry:
    """What the temporal estimators read in the backward cone of one apex.

    Cells run level by level, columns ascending; the `triangles` base cells
    (area h^2) come first, every later cell is a diamond (2 h^2).
    """

    h: float
    noise: np.ndarray  # noise offset of each cell
    base: np.ndarray  # field offset of each cell's bottom vertex
    triangles: int
    limit_points: np.ndarray  # field offsets of the columns quadrature
    limit_weights: np.ndarray
    rungs: tuple[TemporalRung, ...]


def temporal_geometry(lat: LatticeSpec, apex: tuple[int, int],
                      counts: list[int]) -> ConeGeometry:
    """The cone of a (level, col) apex, enumerated once, one rung per piece count."""
    n0, m0 = apex
    levels, cols = segment_coords(cone_segments(lat, n0, m0))
    dm = np.abs(cols - m0)
    rungs = []
    for n in counts:
        step = n0 // n
        bucket = (levels + dm) // step
        rungs.append(TemporalRung(
            n_pieces=n,
            line=index_array(point_index(lat, np.arange(n + 1) * step, m0)),
            bucket=index_array(bucket),
            crossing=index_array(point_index(lat, bucket * step - dm, cols)),
        ))
    points, weights = _limit_quadrature(lat, n0, m0)
    return ConeGeometry(
        h=lat.h,
        noise=index_array(cell_index(lat, levels, cols)),
        base=index_array(point_index(lat, levels - 1, cols)),
        triangles=int(np.count_nonzero(levels == 0)),
        limit_points=points,
        limit_weights=weights,
        rungs=tuple(rungs),
    )


def _limit_quadrature(lat: LatticeSpec, n0: int,
                      m0: int) -> tuple[np.ndarray, np.ndarray]:
    """(field offset, weight) of every point of the columns quadrature.

    Column m0 + dm is sampled at levels of its parity up to n0 - |dm|; odd
    columns carry no level-0 point, so u(0, .) = 1 is prepended at s = 0.  A
    point's weight is its time-trapezoid weight along the column times the
    space-trapezoid weight h of the column (the two end columns have zero
    length and drop out).
    """
    h = lat.h
    dm = np.arange(-n0 + 1, n0)
    odd = dm % 2
    sizes = (n0 - np.abs(dm) + odd) // 2 + 1
    starts = np.cumsum(sizes) - sizes
    # k-th point of a column: level 2k on even columns, 0 then 2k - 1 on odd ones
    k = np.arange(int(sizes.sum())) - np.repeat(starts, sizes)
    ls = np.where(k == 0, 0, 2 * k - np.repeat(odd, sizes))
    s = ls * h
    # half of each gap between neighbours in the same column
    half = np.where(np.diff(k) > 0, np.diff(s) / 2.0, 0.0)
    w = np.zeros(s.size)
    w[:-1] += half
    w[1:] += half
    weights = h * w
    weights.flags.writeable = False
    points = point_index(lat, ls, np.repeat(m0 + dm, sizes))
    return index_array(points), weights


@dataclass(frozen=True)
class SpatialGeometry:
    """What the spatial estimators read on the segment [x_lo, x_hi] at time t.

    One apex per field point of the segment; each carries its two
    characteristics s -> (s, x - t + s) and s -> (s, x + t - s), sampled at
    every level.
    """

    t: float
    xs: np.ndarray  # apex positions x_lo, x_lo + 2h, ..., x_hi
    ss: np.ndarray  # characteristic times 0, h, ..., t
    left: np.ndarray  # (apex, level) field offsets of the left characteristic
    right: np.ndarray  # the same for the right characteristic
    apexes: np.ndarray  # field offset of each apex
    counts: tuple[int, ...]
    lines: tuple[np.ndarray, ...]  # per count: field offsets of its N + 1 points


def spatial_geometry(lat: LatticeSpec, t: float, ends: list[tuple[int, int]],
                     counts: list[int]) -> SpatialGeometry:
    """The segment between two (level, col) ends at time t, one line per piece count."""
    (n0, m_lo), (_, m_hi) = ends
    ls = np.arange(n0 + 1)
    cols = np.arange(m_lo, m_hi + 1, 2)
    xs = cols * lat.h
    ss = ls * lat.h
    for grid in (xs, ss):
        grid.flags.writeable = False
    return SpatialGeometry(
        t=t,
        xs=xs,
        ss=ss,
        left=index_array(point_index(lat, ls, cols[:, None] - n0 + ls)),
        right=index_array(point_index(lat, ls, cols[:, None] + n0 - ls)),
        apexes=index_array(point_index(lat, n0, cols)),
        counts=tuple(counts),
        lines=tuple(index_array(point_index(lat, n0, cols[::(cols.size - 1) // n]))
                    for n in counts),
    )


def increments(field: WaveField, line: np.ndarray) -> np.ndarray:
    """Field increments between consecutive points of a partition line."""
    return np.diff(field.values[line])


def line_qv(field: WaveField, line: np.ndarray) -> float:
    """Sum of squared field increments along a partition line, in time or space."""
    inc = increments(field, line)
    return float(np.sum(inc * inc))


# bench/tracer.py wraps both names (its LAYERS table), so both stay bound here;
# its wrappers are keyed by function, so traced runs report line_qv under
# quadvar.spatial_qv.
temporal_qv = spatial_qv = line_qv


# -- temporal line -------------------------------------------------------------


def temporal_qv_limit(field: WaveField, cone: ConeGeometry) -> float:
    """Columns quadrature of the cone integral of sigma(u)^2 at the cone's apex.

    Each lattice column is integrated by the trapezoid rule in time, then the
    column integrals by the trapezoid rule in space; both rules are folded into
    one weight per field point of the cone.  The ladder's `cone_integral` is an
    independent quadrature of the same integral (a sum over the cone's cells).
    """
    sv = field.sigma(field.values[cone.limit_points])
    return float(np.sum(sv * sv * cone.limit_weights))


def temporal_qv_decomposition(field: WaveField, noise: np.ndarray,
                              cone: ConeGeometry) -> QvDecomposition:
    """The decomposition of a cone built for exactly one piece count.

    No study calls it; bench/tracer.py wraps it (its LAYERS table)."""
    (dec,) = temporal_qv_ladder(field, noise, cone)
    return dec


def temporal_qv_ladder(field: WaveField, noise: np.ndarray,
                       cone: ConeGeometry) -> list[QvDecomposition]:
    """Decompositions for every rung of the cone, sharing one gather of its
    cells from `noise`, the field's seed's row of NoiseBlock.increments."""
    sig = field.sigma
    u = field.values
    xi = noise[cone.noise]
    cone_integral = _area_sum(sig(u[cone.base]), cone)
    out = []
    for rung in cone.rungs:
        w = sig(u[rung.crossing])
        shell_sums = np.bincount(rung.bucket, weights=w * xi, minlength=rung.n_pieces)
        out.append(QvDecomposition(
            n_pieces=rung.n_pieces,
            direct=line_qv(field, rung.line),
            frozen_noise=float(np.sum(shell_sums * shell_sums)),
            frozen_area=_area_sum(w, cone),
            cone_integral=cone_integral,
        ))
    return out


def _area_sum(w: np.ndarray, cone: ConeGeometry) -> float:
    """Sum over the cone's cells of w^2 times the cell area."""
    h2 = cone.h * cone.h
    sq = w * w
    sq[:cone.triangles] *= h2
    sq[cone.triangles:] *= 2.0 * h2
    return float(np.sum(sq))


# -- spatial line --------------------------------------------------------------


def spatial_qv_limit(field: WaveField, line: SpatialGeometry) -> float:
    """Characteristic-route quadrature of the spatial quadratic variation limit.

    For each apex x in [x_lo, x_hi], sigma(u)^2 is integrated along the two
    characteristics through it, which pass through lattice points at every
    level; the apex integrals are then integrated over x.
    """
    sig = field.sigma
    left = sig(field.values[line.left])
    right = sig(field.values[line.right])
    inner = np.trapezoid(left * left + right * right, line.ss, axis=1)
    return float(np.trapezoid(inner, line.xs))


def naive_qv_prediction(field: WaveField, line: SpatialGeometry) -> float:
    """2t times the flat-slice integral of sigma(u(t, x))^2 over [x_lo, x_hi].

    This is the value the spatial quadratic variation would approach if the
    time-slice behaved like a memoryless diffusion profile; it overshoots the
    true characteristic-route limit whenever sigma(u) fluctuates.
    """
    sv = field.sigma(field.values[line.apexes])
    return float(2.0 * line.t * np.trapezoid(sv * sv, line.xs))
