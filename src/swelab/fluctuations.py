"""Small-increment fluctuation statistics at a fixed space-time point.

The temporal increment over a short window is, to leading order, a weighted
noise integral over a thin truncated shell; its conditional variance per unit
time is the integral of sigma(u)^2 along the backward cone boundary.  This
module computes that variance, standardized increments, the explicit
martingale/remainder split of the increment, and an iterated-logarithm probe.

The study plan resolves the points a probe reads (`config.place_reads`);
`probe_geometry` enumerates, once per config, every point and cell the
estimators read from them, and the estimators only gather and sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .lattice import (
    LatticeSpec,
    index_array,
    segment_coords,
    shell_segments,
    temporal_shell_area,
)
from .noise import cell_index
from .wave import WaveField, cone_boundary_trace, point_index

__all__ = [
    "ProbeGeometry",
    "MartingaleProbe",
    "probe_geometry",
    "conditional_variance",
    "increment_sample",
    "martingale_decomposition",
    "lil_statistic",
]


@dataclass(frozen=True)
class ProbeGeometry:
    """What the fluctuation estimators read at (t, x) for a grid of scales."""

    t: float
    scales: tuple[float, ...]
    base: int  # field offset of (t, x)
    tops: np.ndarray  # field offset of (t + scale, x), per scale
    y: np.ndarray  # columns of the cone boundary trace of (t, x)
    trace: np.ndarray  # field offsets of the trace
    # per scale, (noise offset, trace entry) of each cell of the truncated
    # shell; empty unless built for the martingale split
    shells: tuple[tuple[np.ndarray, np.ndarray], ...]


def probe_geometry(lat: LatticeSpec, t: float, apex: tuple[int, int], scales: list[float],
                   tops: list[int], shells: bool = False) -> ProbeGeometry:
    """The probe at the (level, col) apex of (t, x); tops[i] is the level of
    (t + scales[i], x)."""
    n0, m0 = apex
    y, trace = cone_boundary_trace(lat, n0, m0)
    return ProbeGeometry(
        t=t,
        scales=tuple(scales),
        base=int(point_index(lat, n0, m0)),
        tops=index_array(point_index(lat, tops, m0)),
        y=y,
        trace=trace,
        shells=tuple(_truncated_shell(lat, n0, m0, top) for top in tops) if shells else (),
    )


def _truncated_shell(lat: LatticeSpec, n0: int, m0: int,
                     top: int) -> tuple[np.ndarray, np.ndarray]:
    """(noise offset, trace entry) of each cell between the cones of (n0, m0)
    and (top, m0), truncated to |col - m0| <= n0 - 1.

    Truncation keeps every cell's weight point (n0 - |col - m0|, col) on the
    cone boundary of (t, x): entry col - m0 + n0 of its trace.  Cells are
    whole: diamonds straddling |y - x| = t are dropped.  A zero scale has no
    cells.
    """
    segs = shell_segments(lat, m0, n0, top, col_cap=n0 - 1) if top > n0 else []
    levels, cols = segment_coords(segs)
    return index_array(cell_index(lat, levels, cols)), index_array(cols - m0 + n0)


@dataclass(frozen=True)
class MartingaleProbe:
    """Increment split at several probe scales: increment = martingale + remainder."""

    increments: tuple[float, ...]
    martingale: tuple[float, ...]
    remainder: tuple[float, ...]
    variance_hat: float


def conditional_variance(field: WaveField, probe: ProbeGeometry) -> float:
    """Integral of sigma(u)^2 along the cone boundary trace of (t, x).

    Trapezoid quadrature over every column of the trace; for sigma == 1 this is
    the exact base length 2t.
    """
    return _trace_integral(field.sigma(field.values[probe.trace]), probe.y)


def _trace_integral(sv: np.ndarray, y: np.ndarray) -> float:
    return float(np.trapezoid(sv * sv, y))


def _increments(field: WaveField, probe: ProbeGeometry) -> list[float]:
    """u(t + scale, x) - u(t, x) at every scale."""
    u = field.values
    return (u[probe.tops] - u[probe.base]).tolist()


def _nonzero(vhat: float) -> float:
    """The conditional variance, refused where nothing is left to divide by."""
    if vhat <= 0.0:
        raise DegenerateInputError(
            "conditional variance is zero (sigma vanishes on the cone boundary trace)"
        )
    return vhat


def increment_sample(field: WaveField, probe: ProbeGeometry, vhat: float,
                     standardization: str = "trace") -> tuple[list[float], list[float]]:
    """(increments, standardized): u(t+scale, x) - u(t, x) at every scale of
    the probe, in order, and each standardized to an approximately unit
    variance.

    standardization 'trace' divides by sqrt(scale * conditional_variance): the
    per-path normalization of the mixed-Gaussian limit.  'shell' divides by the
    exact noise variance sigma(c)^2 * ((t+scale)^2 - t^2), valid only for
    constant sigma, where the increment is exactly Gaussian.  `vhat` is
    conditional_variance(field, probe), which the caller also reports.
    """
    vhat = _nonzero(vhat)
    incs = _increments(field, probe)
    if standardization == "shell":
        c2 = field.sigma.scalar(1.0) ** 2
        variances = [c2 * temporal_shell_area(probe.t, probe.t + s) for s in probe.scales]
    else:
        variances = [s * vhat for s in probe.scales]
    return incs, [inc / math.sqrt(var) for inc, var in zip(incs, variances)]


def martingale_decomposition(field: WaveField, noise: np.ndarray,
                             probe: ProbeGeometry) -> MartingaleProbe:
    """Split each increment into its adapted shell-noise part and a remainder.

    The martingale part is the noise integral over the shell between the cones
    of t and t+scale, truncated to the strip |y - x| <= t, each cell weighted by
    sigma(u) at the point where the cone boundary of (t, x) crosses the cell's
    column.  The remainder is the rest of the increment; it carries one power of
    scale more than the martingale part.  `noise` is the field's seed's row of
    NoiseBlock.increments; the probe must carry its shells.
    """
    sv = field.sigma(field.values[probe.trace])
    incs = _increments(field, probe)
    ms = [float(np.sum(sv[cols] * noise[cells])) for cells, cols in probe.shells]
    return MartingaleProbe(
        increments=tuple(incs),
        martingale=tuple(ms),
        remainder=tuple(inc - m for inc, m in zip(incs, ms)),
        variance_hat=_trace_integral(sv, probe.y),
    )


def lil_statistic(field: WaveField, probe: ProbeGeometry) -> tuple[float, ...]:
    """|increment| / sqrt(2*eps*loglog(1/eps) * V) at each scale eps, in order.

    V is the conditional variance at (t, x).  The statistic is the max over the
    scale grid: a finite-resolution stand-in for a limsup, comparable only
    against a control process probed at the same resolution, never against the
    continuum constant.
    """
    vhat = _nonzero(conditional_variance(field, probe))
    return tuple(
        abs(inc) / math.sqrt(2.0 * scale * math.log(math.log(1.0 / scale)) * vhat)
        for scale, inc in zip(probe.scales, _increments(field, probe))
    )
