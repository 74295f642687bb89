"""Small-increment fluctuation statistics at a fixed space-time point.

The temporal increment over a short window is, to leading order, a weighted
noise integral over a thin truncated shell; its conditional variance per unit
time is the integral of sigma(u)^2 along the backward cone boundary.  This
module computes that variance, standardized increments, the explicit
martingale/remainder split of the increment, and an iterated-logarithm probe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    AlignmentError,
    ConfigurationError,
    DegenerateInputError,
    PreconditionError,
)
from .lattice import (
    LatticeSpec,
    packed_index,
    segment_coords,
    shell_segments,
    temporal_shell_area,
)
from .noise import NoiseRealization, cell_index
from .wave import WaveField, cone_boundary_trace

__all__ = [
    "IncrementSample",
    "MartingaleProbe",
    "conditional_variance",
    "increment_sample",
    "martingale_decomposition",
    "lil_statistic",
]


@dataclass(frozen=True)
class IncrementSample:
    """One replicate's short-time increment with its own standardization."""

    scale: float
    increment: float
    variance_hat: float  # conditional variance per unit time at (t, x)
    standardized: float


@dataclass(frozen=True)
class MartingaleProbe:
    """Increment split at several probe scales: increment = martingale + remainder."""

    scales: tuple[float, ...]
    increments: tuple[float, ...]
    martingale: tuple[float, ...]
    remainder: tuple[float, ...]
    variance_hat: float


def conditional_variance(field: WaveField, t: float, x: float) -> float:
    """Integral of sigma(u)^2 along the cone boundary trace of (t, x).

    Trapezoid quadrature over every column of the trace; for sigma == 1 this is
    the exact base length 2t.
    """
    y, vals = cone_boundary_trace(field, t, x)
    return _trace_integral(field.sigma(vals), y)


def _trace_integral(sv: np.ndarray, y: np.ndarray) -> float:
    return float(np.trapezoid(sv * sv, y))


def _probe_steps(field: WaveField, t: float, x: float, scale: float) -> tuple[int, int, int]:
    """(base level, apex col, scale in levels), validated for an aligned probe."""
    lat = field.lattice
    n0, m0 = lat.apex(t, x)
    if n0 < 1:
        raise ConfigurationError("probes need t >= h")
    j = lat.level_of(scale) if scale != 0.0 else 0
    if j < 0 or j % 2 != 0:
        raise AlignmentError(
            f"probe scale {scale} must be a nonnegative even multiple of h={lat.h} "
            f"(odd steps land on the wrong parity at fixed x)"
        )
    if n0 + j > lat.n_levels:
        raise ConfigurationError(
            f"probe scale {scale} at t={t} exceeds the horizon {lat.t_max}"
        )
    lat.require_cone_inside(n0 + j, m0)
    return n0, m0, j


def increment_sample(field: WaveField, t: float, x: float, scale: float,
                     standardization: str = "trace",
                     vhat: float | None = None) -> IncrementSample:
    """u(t+scale, x) - u(t, x) standardized to an approximately unit variance.

    standardization 'trace' divides by sqrt(scale * conditional_variance): the
    per-path normalization of the mixed-Gaussian limit.  'shell' divides by the
    exact noise variance sigma(c)^2 * ((t+scale)^2 - t^2), valid only for
    constant sigma, where the increment is exactly Gaussian.  A caller probing
    several scales at one (t, x) passes the conditional variance as `vhat`.
    """
    n0, m0, j = _probe_steps(field, t, x, scale)
    if j == 0:
        raise ConfigurationError("increment sample needs a positive scale")
    inc = field.at_point(n0 + j, m0) - field.at_point(n0, m0)
    if vhat is None:
        vhat = conditional_variance(field, t, x)
    if standardization == "shell":
        if not field.sigma.is_constant:
            raise PreconditionError(
                "exact shell standardization only applies to constant sigma"
            )
        var = field.sigma.scalar(1.0) ** 2 * temporal_shell_area(t, t + scale)
    elif standardization == "trace":
        var = scale * vhat
    else:
        raise ConfigurationError(f"unknown standardization {standardization!r}")
    if var <= 0.0:
        raise DegenerateInputError(
            "increment standardization undefined: conditional variance is zero "
            "(sigma vanishes on the cone boundary trace)"
        )
    return IncrementSample(
        scale=scale,
        increment=inc,
        variance_hat=vhat,
        standardized=inc / math.sqrt(var),
    )


@lru_cache(maxsize=16)
def _shell_geometry(lat: LatticeSpec, n0: int, m0: int,
                    j: int) -> tuple[np.ndarray, np.ndarray]:
    """(noise offset, trace offset) of each cell of the truncated shell.

    Truncation keeps columns with |col - m0| <= n0 - 1, so every cell's weight
    point (n0 - |col - m0|, col) lies on the cone boundary of (t, x): entry
    col - m0 + n0 of its trace.  Cells are whole: diamonds straddling
    |y - x| = t are dropped.
    """
    levels, cols = segment_coords(shell_segments(lat, m0, n0, n0 + j, col_cap=n0 - 1))
    return packed_index(cell_index(lat, levels, cols)), packed_index(cols - m0 + n0)


def martingale_decomposition(field: WaveField, noise: NoiseRealization,
                             t: float, x: float,
                             scales: list[float]) -> MartingaleProbe:
    """Split each increment into its adapted shell-noise part and a remainder.

    The martingale part is the noise integral over the shell between the cones
    of t and t+scale, truncated to the strip |y - x| <= t, each cell weighted by
    sigma(u) at the point where the cone boundary of (t, x) crosses the cell's
    column.  The remainder is the rest of the increment; it carries one power of
    scale more than the martingale part.
    """
    lat = field.lattice
    y, trace = cone_boundary_trace(field, t, x)
    sv = field.sigma(trace)
    incs, ms, rs = [], [], []
    for scale in scales:
        n0, m0, j = _probe_steps(field, t, x, scale)
        if j == 0:
            incs.append(0.0)
            ms.append(0.0)
            rs.append(0.0)
            continue
        inc = field.at_point(n0 + j, m0) - field.at_point(n0, m0)
        cells, cols = _shell_geometry(lat, n0, m0, j)
        m_val = float(np.sum(sv[cols] * noise.flat[cells]))
        incs.append(inc)
        ms.append(m_val)
        rs.append(inc - m_val)
    return MartingaleProbe(
        scales=tuple(scales),
        increments=tuple(incs),
        martingale=tuple(ms),
        remainder=tuple(rs),
        variance_hat=_trace_integral(sv, y),
    )


def lil_statistic(field: WaveField, t: float, x: float,
                  scales: list[float]) -> tuple[float, ...]:
    """|increment| / sqrt(2*eps*loglog(1/eps) * V) at each scale eps, in order.

    V is the conditional variance at (t, x).  The statistic is the max over the
    scale grid: a finite-resolution stand-in for a limsup, comparable only
    against a control process probed at the same resolution, never against the
    continuum constant.
    """
    if not scales:
        raise ConfigurationError("empty scale grid")
    lat = field.lattice
    vhat = conditional_variance(field, t, x)
    if vhat <= 0.0:
        raise DegenerateInputError(
            "iterated-logarithm statistic undefined: conditional variance is zero"
        )
    out = []
    for scale in scales:
        n0, m0, j = _probe_steps(field, t, x, scale)
        if j < 2:
            raise ConfigurationError(
                f"probe scale {scale} below the lattice floor 2h = {2 * lat.h}"
            )
        if scale > t / 8.0 + 1e-12:
            raise ConfigurationError(
                f"probe scale {scale} too coarse: scales must stay below t/8"
            )
        loglog = math.log(math.log(1.0 / scale))
        if loglog <= 0.0:
            raise ConfigurationError(
                f"probe scale {scale} too coarse for an iterated-logarithm rate"
            )
        inc = field.at_point(n0 + j, m0) - field.at_point(n0, m0)
        out.append(abs(inc) / math.sqrt(2.0 * scale * loglog * vhat))
    return tuple(out)
