"""Pathwise linearization probes for both equations under matched noise.

The local picture to test: near a fixed point (t, x), increments of the
nonlinear solution u should (or should not) look like the frozen coefficient
sigma(u(t, x)) times increments of the unit-coefficient solution driven by the
same noise. For each spatial lag d this module reports the raw increment
u(t, x+d) - u(t, x), the matched unit-coefficient increment, and the defect

    u(t, x+d) - u(t, x) - sigma(u(t, x)) * (L(t, x+d) - L(t, x)).

Whether the defect is lower order than the increment as d shrinks is exactly
the question the parabolic and hyperbolic runs answer differently.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlignmentError, PreconditionError
from .heat import HeatField
from .wave import WaveField

__all__ = ["DefectSample", "wave_defect_samples", "heat_defect_samples"]


@dataclass(frozen=True)
class DefectSample:
    lag: float
    field_increment: float
    linear_increment: float
    defect: float


def _defect_samples(field, linear, u: np.ndarray, lin: np.ndarray,
                    lags: Sequence[float]) -> list[DefectSample]:
    """The defect at each lag from the values read at the base point (first)
    and at each lagged point, on a coupled pair of fields."""
    if field.seed != linear.seed:
        raise PreconditionError(
            f"seeds differ ({field.seed} vs {linear.seed}); increments are not "
            "driven by the same noise"
        )
    if not (linear.sigma.is_constant and linear.sigma.scalar(1.0) == 1.0):
        raise PreconditionError(
            f"the comparison field must be solved with constant coefficient 1, "
            f"got {linear.sigma.label()}"
        )
    base_u, *us = u.tolist()
    base_l, *ls = lin.tolist()
    frozen = field.sigma.scalar(base_u)
    out = []
    for lag, u_lag, l_lag in zip(lags, us, ls):
        if lag <= 0:
            raise AlignmentError(f"lags must be positive, got {lag}")
        du = u_lag - base_u
        dl = l_lag - base_l
        out.append(DefectSample(float(lag), du, dl, du - frozen * dl))
    return out


def wave_defect_samples(field: WaveField, linear: WaveField, points: np.ndarray,
                        lags: Sequence[float]) -> list[DefectSample]:
    """Defects at resolved field offsets: `points` holds (t, x) first, then
    (t, x + lag) for each lag in turn."""
    if field.lattice != linear.lattice:
        raise PreconditionError("fields live on different lattices; not coupled")
    return _defect_samples(field, linear, field.flat[points], linear.flat[points], lags)


def heat_defect_samples(field: HeatField, linear: HeatField, points: np.ndarray,
                        lags: Sequence[float]) -> list[DefectSample]:
    """Defects at resolved grid sites: `points` holds the site of x first,
    then that of x + lag for each lag in turn."""
    if field.grid != linear.grid or field.step != linear.step:
        raise PreconditionError("fields live on different grids or steps; not coupled")
    return _defect_samples(field, linear, field.values[points], linear.values[points],
                           lags)
