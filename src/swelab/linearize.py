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

import numpy as np

from .sigma import SigmaSpec

__all__ = ["defect_samples", "wave_defect_samples", "heat_defect_samples"]


def defect_samples(sigma: SigmaSpec, fields: np.ndarray, linear: np.ndarray,
                   points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(du, dl, defect), each shaped (seeds, lags), from the rows of a coupled
    solve: `fields` solved with `sigma` and `linear` with sigma == 1, one row
    per seed, driven by the same noise. `points` holds the row offset of the
    base point first, then that of each lagged point in turn (field offsets on
    the wave lattice, sites on the heat grid)."""
    u = fields[:, points]
    lin = linear[:, points]
    du = u[:, 1:] - u[:, :1]
    dl = lin[:, 1:] - lin[:, :1]
    return du, dl, du - sigma(u[:, :1]) * dl


# bench/tracer.py wraps both names (its LAYERS table), and its
# linearize.defect_ms adds the two together, so both stay bound here.
wave_defect_samples = heat_defect_samples = defect_samples
