"""Explicit finite-difference solver for the comparison parabolic model.

v(0) = 1 on a periodic circle; each step smooths with the discrete Laplacian and
adds sigma(v) times a scaled normal per site.  The normals come from a counter
stream keyed separately from the wave noise, one word per (step, site), so any
value is reproducible in isolation.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, ConfigurationError, ConfigurationWarning, DomainError
from .noise import HEAT_STREAM_TAG, _check_seed, stream_words, words_to_unit_normals
from .sigma import CONSTANT_ONE, SigmaSpec

__all__ = [
    "HeatGridSpec",
    "HeatField",
    "solve_heat",
    "solve_coupled_heat_linearization",
]

_REL_TOL = 1e-9


def _exact_ratio(value: float, unit: float, what: str) -> int:
    k = value / unit
    if not math.isfinite(k):
        raise ConfigurationError(f"{what}={value!r} is not a finite multiple of {unit!r}")
    r = round(k)
    if abs(k - r) > _REL_TOL * max(1.0, abs(k)):
        raise ConfigurationError(f"{what}={value!r} is not an integer multiple of {unit!r}")
    return int(r)


@dataclass(frozen=True)
class HeatGridSpec:
    """Rectangular grid: spacing dx on a circle of the given circumference,
    explicit steps of size dt (default dx^2/4) up to t_max.

    Stability demands dt <= dx^2/2.  A circumference below 16*sqrt(t_max) lets
    the periodic images of the heat kernel overlap measurably and draws a
    warning.
    """

    dx: float
    t_max: float
    circumference: float
    dt: float = field(default=0.0)

    def __post_init__(self):
        if not (self.dx > 0.0 and np.isfinite(self.dx)):
            raise ConfigurationError(f"dx must be positive and finite, got {self.dx!r}")
        if self.dt == 0.0:
            object.__setattr__(self, "dt", self.dx * self.dx / 4.0)
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ConfigurationError(f"dt must be positive and finite, got {self.dt!r}")
        if self.dt > self.dx * self.dx / 2.0 + 1e-15:
            raise ConfigurationError(
                f"unstable step: dt={self.dt} exceeds dx^2/2 = {self.dx ** 2 / 2}"
            )
        if _exact_ratio(self.circumference, self.dx, "circumference") < 4:
            raise ConfigurationError("circumference must cover at least 4 sites")
        if _exact_ratio(self.t_max, self.dt, "t_max") < 1:
            raise ConfigurationError("t_max must cover at least one step")
        if self.circumference < 16.0 * math.sqrt(self.t_max):
            warnings.warn(
                f"circumference {self.circumference} below 16*sqrt(t_max) "
                f"= {16 * math.sqrt(self.t_max):.4g}: periodic wrap-around may bias "
                "increment statistics",
                ConfigurationWarning,
                stacklevel=2,
            )

    @property
    def n_steps(self) -> int:
        return round(self.t_max / self.dt)

    @property
    def n_sites(self) -> int:
        return round(self.circumference / self.dx)

    def step_of(self, t: float) -> int:
        n = _exact_ratio(t, self.dt, "t")
        if not 0 <= n <= self.n_steps:
            raise DomainError(f"t={t} outside [0, {self.t_max}]")
        return n

    def site_of(self, x: float) -> int:
        try:
            j = _exact_ratio(x, self.dx, "x")
        except ConfigurationError:
            raise AlignmentError(f"x={x} is not a multiple of dx={self.dx}") from None
        return j % self.n_sites


@dataclass(frozen=True)
class HeatField:
    grid: HeatGridSpec
    sigma: SigmaSpec
    seed: int
    values: np.ndarray = field(repr=False)  # (n_steps + 1, n_sites)

    def at(self, t: float, x: float) -> float:
        return float(self.values[self.grid.step_of(t), self.grid.site_of(x)])


def _march(sigma: SigmaSpec, grid: HeatGridSpec, z: np.ndarray) -> np.ndarray:
    r = grid.dt / (grid.dx * grid.dx)
    amp = math.sqrt(grid.dt / grid.dx)
    v = np.empty((grid.n_steps + 1, grid.n_sites))
    v[0] = 1.0
    for n in range(grid.n_steps):
        cur = v[n]
        lap = np.roll(cur, 1) + np.roll(cur, -1) - 2.0 * cur
        v[n + 1] = cur + r * lap + sigma(cur) * (amp * z[n])
    return v


def _normals(seed: int, grid: HeatGridSpec) -> np.ndarray:
    words = stream_words(seed, HEAT_STREAM_TAG, 0, grid.n_steps * grid.n_sites)
    return words_to_unit_normals(words).reshape(grid.n_steps, grid.n_sites)


def solve_heat(sigma: SigmaSpec, seed: int, grid: HeatGridSpec) -> HeatField:
    seed = _check_seed(seed)
    z = _normals(seed, grid)
    return HeatField(grid=grid, sigma=sigma, seed=seed, values=_march(sigma, grid, z))


def solve_coupled_heat_linearization(sigma: SigmaSpec, seed: int,
                                     grid: HeatGridSpec) -> tuple[HeatField, HeatField]:
    """(nonlinear field, sigma==1 field) driven by the identical site normals."""
    seed = _check_seed(seed)
    z = _normals(seed, grid)
    v = HeatField(grid=grid, sigma=sigma, seed=seed, values=_march(sigma, grid, z))
    lin = HeatField(grid=grid, sigma=CONSTANT_ONE, seed=seed,
                    values=_march(CONSTANT_ONE, grid, z))
    return v, lin
