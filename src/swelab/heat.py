"""Explicit finite-difference solver for the comparison parabolic model.

v(0) = 1 on a periodic circle; each step smooths with the discrete Laplacian and
adds sigma(v) times a scaled normal per site.  The normals come from a counter
stream keyed separately from the wave noise, one word per (step, site), so any
value is reproducible in isolation.  A solve marches to its grid's t_max and
keeps only that row; a study that reads an earlier time marches a grid cut
at that step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlignmentError, ConfigurationError, DomainError
from .noise import HEAT_STREAM_TAG, _check_seed, stream_words, words_to_unit_normals
from .sigma import CONSTANT_ONE, SigmaSpec

__all__ = [
    "HeatGridSpec",
    "solve_heat",
    "solve_coupled_heat_linearization",
]

_REL_TOL = 1e-9
# Normals drawn per seed per chunk of steps: 128 steps of a 256-site grid, so
# a 16-seed block holds 4 MB of normals at a time.
_CHUNK_WORDS = 1 << 15


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
    explicit steps of size dt (dx^2/4 when dt is None) up to t_max.

    Stability demands dt <= dx^2/2.
    """

    dx: float
    t_max: float
    circumference: float
    dt: float | None = None

    def __post_init__(self):
        if not (self.dx > 0.0 and np.isfinite(self.dx)):
            raise ConfigurationError(f"dx must be positive and finite, got {self.dx!r}")
        if self.dt is None:
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


def _normals(seeds: Sequence[int], grid: HeatGridSpec, start: int, stop: int) -> np.ndarray:
    """Unit normals of steps [start, stop) for each seed, shape (steps, seeds, sites).

    The normal at (step, site) is word step * n_sites + site of the seed's
    heat stream, so chunking never changes a value.
    """
    n = grid.n_sites
    z = np.empty((stop - start, len(seeds), n))
    for i, seed in enumerate(seeds):
        words = stream_words(seed, HEAT_STREAM_TAG, start * n, (stop - start) * n)
        z[:, i, :] = words_to_unit_normals(words).reshape(stop - start, n)
    return z


def _march(sigmas: Sequence[SigmaSpec], grid: HeatGridSpec, seeds: Sequence[int]) -> np.ndarray:
    """The row at t_max of every (sigma, seed) field, shape (sigmas, seeds, sites).

    All fields start at 1 and step together; the fields of one seed take the
    same normals. Each site's update is elementwise, so a stacked field is
    bitwise the field marched on its own. Every step writes into the arrays
    allocated here, so no step allocates.
    """
    r = grid.dt / (grid.dx * grid.dx)
    amp = math.sqrt(grid.dt / grid.dx)
    v = np.ones((len(sigmas), len(seeds), grid.n_sites))
    lap = np.empty_like(v)
    twice = np.empty_like(v)
    kick = np.empty_like(v)
    chunk = max(1, _CHUNK_WORDS // grid.n_sites)
    for start in range(0, grid.n_steps, chunk):
        az = _normals(seeds, grid, start, min(start + chunk, grid.n_steps))
        az *= amp
        for z in az:
            # lap = roll(v, 1) + roll(v, -1) - 2 v along the circle
            np.add(v[..., :-2], v[..., 2:], out=lap[..., 1:-1])
            np.add(v[..., -1], v[..., 1], out=lap[..., 0])
            np.add(v[..., -2], v[..., 0], out=lap[..., -1])
            np.multiply(v, 2.0, out=twice)
            lap -= twice
            lap *= r
            for sigma, field_v, field_kick in zip(sigmas, v, kick):
                sigma(field_v, out=field_kick)
                field_kick *= z
            v += lap
            v += kick
    return v


def solve_heat(sigma: SigmaSpec, seed: int, grid: HeatGridSpec) -> np.ndarray:
    """The seed's row at t_max, shape (sites,)."""
    return _march((sigma,), grid, [_check_seed(seed)])[0, 0]


def solve_coupled_heat_linearization(sigma: SigmaSpec, seeds: Sequence[int],
                                     grid: HeatGridSpec) -> np.ndarray:
    """Rows at t_max of the nonlinear fields (first) and of the sigma == 1
    fields (second), one per seed and driven by the identical site normals,
    shape (2, seeds, sites)."""
    seeds = [_check_seed(seed) for seed in seeds]
    return _march((sigma, CONSTANT_ONE), grid, seeds)
