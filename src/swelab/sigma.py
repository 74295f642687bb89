"""Noise coefficients sigma(u).

A small closed family keeps configs parseable: constant, linear
(multiplicative), affine, and a bounded sine variant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

_KINDS = ("constant", "linear", "affine", "sine")


@dataclass(frozen=True)
class SigmaSpec:
    """Coefficient sigma(u): constant c | linear a*u | affine a + b*u | sine a*sin(u)."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown sigma kind {self.kind!r}; expected one of {_KINDS}")
        want = 2 if self.kind == "affine" else 1
        if len(self.params) != want:
            raise ConfigurationError(
                f"sigma kind {self.kind!r} takes {want} parameter(s), got {len(self.params)}"
            )
        if not all(np.isfinite(self.params)):
            raise ConfigurationError(f"sigma parameters must be finite, got {self.params}")

    def __call__(self, u, out=None):
        """sigma(u), written into `out` when it is given (it may be `u`)."""
        u = np.asarray(u, dtype=float)
        if out is None:
            out = np.empty_like(u)
        if self.kind == "constant":
            out[...] = self.params[0]
        elif self.kind == "linear":
            np.multiply(self.params[0], u, out=out)
        elif self.kind == "affine":
            a, b = self.params
            np.multiply(b, u, out=out)
            out += a
        else:
            np.sin(u, out=out)
            out *= self.params[0]
        return out

    def scalar(self, u: float) -> float:
        return float(self(np.float64(u)))

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant" or (self.kind in ("linear", "sine") and self.params[0] == 0.0) \
            or (self.kind == "affine" and self.params[1] == 0.0)

    @property
    def is_zero(self) -> bool:
        """True when sigma vanishes identically (degenerate for standardized statistics)."""
        return self.is_constant and self.scalar(0.0) == 0.0

    def label(self) -> str:
        return f"{self.kind}:" + ",".join(repr(p) for p in self.params)

    @classmethod
    def parse(cls, text: str) -> "SigmaSpec":
        """Parse 'kind:p1[,p2]' as used in configs, e.g. 'linear:1.0' or 'affine:0.5,2.0'."""
        kind, sep, rest = text.partition(":")
        kind = kind.strip()
        if not sep or not rest.strip():
            raise ConfigurationError(f"cannot parse sigma spec {text!r}; expected 'kind:params'")
        try:
            params = tuple(float(p) for p in rest.split(","))
        except ValueError as exc:
            raise ConfigurationError(f"bad sigma parameters in {text!r}: {exc}") from None
        return cls(kind, params)


CONSTANT_ONE = SigmaSpec("constant", (1.0,))
