"""Small statistics toolkit used by the experiment drivers.

Everything here is written against closed formulas so that test oracles can
cross-check it with an independent library. Inputs are 1-D float arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError

__all__ = [
    "MomentSummary",
    "summarize",
    "standard_normal_cdf",
    "ks_distance",
    "ks_critical_value",
    "SlopeFit",
    "loglog_slope",
    "quantiles",
]


@dataclass(frozen=True)
class MomentSummary:
    n: int
    mean: float
    std_error: float  # sqrt(unbiased variance / n)


def summarize(values: np.ndarray) -> MomentSummary:
    """Mean and standard error of a sample; the variance is taken about the
    mean, which keeps it accurate when the mean is large compared to the
    spread."""
    x = np.asarray(values, dtype=np.float64).ravel()
    n = x.size
    if n < 2:
        raise DegenerateInputError("need at least 2 values to summarize")
    if not np.all(np.isfinite(x)):
        raise DegenerateInputError("sample contains non-finite values")
    mean = float(x.mean())
    d = x - mean
    m2 = float(np.mean(d * d))
    std = math.sqrt(m2 * n / (n - 1))
    return MomentSummary(n=n, mean=mean, std_error=std / math.sqrt(n))


def standard_normal_cdf(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    from scipy.special import erf

    return 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def ks_distance(sample: np.ndarray) -> float:
    """One-sample Kolmogorov distance against the standard normal law.

    D = sup_x |F_n(x) - Phi(x)|, evaluated at the jump points of the
    empirical distribution function (both one-sided gaps are checked).
    """
    x = np.sort(np.asarray(sample, dtype=np.float64).ravel())
    n = x.size
    if n == 0:
        raise DegenerateInputError("empty sample")
    cdf = standard_normal_cdf(x)
    grid = np.arange(1, n + 1, dtype=np.float64) / n
    d_plus = float(np.max(grid - cdf))
    d_minus = float(np.max(cdf - (grid - 1.0 / n)))
    return max(d_plus, d_minus)


def ks_critical_value(n: int) -> float:
    """Asymptotic Kolmogorov critical value c / sqrt(n) at the 5 percent level.

    c = 1.358 is the classical tabulated constant; the experiment suite tests
    at no other level.
    """
    if n <= 0:
        raise DegenerateInputError("sample size must be positive")
    return 1.358 / math.sqrt(n)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    slope_std_error: float


def loglog_slope(x: np.ndarray, y: np.ndarray) -> SlopeFit:
    """Least-squares slope of log(y) against log(x).

    Both inputs must be strictly positive with at least two distinct
    abscissae; the standard error uses the usual n-2 residual variance.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise DegenerateInputError("x and y must have equal length")
    if x.size < 2:
        raise DegenerateInputError("need at least 2 points for a slope")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise DegenerateInputError("log-log fit requires positive data")
    lx = np.log(x)
    ly = np.log(y)
    if float(np.ptp(lx)) == 0.0:
        raise DegenerateInputError("all abscissae coincide")
    mx = lx.mean()
    my = ly.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    sxy = float(np.sum((lx - mx) * (ly - my)))
    slope = sxy / sxx
    intercept = my - slope * mx
    resid = ly - (intercept + slope * lx)
    n = x.size
    if n > 2:
        sigma2 = float(np.sum(resid**2)) / (n - 2)
        se = math.sqrt(sigma2 / sxx)
    else:
        se = 0.0
    return SlopeFit(slope=slope, slope_std_error=se)


def quantiles(values: np.ndarray) -> tuple[float, float, float]:
    """The quartiles (q1, median, q3) of a sample."""
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size == 0:
        raise DegenerateInputError("empty sample")
    return tuple(float(q) for q in np.quantile(x, (0.25, 0.5, 0.75)))
