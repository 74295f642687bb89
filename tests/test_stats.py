import math

import numpy as np
import pytest
from scipy import stats as sps

from swelab.errors import DegenerateInputError
from swelab.stats import (
    ks_critical_value,
    ks_distance,
    loglog_slope,
    quantiles,
    standard_normal_cdf,
    summarize,
)


def test_constant_sample_has_zero_spread():
    s = summarize(np.array([1.0, 1.0, 1.0]))
    assert s.mean == 1.0
    assert s.std_error == 0.0


def test_summarize_matches_scipy():
    rng = np.random.default_rng(100)
    x = rng.gamma(2.0, size=2000) + 1000.0  # large mean stresses the centering
    s = summarize(x)
    assert s.n == 2000
    assert s.mean == pytest.approx(float(np.mean(x)), rel=1e-14)
    assert s.std_error == pytest.approx(sps.sem(x), rel=1e-10)


def test_summarize_rejects_degenerate_input():
    with pytest.raises(DegenerateInputError):
        summarize(np.array([1.0]))
    with pytest.raises(DegenerateInputError):
        summarize(np.array([1.0, np.nan]))


def test_normal_cdf_against_scipy():
    x = np.linspace(-6.0, 6.0, 101)
    assert np.allclose(standard_normal_cdf(x), sps.norm.cdf(x), atol=1e-14)


def test_ks_distance_matches_scipy_kstest():
    rng = np.random.default_rng(7)
    for sample in (rng.standard_normal(500), rng.uniform(-1, 1, 333)):
        ours = ks_distance(sample)
        ref = sps.kstest(sample, "norm").statistic
        assert ours == pytest.approx(ref, abs=1e-12)


def test_normal_draws_pass_ks_at_least_94_of_100():
    rng = np.random.default_rng(2024)
    crit = 1.358 / math.sqrt(10_000)
    passes = sum(ks_distance(rng.standard_normal(10_000)) < crit for _ in range(100))
    assert passes >= 94


def test_ks_critical_value():
    assert ks_critical_value(100) == pytest.approx(1.358 / 10.0)
    with pytest.raises(DegenerateInputError):
        ks_critical_value(0)


def test_exact_power_law_slope_to_machine_precision():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = loglog_slope(x, x**-0.5)
    assert fit.slope == pytest.approx(-0.5, abs=1e-14)
    assert fit.slope_std_error == pytest.approx(0.0, abs=1e-13)
    fit2 = loglog_slope(x, 3.0 * x**2)
    assert fit2.slope == pytest.approx(2.0, abs=1e-13)
    # the prefactor moves only the intercept: no residual
    assert fit2.slope_std_error == pytest.approx(0.0, abs=1e-13)


def test_two_point_slope_has_zero_std_error():
    fit = loglog_slope(np.array([1.0, 2.0]), np.array([3.0, 5.0]))
    assert fit.slope_std_error == 0.0


def test_slope_input_validation():
    with pytest.raises(DegenerateInputError):
        loglog_slope(np.array([1.0]), np.array([1.0]))
    with pytest.raises(DegenerateInputError):
        loglog_slope(np.array([1.0, 2.0]), np.array([1.0, -2.0]))
    with pytest.raises(DegenerateInputError):
        loglog_slope(np.array([2.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(DegenerateInputError):
        loglog_slope(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0]))


def test_quantiles_default_quartiles():
    x = np.arange(101, dtype=float)
    assert quantiles(x) == (25.0, 50.0, 75.0)
    with pytest.raises(DegenerateInputError):
        quantiles(np.array([]))
