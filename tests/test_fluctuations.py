import math
import warnings

import numpy as np
import pytest

import oracles
from oracles import segment_sum, solved
from swelab import fluctuations, studies
from swelab.config import config_from_dict
from swelab.errors import ConfigurationWarning, DegenerateInputError
from swelab.fluctuations import (
    conditional_variance,
    increment_sample,
    lil_statistic,
    martingale_decomposition,
    probe_geometry,
)
from swelab.lattice import LatticeSpec, shell_segments, temporal_shell_area
from swelab.sigma import CONSTANT_ONE, SigmaSpec
from swelab.wave import cone_boundary_trace, field_at

LAT = LatticeSpec(h=0.0625, t_max=1.0, x_lo=-2.0, x_hi=2.0)
LINEAR = SigmaSpec("linear", (1.0,))


def probe(t, x, scales=(), lat=LAT, shells=False):
    """The probe at (t, x), resolved as the study plan resolves it."""
    tops = [lat.apex(t + s, x)[0] for s in scales]
    return probe_geometry(lat, t, lat.apex(t, x), list(scales), tops, shells=shells)


def test_conditional_variance_is_exact_for_unit_sigma():
    fld, _ = solved(CONSTANT_ONE, 1, LAT)
    for t, x in [(0.5, 0.0), (0.25, 0.75), (0.875, -0.125)]:
        assert conditional_variance(fld, probe(t, x)) == pytest.approx(2.0 * t, rel=1e-12)


def test_conditional_variance_matches_trace_quadrature():
    fld, _ = solved(LINEAR, 6, LAT)
    t, x = 0.5, 0.25
    y, points = cone_boundary_trace(LAT, *LAT.apex(t, x))
    want = float(np.trapezoid(fld.values[points] ** 2, y))
    assert conditional_variance(fld, probe(t, x)) == pytest.approx(want, rel=1e-14)


def test_increment_sample_standardizations():
    fld, _ = solved(CONSTANT_ONE, 8, LAT)
    t, x, scales = 0.5, 0.0, [0.125, 0.25]
    pr = probe(t, x, scales)
    vhat = conditional_variance(fld, pr)
    assert vhat == pytest.approx(2.0 * t, rel=1e-12)
    incs, stds = increment_sample(fld, pr, vhat, "trace")
    shell_incs, shells = increment_sample(fld, pr, vhat, "shell")
    # the trace estimate is per-path; for constant sigma both carry the same increments
    assert shell_incs == incs
    for s, inc, std, shell in zip(scales, incs, stds, shells):
        want = field_at(fld, t + s, x) - field_at(fld, t, x)
        assert inc == pytest.approx(want, rel=1e-15)
        assert std == pytest.approx(inc / math.sqrt(s * 2.0 * t), rel=1e-12)
        assert shell == pytest.approx(inc / math.sqrt(temporal_shell_area(t, t + s)),
                                      rel=1e-12)


def test_increment_sample_preconditions():
    # the scale, standardization and horizon rules are validate's
    # (test_config.py); only the data-dependent zero variance is left here,
    # under either standardization
    zero, _ = solved(SigmaSpec("constant", (0.0,)), 8, LAT)
    pr = probe(0.5, 0.0, [0.125])
    for standardization in ("trace", "shell"):
        with pytest.raises(DegenerateInputError, match="conditional variance is zero"):
            increment_sample(zero, pr, conditional_variance(zero, pr), standardization)


def test_martingale_part_is_the_truncated_shell_noise_for_unit_sigma():
    fld, noise = solved(CONSTANT_ONE, 14, LAT)
    t, x = 0.5, 0.25
    scales = [0.125, 0.25]
    split = martingale_decomposition(fld, noise, probe(t, x, scales, shells=True))
    assert split.variance_hat == pytest.approx(2.0 * t, rel=1e-12)
    n0, m0 = LAT.apex(t, x)
    for k, s in enumerate(scales):
        j = LAT.level_of(s)
        shell = shell_segments(LAT, m0, n0, n0 + j, col_cap=n0 - 1)
        want_m = segment_sum(noise, LAT, shell)
        assert split.martingale[k] == pytest.approx(want_m, rel=1e-10, abs=1e-13)
        inc = field_at(fld, t + s, x) - field_at(fld, t, x)
        assert split.increments[k] == pytest.approx(inc, rel=1e-15)
        assert split.remainder[k] == pytest.approx(inc - want_m, rel=1e-9, abs=1e-13)


def test_remainder_is_the_wing_noise_for_unit_sigma():
    # increment - martingale = noise of the shell cells outside |y - x| <= t
    fld, noise = solved(CONSTANT_ONE, 25, LAT)
    t, x, s = 0.5, 0.0, 0.25
    n0, m0 = LAT.apex(t, x)
    j = LAT.level_of(s)
    split = martingale_decomposition(fld, noise, probe(t, x, [s], shells=True))
    full = segment_sum(noise, LAT, shell_segments(LAT, m0, n0, n0 + j))
    trunc = segment_sum(noise, LAT, shell_segments(LAT, m0, n0, n0 + j, col_cap=n0 - 1))
    assert split.remainder[0] == pytest.approx(full - trunc, rel=1e-9, abs=1e-13)


TALL = LatticeSpec(h=0.0625, t_max=1.5, x_lo=-3.0, x_hi=3.0)


@pytest.mark.parametrize("spec, sigma", [
    (LINEAR, lambda u: u),
    (SigmaSpec("sine", (0.8,)), lambda u: 0.8 * np.sin(u)),
])
def test_martingale_matches_the_per_segment_oracle(spec, sigma):
    for seed in (3, 9):
        fld, noise = solved(spec, seed, TALL)
        for t, x in [(1.0, 0.0), (0.5, 0.25)]:
            scales = [0.125, 0.25, 0.5]
            geometry = probe(t, x, scales, lat=TALL, shells=True)
            split = martingale_decomposition(fld, noise, geometry)
            n0, m0 = TALL.apex(t, x)
            for k, s in enumerate(scales):
                want = oracles.truncated_shell_martingale(
                    fld, noise, sigma, n0, m0, TALL.level_of(s))
                assert split.martingale[k] == pytest.approx(want, rel=1e-12)
            assert split.variance_hat == conditional_variance(fld, geometry)


def _count_conditional_variance(monkeypatch) -> list:
    calls = []
    original = fluctuations.conditional_variance

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(fluctuations, "conditional_variance", counted)
    monkeypatch.setattr(studies, "conditional_variance", counted)
    return calls


@pytest.mark.parametrize("kind, params", [
    ("lil", {"t": 0.5, "x": 0.0, "scales": [2 ** -6, 2 ** -5, 2 ** -4]}),
    ("clt", {"t": 0.5, "x": 0.0, "scales": [2 ** -6, 2 ** -5, 2 ** -4]}),
])
def test_conditional_variance_runs_once_per_replicate(monkeypatch, kind, params):
    cfg = config_from_dict({
        "kind": kind, "sigma": "linear:1", "replicates": 3,
        "lattice": {"h": 2 ** -7, "t_max": 0.625, "x_lo": -1.25, "x_hi": 1.25},
        "params": params,
    })
    rep, _ = studies.STUDY_RUNNERS[kind]
    plan = studies.plan_study(cfg)
    want = rep([11], plan)
    calls = _count_conditional_variance(monkeypatch)
    assert rep([11], plan) == want
    assert len(calls) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigurationWarning)  # few clt replicates
        studies.run_study(cfg)
    assert len(calls) == 1 + 3


def test_zero_scale_entries_are_zero():
    fld, noise = solved(CONSTANT_ONE, 2, LAT)
    split = martingale_decomposition(fld, noise, probe(0.5, 0.0, [0.0, 0.125], shells=True))
    assert split.increments[0] == 0.0
    assert split.martingale[0] == 0.0
    assert split.remainder[0] == 0.0
    assert split.increments[1] != 0.0


def test_martingale_second_moment_matches_truncated_area():
    n_rep = 300
    t, x, s = 0.5, 0.0, 0.125
    area = s * (2.0 * t - LAT.h)
    ratios = np.empty(n_rep)
    geometry = probe(t, x, [s], shells=True)
    for seed in range(n_rep):
        fld, noise = solved(CONSTANT_ONE, seed, LAT)
        split = martingale_decomposition(fld, noise, geometry)
        ratios[seed] = split.martingale[0] ** 2 / area
    se = ratios.std(ddof=1) / np.sqrt(n_rep)
    assert abs(ratios.mean() - 1.0) < 3.5 * se


FINE = LatticeSpec(h=2**-7, t_max=0.625, x_lo=-1.25, x_hi=1.25)


def test_lil_statistic_matches_hand_computation():
    fld, _ = solved(CONSTANT_ONE, 4, FINE)
    t, x = 0.5, 0.0
    scales = [2**-6, 2**-5, 2**-4]
    geometry = probe(t, x, scales, lat=FINE)
    got = lil_statistic(fld, geometry)
    vhat = conditional_variance(fld, geometry)
    want = [
        abs(field_at(fld, t + s, x) - field_at(fld, t, x))
        / math.sqrt(2.0 * s * math.log(math.log(1.0 / s)) * vhat)
        for s in scales
    ]
    assert len(got) == len(scales)
    assert got == pytest.approx(want, rel=1e-12)
    assert max(got) == pytest.approx(max(want), rel=1e-12)


def test_lil_statistic_monotone_under_grid_extension():
    fld, _ = solved(LINEAR, 5, FINE)
    small = lil_statistic(fld, probe(0.5, 0.0, [2**-5, 2**-4], lat=FINE))
    big = lil_statistic(fld, probe(0.5, 0.0, [2**-6, 2**-5, 2**-4], lat=FINE))
    assert big[1:] == small  # a scale's value does not depend on the grid
    assert max(big) >= max(small)


def test_lil_scale_validation():
    # the scale grid rules are validate's (test_config.py); only the
    # data-dependent zero variance is left here
    zero, _ = solved(SigmaSpec("linear", (0.0,)), 4, FINE)
    with pytest.raises(DegenerateInputError, match="conditional variance is zero"):
        lil_statistic(zero, probe(0.5, 0.0, [2**-5], lat=FINE))
