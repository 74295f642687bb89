from dataclasses import asdict

import numpy as np
import pytest

import oracles
from oracles import segment_sum, solved
from swelab.lattice import LatticeSpec, shell_segments, side_shell_segments, spatial_shell_area
from swelab.quadvar import (
    increments,
    line_qv,
    naive_qv_prediction,
    spatial_geometry,
    spatial_qv,
    spatial_qv_limit,
    temporal_geometry,
    temporal_qv,
    temporal_qv_decomposition,
    temporal_qv_ladder,
    temporal_qv_limit,
)
from swelab.sigma import CONSTANT_ONE, SigmaSpec
from swelab.stats import loglog_slope
from swelab.noise import make_noise
from swelab.wave import field_at, solve_wave

LAT = LatticeSpec(h=0.0625, t_max=1.0, x_lo=-2.0, x_hi=2.0)
LINEAR = SigmaSpec("linear", (1.0,))


def temporal_cone(t: float, x: float, counts, lat: LatticeSpec = LAT):
    """The temporal geometry of (t, x), resolved as the study plan resolves it."""
    return temporal_geometry(lat, lat.apex(t, x), list(counts))


def line(t: float, x: float, n: int, lat: LatticeSpec = LAT) -> np.ndarray:
    """Field offsets of the n-piece partition of the time line at x."""
    return temporal_cone(t, x, [n], lat).rungs[0].line


def segment(t: float, x_lo: float, x_hi: float, counts=()):
    return spatial_geometry(LAT, t, [LAT.apex(t, x_lo), LAT.apex(t, x_hi)], list(counts))


def test_temporal_increments_match_field_differences():
    fld, _ = solved(LINEAR, 4, LAT)
    points = line(1.0, 0.25, 8)
    inc = increments(fld, points)
    times = np.arange(9) * 0.125
    want = np.diff([field_at(fld, t, 0.25) for t in times])
    assert np.allclose(inc, want, rtol=0, atol=0)
    assert temporal_qv(fld, points) == pytest.approx(float(np.sum(want**2)), rel=1e-15)


def test_unit_sigma_increments_are_shell_noise_sums():
    fld, noise = solved(CONSTANT_ONE, 8, LAT)
    inc = increments(fld, line(1.0, 0.0, 4))
    step = LAT.n_levels // 4
    for k in range(4):
        shell = shell_segments(LAT, 0, k * step, (k + 1) * step)
        assert inc[k] == pytest.approx(segment_sum(noise, LAT, shell), rel=1e-10)


def test_unit_sigma_decomposition_identities():
    fld, noise = solved(CONSTANT_ONE, 15, LAT)
    for n in (1, 2, 8):
        dec = temporal_qv_decomposition(fld, noise, temporal_cone(1.0, 0.0, [n]))
        assert dec.n_pieces == n
        # unit weights: the frozen-noise estimator IS the direct sum
        assert dec.frozen_noise == pytest.approx(dec.direct, rel=1e-10)
        # and both deterministic estimators equal the cone area exactly
        assert dec.frozen_area == pytest.approx(1.0, rel=1e-12)
        assert dec.cone_integral == pytest.approx(1.0, rel=1e-12)


SIGMAS = [
    (LINEAR, lambda u: u),
    (SigmaSpec("sine", (0.8,)), lambda u: 0.8 * np.sin(u)),
]
APEXES = [(1.0, 0.0), (0.5, 0.25)]


@pytest.mark.parametrize("spec, sigma", SIGMAS)
def test_columns_limit_matches_the_per_column_oracle(spec, sigma):
    for seed in (6, 7):
        fld, _ = solved(spec, seed, LAT)
        for t, x in APEXES:
            want = oracles.cone_limit_columns(fld, sigma, LAT.level_of(t), LAT.col_of(x), LAT.h)
            cone = temporal_cone(t, x, [])
            assert temporal_qv_limit(fld, cone) == pytest.approx(want, rel=1e-12)


def test_limit_quadrature_routes_agree():
    fld, noise = solved(LINEAR, 6, LAT)
    cone = temporal_cone(1.0, 0.0, [1])
    cols = temporal_qv_limit(fld, cone)
    cells = temporal_qv_ladder(fld, noise, cone)[0].cone_integral
    assert cols == pytest.approx(
        oracles.cone_limit_columns(fld, lambda u: u, 16, 0, LAT.h),
        rel=1e-12)
    # the cell sum is a different quadrature of the same integrand
    assert cells == pytest.approx(cols, rel=0.1)
    unit, _ = solved(CONSTANT_ONE, 6, LAT)
    assert temporal_qv_limit(unit, cone) == pytest.approx(1.0, rel=1e-12)
    unit_cells = temporal_qv_ladder(unit, noise, cone)[0].cone_integral
    assert unit_cells == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("spec, sigma", SIGMAS)
def test_decomposition_and_ladder_equal_the_cone_enumeration(spec, sigma):
    fld, noise = solved(spec, 12, LAT)
    for t, x in APEXES:
        n0, m0 = LAT.level_of(t), LAT.col_of(x)
        counts = [n for n in range(1, n0 // 2 + 1) if (n0 // 2) % n == 0]
        ladder = temporal_qv_ladder(fld, noise, temporal_cone(t, x, counts))
        for n, dec in zip(counts, ladder):
            want = oracles.cone_decomposition(fld, noise, sigma, n0, m0, LAT.h, n)
            assert asdict(dec) == want
            single = temporal_qv_decomposition(fld, noise, temporal_cone(t, x, [n]))
            assert asdict(single) == want


def test_ladder_matches_individual_decompositions():
    fld, noise = solved(LINEAR, 12, LAT)
    counts = [2, 4, 8]
    ladder = temporal_qv_ladder(fld, noise, temporal_cone(1.0, 0.0, counts))
    assert [d.n_pieces for d in ladder] == counts
    for dec, n in zip(ladder, counts):
        single = temporal_qv_decomposition(fld, noise, temporal_cone(1.0, 0.0, [n]))
        assert dec == single
    assert temporal_qv_ladder(fld, noise, temporal_cone(1.0, 0.0, [])) == []


def test_qv_mean_approaches_cone_area_for_unit_sigma():
    n_rep = 300
    vals = np.empty(n_rep)
    points = line(1.0, 0.0, 8)
    for seed in range(n_rep):
        fld, _ = solved(CONSTANT_ONE, seed, LAT)
        vals[seed] = temporal_qv(fld, points)
    se = vals.std(ddof=1) / np.sqrt(n_rep)
    assert abs(vals.mean() - 1.0) < 3.5 * se


def test_spatial_increments_are_lune_differences():
    fld, noise = solved(CONSTANT_ONE, 31, LAT)
    inc = increments(fld, segment(0.5, -1.0, 1.0, [8]).lines[0])
    n0 = LAT.level_of(0.5)
    step = round(0.25 / LAT.h)
    for k in range(8):
        a = LAT.col_of(-1.0) + k * step
        right = side_shell_segments(LAT, n0, a, a + step, "right")
        left = side_shell_segments(LAT, n0, a, a + step, "left")
        want = segment_sum(noise, LAT, right) - segment_sum(noise, LAT, left)
        assert inc[k] == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_spatial_qv_mean_matches_exact_lune_areas():
    # constant sigma: E[(u(x+d) - u(x))^2] = 2 * lune area, a lattice identity
    n_rep = 300
    points = segment(0.5, -1.0, 1.0, [8]).lines[0]
    vals = np.empty(n_rep)
    for seed in range(n_rep):
        fld, _ = solved(CONSTANT_ONE, seed, LAT)
        vals[seed] = spatial_qv(fld, points)
    want = 8 * 2.0 * spatial_shell_area(0.5, 0.25)
    se = vals.std(ddof=1) / np.sqrt(n_rep)
    assert abs(vals.mean() - want) < 3.5 * se


def test_spatial_limits_for_unit_sigma():
    fld, _ = solved(CONSTANT_ONE, 3, LAT)
    lim = spatial_qv_limit(fld, segment(0.5, -1.0, 1.0))
    naive = naive_qv_prediction(fld, segment(0.5, -1.0, 1.0))
    assert lim == pytest.approx(2.0 * 0.5 * 2.0, rel=1e-12)
    assert naive == pytest.approx(lim, rel=1e-12)


def test_naive_prediction_overshoots_for_multiplicative_sigma():
    n_rep = 200
    gap = np.empty(n_rep)
    seg = segment(1.0, -0.5, 0.5)
    for seed in range(n_rep):
        fld, _ = solved(LINEAR, seed, LAT)
        gap[seed] = naive_qv_prediction(fld, seg) - spatial_qv_limit(fld, seg)
    se = gap.std(ddof=1) / np.sqrt(n_rep)
    assert gap.mean() > 3.0 * se


def test_rung_gap_shrinks_along_the_ladder():
    # mean-square gap between direct and frozen-noise estimators per rung;
    # rungs stay above the finest admissible count so no gap degenerates
    lat = LatticeSpec(h=2**-6, t_max=1.0, x_lo=-2.0, x_hi=2.0)
    counts = [2, 4, 8, 16]
    sq = np.zeros(len(counts))
    n_rep = 400
    cone = temporal_cone(1.0, 0.0, counts, lat)
    for seed in range(n_rep):
        fld, noise = solved(LINEAR, seed, lat)
        ladder = temporal_qv_ladder(fld, noise, cone)
        for i, dec in enumerate(ladder):
            sq[i] += (dec.direct - dec.frozen_noise) ** 2
    rms = np.sqrt(sq / n_rep)
    assert np.all(np.diff(rms) < 0.0)
    fit = loglog_slope(np.array(counts, dtype=float), rms)
    # the measured lattice rate is close to N^-1, comfortably faster than the
    # N^(-1/2) upper bound that controls it
    assert fit.slope <= -0.5


# sigma = affine:a,b as (a, b); linear:1 is affine:0,1
AFFINE = {"linear:1": (0.0, 1.0), "affine:0.5,1.0": (0.5, 1.0)}
SMALL = LatticeSpec(h=2.0 ** -5, t_max=0.5, x_lo=-1.0, x_hi=1.0)


def test_lattice_expectation_generalizes_the_second_moment():
    n, h = SMALL.n_levels, SMALL.h
    assert np.array_equal(oracles.lattice_expectation(n, h, 0.0, 1.0),
                          oracles.discrete_second_moment(n, h))
    for a, b in AFFINE.values():
        m = oracles.lattice_expectation(n, h, a, b)
        # u(p) - 1 is the noise of p's whole cone, and E[u] = 1
        assert oracles.increment_sq_mean(m, a, b, h, (n, 0), (0, 0)) == pytest.approx(
            m[n] - 1.0, rel=1e-12)


@pytest.mark.parametrize("spec", AFFINE)
def test_sample_means_hold_the_lattice_expectation(spec):
    # lattice-exact means, so only Monte Carlo error is left: every direct
    # rung of the ladder, the columns limit and one spatial line
    a, b = AFFINE[spec]
    lat, h, n_rep = SMALL, SMALL.h, 400
    n0, m0 = apex = lat.apex(0.5, 0.0)
    ends = [lat.apex(0.5, -0.25), lat.apex(0.5, 0.25)]
    counts = [1, 2, 4, 8]  # the divisors of n0 / 2
    cone = temporal_geometry(lat, apex, counts)
    seg = spatial_geometry(lat, 0.5, ends, [8])
    noise = make_noise(range(n_rep), lat)
    xi = noise.increments.copy()
    samples = np.array([
        [dec.direct for dec in temporal_qv_ladder(fld, row, cone)]
        + [temporal_qv_limit(fld, cone), line_qv(fld, seg.lines[0])]
        for fld, row in zip(solve_wave(SigmaSpec.parse(spec), noise), xi)])
    m = oracles.lattice_expectation(n0, h, a, b)
    (_, m_lo), (_, m_hi) = ends
    want = [oracles.line_qv_mean(m, a, b, h, [(k * n0 // n, m0) for k in range(n + 1)])
            for n in counts]
    want.append(oracles.columns_quadrature(
        lambda ls, c: oracles.weight_sq_mean(m, a, b, ls), n0, m0, h))
    want.append(oracles.line_qv_mean(m, a, b, h,
                                     [(n0, c) for c in range(m_lo, m_hi + 1, (m_hi - m_lo) // 8)]))
    se = samples.std(axis=0, ddof=1) / np.sqrt(n_rep)
    assert np.all(np.abs(samples.mean(axis=0) - want) < 4.0 * se)
