from dataclasses import asdict

import numpy as np
import pytest

import oracles
from oracles import segment_sum
from swelab import quadvar
from swelab.errors import AlignmentError
from swelab.lattice import LatticeSpec, shell_segments, side_shell_segments, spatial_shell_area
from swelab.noise import make_noise
from swelab.quadvar import (
    admissible_spatial_pieces,
    admissible_temporal_pieces,
    increments,
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
from swelab.sigma import CONSTANT_ONE, MULTIPLICATIVE, SigmaSpec
from swelab.stats import loglog_slope
from swelab.wave import field_at, solve_wave

LAT = LatticeSpec(h=0.0625, t_max=1.0, x_lo=-2.0, x_hi=2.0)


def line(t: float, x: float, n: int, lat: LatticeSpec = LAT) -> np.ndarray:
    """Field offsets of the n-piece partition of the time line at x."""
    return temporal_geometry(lat, t, x, [n]).rungs[0].line


def segment(t: float, x_lo: float, x_hi: float, counts=()):
    return spatial_geometry(LAT, t, x_lo, x_hi, list(counts))


def test_admissible_piece_counts():
    assert admissible_temporal_pieces(1.0, 2**-6) == [1, 2, 4, 8, 16, 32]
    assert admissible_temporal_pieces(0.5, 0.0625) == [1, 2, 4]
    with pytest.raises(AlignmentError):
        admissible_temporal_pieces(0.4375, 0.0625)  # odd t/h
    assert admissible_spatial_pieces(-1.0, 1.0, 2**-6) == [
        d for d in range(1, 65) if 64 % d == 0
    ]
    with pytest.raises(AlignmentError):
        admissible_spatial_pieces(0.0, 0.4375, 0.0625)


def test_divisors_pair_up_to_the_square_root():
    for k in range(1, 501):
        assert quadvar._divisors(k) == [d for d in range(1, k + 1) if k % d == 0]
    # a lattice LatticeSpec accepts, far past anything a linear scan could list
    assert admissible_temporal_pieces(1.0, 2.0**-40) == [2**i for i in range(40)]


def test_temporal_increments_match_field_differences():
    fld = solve_wave(MULTIPLICATIVE, make_noise(4, LAT))
    points = line(1.0, 0.25, 8)
    inc = increments(fld, points)
    times = np.arange(9) * 0.125
    want = np.diff([field_at(fld, t, 0.25) for t in times])
    assert np.allclose(inc, want, rtol=0, atol=0)
    assert temporal_qv(fld, points) == pytest.approx(float(np.sum(want**2)), rel=1e-15)


def test_unit_sigma_increments_are_shell_noise_sums():
    noise = make_noise(8, LAT)
    fld = solve_wave(CONSTANT_ONE, noise)
    inc = increments(fld, line(1.0, 0.0, 4))
    step = LAT.n_levels // 4
    for k in range(4):
        shell = shell_segments(LAT, 0, k * step, (k + 1) * step)
        assert inc[k] == pytest.approx(segment_sum(noise, shell), rel=1e-10)


def test_unit_sigma_decomposition_identities():
    noise = make_noise(15, LAT)
    fld = solve_wave(CONSTANT_ONE, noise)
    for n in (1, 2, 8):
        dec = temporal_qv_decomposition(fld, noise, temporal_geometry(LAT, 1.0, 0.0, [n]))
        assert dec.n_pieces == n
        # unit weights: the frozen-noise estimator IS the direct sum
        assert dec.frozen_noise == pytest.approx(dec.direct, rel=1e-10)
        # and both deterministic estimators equal the cone area exactly
        assert dec.frozen_area == pytest.approx(1.0, rel=1e-12)
        assert dec.cone_integral == pytest.approx(1.0, rel=1e-12)


SIGMAS = [
    (MULTIPLICATIVE, lambda u: u),
    (SigmaSpec("sine", (0.8,)), lambda u: 0.8 * np.sin(u)),
]
APEXES = [(1.0, 0.0), (0.5, 0.25)]


@pytest.mark.parametrize("spec, sigma", SIGMAS)
def test_columns_limit_matches_the_per_column_oracle(spec, sigma):
    for seed in (6, 7):
        fld = solve_wave(spec, make_noise(seed, LAT))
        for t, x in APEXES:
            want = oracles.cone_limit_columns(fld, sigma, LAT.level_of(t), LAT.col_of(x), LAT.h)
            cone = temporal_geometry(LAT, t, x, [])
            assert temporal_qv_limit(fld, cone) == pytest.approx(want, rel=1e-12)


def test_limit_quadrature_routes_agree():
    noise = make_noise(6, LAT)
    fld = solve_wave(MULTIPLICATIVE, noise)
    cone = temporal_geometry(LAT, 1.0, 0.0, [1])
    cols = temporal_qv_limit(fld, cone)
    cells = temporal_qv_ladder(fld, noise, cone)[0].cone_integral
    assert cols == pytest.approx(
        oracles.cone_limit_columns(fld, lambda u: u, 16, 0, LAT.h),
        rel=1e-12)
    # the cell sum is a different quadrature of the same integrand
    assert cells == pytest.approx(cols, rel=0.1)
    unit = solve_wave(CONSTANT_ONE, noise)
    assert temporal_qv_limit(unit, cone) == pytest.approx(1.0, rel=1e-12)
    unit_cells = temporal_qv_ladder(unit, noise, cone)[0].cone_integral
    assert unit_cells == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("spec, sigma", SIGMAS)
def test_decomposition_and_ladder_equal_the_cone_enumeration(spec, sigma):
    noise = make_noise(12, LAT)
    fld = solve_wave(spec, noise)
    for t, x in APEXES:
        n0, m0 = LAT.level_of(t), LAT.col_of(x)
        counts = admissible_temporal_pieces(t, LAT.h)
        ladder = temporal_qv_ladder(fld, noise, temporal_geometry(LAT, t, x, counts))
        for n, dec in zip(counts, ladder):
            want = oracles.cone_decomposition(fld, noise, sigma, n0, m0, LAT.h, n)
            assert asdict(dec) == want
            single = temporal_qv_decomposition(fld, noise, temporal_geometry(LAT, t, x, [n]))
            assert asdict(single) == want


def test_ladder_matches_individual_decompositions():
    noise = make_noise(12, LAT)
    fld = solve_wave(MULTIPLICATIVE, noise)
    counts = [2, 4, 8]
    ladder = temporal_qv_ladder(fld, noise, temporal_geometry(LAT, 1.0, 0.0, counts))
    assert [d.n_pieces for d in ladder] == counts
    for dec, n in zip(ladder, counts):
        single = temporal_qv_decomposition(fld, noise, temporal_geometry(LAT, 1.0, 0.0, [n]))
        assert dec == single
    assert temporal_qv_ladder(fld, noise, temporal_geometry(LAT, 1.0, 0.0, [])) == []


def test_qv_mean_approaches_cone_area_for_unit_sigma():
    n_rep = 300
    vals = np.empty(n_rep)
    points = line(1.0, 0.0, 8)
    for seed in range(n_rep):
        noise = make_noise(seed, LAT)
        fld = solve_wave(CONSTANT_ONE, noise)
        vals[seed] = temporal_qv(fld, points)
    se = vals.std(ddof=1) / np.sqrt(n_rep)
    assert abs(vals.mean() - 1.0) < 3.5 * se


def test_spatial_increments_are_lune_differences():
    noise = make_noise(31, LAT)
    fld = solve_wave(CONSTANT_ONE, noise)
    inc = increments(fld, segment(0.5, -1.0, 1.0, [8]).lines[0])
    n0 = LAT.level_of(0.5)
    step = round(0.25 / LAT.h)
    for k in range(8):
        a = LAT.col_of(-1.0) + k * step
        right = side_shell_segments(LAT, n0, a, a + step, "right")
        left = side_shell_segments(LAT, n0, a, a + step, "left")
        want = segment_sum(noise, right) - segment_sum(noise, left)
        assert inc[k] == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_spatial_qv_mean_matches_exact_lune_areas():
    # constant sigma: E[(u(x+d) - u(x))^2] = 2 * lune area, a lattice identity
    n_rep = 300
    points = segment(0.5, -1.0, 1.0, [8]).lines[0]
    vals = np.empty(n_rep)
    for seed in range(n_rep):
        fld = solve_wave(CONSTANT_ONE, make_noise(seed, LAT))
        vals[seed] = spatial_qv(fld, points)
    want = 8 * 2.0 * spatial_shell_area(0.5, 0.25)
    se = vals.std(ddof=1) / np.sqrt(n_rep)
    assert abs(vals.mean() - want) < 3.5 * se


def test_spatial_limits_for_unit_sigma():
    fld = solve_wave(CONSTANT_ONE, make_noise(3, LAT))
    lim = spatial_qv_limit(fld, segment(0.5, -1.0, 1.0))
    naive = naive_qv_prediction(fld, segment(0.5, -1.0, 1.0))
    assert lim == pytest.approx(2.0 * 0.5 * 2.0, rel=1e-12)
    assert naive == pytest.approx(lim, rel=1e-12)


def test_naive_prediction_overshoots_for_multiplicative_sigma():
    n_rep = 200
    gap = np.empty(n_rep)
    seg = segment(1.0, -0.5, 0.5)
    for seed in range(n_rep):
        fld = solve_wave(MULTIPLICATIVE, make_noise(seed, LAT))
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
    cone = temporal_geometry(lat, 1.0, 0.0, counts)
    for seed in range(n_rep):
        noise = make_noise(seed, lat)
        fld = solve_wave(MULTIPLICATIVE, noise)
        ladder = temporal_qv_ladder(fld, noise, cone)
        for i, dec in enumerate(ladder):
            sq[i] += (dec.direct - dec.frozen_noise) ** 2
    rms = np.sqrt(sq / n_rep)
    assert np.all(np.diff(rms) < 0.0)
    fit = loglog_slope(np.array(counts, dtype=float), rms)
    # the measured lattice rate is close to N^-1, comfortably faster than the
    # N^(-1/2) upper bound that controls it
    assert fit.slope <= -0.5
