import warnings

import numpy as np
import pytest

import oracles
from swelab.errors import ConfigurationWarning
from swelab.heat import HeatGridSpec, solve_coupled_heat_linearization, solve_heat
from swelab.lattice import LatticeSpec
from swelab.linearize import defect_samples, heat_defect_samples, wave_defect_samples
from swelab.noise import make_noise
from swelab.sigma import CONSTANT_ONE, SigmaSpec
from swelab.wave import field_at, point_index, solve_coupled_linearization

LAT = LatticeSpec(h=0.0625, t_max=1.0, x_lo=-2.0, x_hi=2.0)
LINEAR = SigmaSpec("linear", (1.0,))
LAGS = [0.125, 0.25, 0.5]
SIGMAS = [LINEAR, SigmaSpec.parse("sine:1"), SigmaSpec.parse("affine:0.5,2.0"),
          SigmaSpec.parse("constant:0.7")]


def reads(t: float, x: float, lags) -> np.ndarray:
    """Field offsets of (t, x), then of (t, x + lag) for each lag."""
    levels, cols = np.array([LAT.apex(t, x)] + [LAT.apex(t, x + lag) for lag in lags]).T
    return point_index(LAT, levels, cols)


def sites(grid: HeatGridSpec, x: float, lags) -> np.ndarray:
    """Grid sites of x, then of x + lag for each lag."""
    return np.array([grid.site_of(x + lag) for lag in [0.0, *lags]])


def small_heat_grid() -> HeatGridSpec:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigurationWarning)
        return HeatGridSpec(dx=0.0625, t_max=0.015625, circumference=1.0)


def wave_rows(sigma: SigmaSpec, seeds) -> tuple[np.ndarray, np.ndarray]:
    fields, linear = solve_coupled_linearization(sigma, make_noise(seeds, LAT))
    return fields.rows, linear.rows


def test_both_equations_share_one_defect_function():
    assert wave_defect_samples is heat_defect_samples is defect_samples


def test_constant_sigma_wave_defect_vanishes():
    # with sigma == c both solutions see the same noise sums, so the frozen
    # coefficient c reproduces the increment with no error at all
    sigma = SigmaSpec("constant", (0.7,))
    du, dl, defect = defect_samples(sigma, *wave_rows(sigma, [11, 12]), reads(0.5, 0.0, LAGS))
    assert du.shape == dl.shape == defect.shape == (2, len(LAGS))
    assert np.all(np.abs(defect) < 1e-12)
    np.testing.assert_allclose(du, 0.7 * dl, rtol=1e-10)


def test_constant_sigma_heat_defect_vanishes():
    grid = small_heat_grid()
    sigma = SigmaSpec("constant", (0.7,))
    rows = solve_coupled_heat_linearization(sigma, [11], grid, grid.t_max)
    _, _, defect = defect_samples(sigma, *rows, sites(grid, 0.25, [0.0625, 0.125]))
    assert np.all(np.abs(defect) < 1e-12)


def test_defect_matches_hand_formula():
    fields, linear = solve_coupled_linearization(LINEAR, make_noise([3], LAT))
    fld, lin = fields[0], linear[0]
    t, x = 0.5, 0.25
    du, dl, defect = defect_samples(LINEAR, fields.rows, linear.rows, reads(t, x, LAGS))
    frozen = field_at(fld, t, x)
    for i, lag in enumerate(LAGS):
        want_du = field_at(fld, t, x + lag) - field_at(fld, t, x)
        want_dl = field_at(lin, t, x + lag) - field_at(lin, t, x)
        assert du[0, i] == pytest.approx(want_du, rel=1e-15)
        assert dl[0, i] == pytest.approx(want_dl, rel=1e-15)
        assert defect[0, i] == pytest.approx(want_du - frozen * want_dl, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("sigma", SIGMAS, ids=SigmaSpec.label)
@pytest.mark.parametrize("block", [1, 3, 16])
def test_wave_block_defects_equal_the_per_seed_oracle(sigma, block):
    seeds = list(range(40, 40 + block))
    t, x = 0.5, 0.25
    got = np.stack(defect_samples(sigma, *wave_rows(sigma, seeds), reads(t, x, LAGS)),
                   axis=2)
    for b, seed in enumerate(seeds):
        fld, _ = oracles.solved(sigma, seed, LAT)
        lin, _ = oracles.solved(CONSTANT_ONE, seed, LAT)
        want = oracles.defect_row(sigma, lambda t, x: field_at(fld, t, x),
                                  lambda t, x: field_at(lin, t, x), t, x, LAGS)
        assert got[b].tolist() == [list(lag) for lag in want]


@pytest.mark.parametrize("sigma", SIGMAS, ids=SigmaSpec.label)
@pytest.mark.parametrize("block", [1, 3, 16])
def test_heat_block_defects_equal_the_per_seed_oracle(sigma, block):
    grid = small_heat_grid()
    seeds = list(range(40, 40 + block))
    x, lags = 0.25, [0.0625, 0.125, 0.25]
    rows = solve_coupled_heat_linearization(sigma, seeds, grid, grid.t_max)
    got = np.stack(defect_samples(sigma, *rows, sites(grid, x, lags)), axis=2)
    for b, seed in enumerate(seeds):
        fld = solve_heat(sigma, seed, grid)
        lin = solve_heat(CONSTANT_ONE, seed, grid)
        want = oracles.defect_row(sigma, lambda t, x: oracles.heat_at(fld, t, x),
                                  lambda t, x: oracles.heat_at(lin, t, x),
                                  grid.t_max, x, lags)
        assert got[b].tolist() == [list(lag) for lag in want]
