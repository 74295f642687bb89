import warnings

import numpy as np
import pytest

from oracles import solved
from swelab.errors import AlignmentError, ConfigurationWarning, PreconditionError
from swelab.heat import HeatGridSpec, solve_coupled_heat_linearization, solve_heat
from swelab.lattice import LatticeSpec
from swelab.linearize import heat_defect_samples, wave_defect_samples
from swelab.noise import make_noise
from swelab.sigma import CONSTANT_ONE, SigmaSpec
from swelab.wave import field_at, point_index, solve_coupled_linearization

LAT = LatticeSpec(h=0.0625, t_max=1.0, x_lo=-2.0, x_hi=2.0)
LINEAR = SigmaSpec("linear", (1.0,))
LAGS = [0.125, 0.25, 0.5]


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


def test_constant_sigma_wave_defect_vanishes():
    # with sigma == c both solutions see the same noise sums, so the frozen
    # coefficient c reproduces the increment with no error at all
    sigma = SigmaSpec("constant", (0.7,))
    fld, _ = solved(sigma, 11, LAT)
    lin, _ = solved(CONSTANT_ONE, 11, LAT)
    for s in wave_defect_samples(fld, lin, reads(0.5, 0.0, LAGS), LAGS):
        assert abs(s.defect) < 1e-12
        assert s.field_increment == pytest.approx(0.7 * s.linear_increment, rel=1e-10)


def test_constant_sigma_heat_defect_vanishes():
    grid = small_heat_grid()
    fld = solve_heat(SigmaSpec("constant", (0.7,)), 11, grid)
    lin = solve_heat(CONSTANT_ONE, 11, grid)
    for s in heat_defect_samples(fld, lin, sites(grid, 0.25, [0.0625, 0.125]),
                                 [0.0625, 0.125]):
        assert abs(s.defect) < 1e-12


def test_defect_matches_hand_formula():
    sigma = LINEAR
    fields, lins = solve_coupled_linearization(sigma, make_noise([3], LAT))
    fld, lin = fields[0], lins[0]
    t, x = 0.5, 0.25
    samples = wave_defect_samples(fld, lin, reads(t, x, LAGS), LAGS)
    frozen = field_at(fld, t, x)
    for s in samples:
        du = field_at(fld, t, x + s.lag) - field_at(fld, t, x)
        dl = field_at(lin, t, x + s.lag) - field_at(lin, t, x)
        assert s.field_increment == pytest.approx(du, rel=1e-15)
        assert s.linear_increment == pytest.approx(dl, rel=1e-15)
        assert s.defect == pytest.approx(du - frozen * dl, rel=1e-12, abs=1e-15)
    assert [s.lag for s in samples] == LAGS


def test_wave_coupling_is_enforced():
    fld, _ = solved(LINEAR, 3, LAT)
    other, _ = solved(CONSTANT_ONE, 4, LAT)
    with pytest.raises(PreconditionError, match="seeds differ"):
        wave_defect_samples(fld, other, reads(0.5, 0.0, LAGS), LAGS)
    coarse = LatticeSpec(h=0.125, t_max=1.0, x_lo=-2.0, x_hi=2.0)
    with pytest.raises(PreconditionError, match="different lattices"):
        wave_defect_samples(fld, solved(CONSTANT_ONE, 3, coarse)[0],
                            reads(0.5, 0.0, LAGS), LAGS)


def test_linear_field_must_have_unit_coefficient():
    fld, _ = solved(LINEAR, 3, LAT)
    with pytest.raises(PreconditionError, match="constant coefficient 1"):
        wave_defect_samples(fld, solved(SigmaSpec("constant", (2.0,)), 3, LAT)[0],
                            reads(0.5, 0.0, LAGS), LAGS)
    with pytest.raises(PreconditionError, match="linear:1"):
        wave_defect_samples(fld, solved(LINEAR, 3, LAT)[0], reads(0.5, 0.0, LAGS), LAGS)


def test_lags_must_be_positive():
    fields, lins = solve_coupled_linearization(LINEAR, make_noise([3], LAT))
    fld, lin = fields[0], lins[0]
    with pytest.raises(AlignmentError, match="positive"):
        wave_defect_samples(fld, lin, reads(0.5, 0.0, [0.125, -0.125]),
                            [0.125, -0.125])


def test_heat_coupling_is_enforced():
    grid = small_heat_grid()
    [(fld, lin)] = solve_coupled_heat_linearization(LINEAR, [9], grid, grid.t_max)
    other = solve_heat(CONSTANT_ONE, 10, grid)
    with pytest.raises(PreconditionError, match="seeds differ"):
        heat_defect_samples(fld, other, sites(grid, 0.0, [0.0625]), [0.0625])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigurationWarning)
        grid2 = HeatGridSpec(dx=0.03125, t_max=0.015625, circumference=1.0)
    with pytest.raises(PreconditionError, match="different grids"):
        heat_defect_samples(fld, solve_heat(CONSTANT_ONE, 9, grid2),
                            sites(grid, 0.0, [0.0625]), [0.0625])
    [(_, early)] = solve_coupled_heat_linearization(LINEAR, [9], grid,
                                                    grid.t_max / 2)
    with pytest.raises(PreconditionError, match="different grids or steps"):
        heat_defect_samples(fld, early, sites(grid, 0.0, [0.0625]), [0.0625])
    assert fld.seed == lin.seed
    samples = heat_defect_samples(fld, lin, sites(grid, 0.0, [0.0625]), [0.0625])
    assert samples[0].lag == 0.0625
