from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import segment_sum, solved
from swelab.config import load_config
from swelab.errors import AlignmentError, DomainError
from swelab.lattice import LatticeSpec, cone_segments
from swelab.noise import make_noise
from swelab.sigma import CONSTANT_ONE, SigmaSpec
from swelab.studies import plan_study
from swelab.wave import (
    cone_boundary_trace,
    field_at,
    point_index,
    solve_coupled_linearization,
    solve_wave,
)

LAT = LatticeSpec(h=0.0625, t_max=1.0, x_lo=-2.0, x_hi=2.0)
LINEAR = SigmaSpec("linear", (1.0,))


def test_constant_sigma_telescopes_to_cone_noise_sum():
    # u(t, x) - 1 must equal sigma * (noise mass of the backward cone) exactly
    for seed in range(20):
        for c in (1.0, 0.75):
            fld, xi = solved(SigmaSpec("constant", (c,)), seed, LAT)
            for t, x in [(1.0, 0.0), (0.5, 0.25), (0.0625, -1.0625), (1.0, 0.875)]:
                n0, m0 = LAT.apex(t, x)
                want = 1.0 + c * segment_sum(xi, LAT, cone_segments(LAT, n0, m0))
                got = field_at(fld, t, x)
                assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(got)))


def test_first_layer_is_one_plus_triangle_noise():
    fld, xi = solved(LINEAR, 3, LAT)
    assert np.array_equal(fld.level(1), 1.0 + xi[:LAT.cells_at(0)])


def test_nonlinear_field_satisfies_the_discrete_integral_identity():
    # u - 1 == sum over cone cells of sigma(u at base vertex) * cell noise
    for seed in (0, 5, 11):
        for sig in (LINEAR, SigmaSpec("affine", (0.5, 0.5)),
                    SigmaSpec("sine", (1.0,))):
            fld, xi = solved(sig, seed, LAT)
            for t, x in [(1.0, 0.0), (0.75, -0.5)]:
                n0, m0 = LAT.apex(t, x)
                total = 0.0
                for n, lo, hi in cone_segments(LAT, n0, m0):
                    cols = np.arange(lo, hi + 1, 2)
                    base = fld.values[point_index(LAT, np.full(cols.size, n - 1), cols)]
                    first = LAT.col_lo + n + 1
                    row = xi[LAT.cell_row_starts[n]:]
                    total += float(np.dot(sig(base), row[(lo - first) // 2:(hi - first) // 2 + 1]))
                assert field_at(fld, t, x) == pytest.approx(1.0 + total, rel=1e-9)


def test_mean_one_and_second_moment_match_recursion():
    n_rep = 4000
    u_vals = np.empty(n_rep)
    for seed in range(n_rep):
        fld, _ = solved(LINEAR, seed, LAT)
        u_vals[seed] = field_at(fld, 1.0, 0.0)
    se_u = u_vals.std(ddof=1) / np.sqrt(n_rep)
    assert abs(u_vals.mean() - 1.0) < 4.0 * se_u

    sq = u_vals**2
    want = oracles.discrete_second_moment(LAT.n_levels, LAT.h)[LAT.n_levels]
    se_sq = sq.std(ddof=1) / np.sqrt(n_rep)
    assert abs(sq.mean() - want) < 4.0 * se_sq
    # the exact lattice moment sits within about 2 percent of the continuum law
    assert want == pytest.approx(oracles.POINT_SECOND_MOMENT, rel=0.03)


def test_gather_clamps_to_initial_profile():
    fld, _ = solved(CONSTANT_ONE, 1, LAT)
    levels = np.array([-1, 0, 1])
    cols = np.array([0, 0, 1])
    out = fld.values[point_index(LAT, levels, cols)]
    assert out[0] == 1.0 and out[1] == 1.0
    assert out[2] == field_at(fld, LAT.h, LAT.h)


def test_field_at_validation():
    fld, _ = solved(CONSTANT_ONE, 1, LAT)
    assert field_at(fld, 0.0, 0.0) == 1.0
    with pytest.raises(AlignmentError):
        field_at(fld, 0.0625, 0.0)  # odd parity at even column
    with pytest.raises(AlignmentError):
        field_at(fld, 0.03, 0.0)
    with pytest.raises(DomainError):
        field_at(fld, 1.0625, 0.0)
    with pytest.raises(DomainError):
        field_at(fld, 1.0, 1.875)  # aligned but outside the trapezoid


def test_level_and_field_at_agree():
    fld, _ = solved(LINEAR, 9, LAT)
    n = 4
    row = fld.level(n)
    assert row.shape == (LAT.width(n),)
    for j in (0, 3, LAT.width(n) - 1):
        col = LAT.col_lo + n + 2 * j
        assert field_at(fld, n * LAT.h, col * LAT.h) == row[j]
    # packed: the initial level once, then each level in the slots of the
    # cell row below it, with no padding
    assert fld.values.shape == (1 + LAT.total_cells,)
    assert np.all(fld.level(0) == 1.0) and fld.level(0).shape == (LAT.width(0),)
    for n in range(LAT.n_levels + 1):
        assert fld.level(n).shape == (LAT.width(n),)
    assert np.isfinite(fld.values).all()


def test_cone_boundary_trace_shape_and_endpoints():
    fld, _ = solved(LINEAR, 2, LAT)
    t, x = 0.5, 0.25
    n0, m0 = LAT.apex(t, x)
    y, points = cone_boundary_trace(LAT, n0, m0)
    vals = fld.values[points]
    assert not y.flags.writeable and not points.flags.writeable
    assert y.size == 2 * n0 + 1
    assert y[0] == pytest.approx(x - t) and y[-1] == pytest.approx(x + t)
    assert vals[0] == 1.0 and vals[-1] == 1.0  # the cone base sits on u(0,.) = 1
    mid = n0  # y == x entry
    assert vals[mid] == field_at(fld, t, x)


def test_coupled_linearization_shares_the_noise():
    nonlin, lin = solve_coupled_linearization(LINEAR, make_noise([77], LAT))
    ref, _ = solved(CONSTANT_ONE, 77, LAT)
    assert np.array_equal(lin[0].values, ref.values)
    assert nonlin[0].seed == lin[0].seed == 77
    assert not np.array_equal(nonlin[0].values, lin[0].values)


BLOCK_SIGMAS = [SigmaSpec("constant", (0.75,)), LINEAR,
                SigmaSpec("affine", (0.5, 0.5)), SigmaSpec("sine", (1.0,))]


@pytest.mark.parametrize("sigma", BLOCK_SIGMAS, ids=lambda s: s.kind)
@pytest.mark.parametrize("size", [1, 3, 16])
def test_block_solve_equals_each_seed_alone(sigma, size):
    seeds = list(range(40, 40 + size))
    block = make_noise(seeds, LAT)
    assert block.rows.shape == (size, 1 + LAT.total_cells)
    assert block.increments.shape == (size, LAT.total_cells)
    assert np.shares_memory(block.increments, block.rows)
    kept = block.copy()
    fields = solve_wave(sigma, block)
    assert len(fields) == size and fields.seeds == tuple(seeds)
    # solved in place: the block's rows now hold the fields
    assert np.shares_memory(fields.rows, block.rows)
    alone = [solved(sigma, seed, LAT) for seed in seeds]
    for b, (fld, xi) in enumerate(alone):
        assert kept.increments[b].tobytes() == xi.tobytes()
        assert fields[b].seed == fld.seed
        assert fields[b].values.tobytes() == fld.values.tobytes()
    nonlin, lin = solve_coupled_linearization(sigma, kept)
    for b, seed in enumerate(seeds):
        want = solve_coupled_linearization(sigma, make_noise([seed], LAT))
        assert nonlin[b].values.tobytes() == want[0][0].values.tobytes()
        assert lin[b].values.tobytes() == want[1][0].values.tobytes()


# the solve trapezoid of a shipped study, whose cells carry a word map
HOLDER = plan_study(load_config(str(Path(__file__).resolve().parent.parent / "configs"
                                    / "acceptance" / "holder_slopes.yaml")))
SOLVES = {"LAT": (LAT, None), "holder_slopes": (HOLDER.domain, HOLDER.words)}


@pytest.mark.parametrize("solve", sorted(SOLVES))
@pytest.mark.parametrize("sigma", BLOCK_SIGMAS, ids=lambda s: s.kind)
@pytest.mark.parametrize("size", [1, 3, 16])
def test_block_solve_equals_the_level_loop_bitwise(solve, sigma, size):
    lat, words = SOLVES[solve]
    block = make_noise(list(range(60, 60 + size)), lat, words)
    xi = block.increments.copy()
    fields = solve_wave(sigma, block)
    for b in range(size):
        want = oracles.wave_levels(sigma, xi[b], lat)
        assert fields[b].values.tobytes() == want.tobytes()
