import numpy as np
import pytest

import oracles
from oracles import segment_sum
from swelab.errors import AlignmentError, DomainError
from swelab.lattice import LatticeSpec, cone_segments
from swelab.noise import make_noise
from swelab.sigma import CONSTANT_ONE, MULTIPLICATIVE, SigmaSpec
from swelab.wave import (
    cone_boundary_trace,
    field_at,
    point_index,
    solve_coupled_linearization,
    solve_wave,
)

LAT = LatticeSpec(h=0.0625, t_max=1.0, x_lo=-2.0, x_hi=2.0)


def test_constant_sigma_telescopes_to_cone_noise_sum():
    # u(t, x) - 1 must equal sigma * (noise mass of the backward cone) exactly
    for seed in range(20):
        noise = make_noise(seed, LAT)
        for c in (1.0, 0.75):
            fld = solve_wave(SigmaSpec("constant", (c,)), noise)
            for t, x in [(1.0, 0.0), (0.5, 0.25), (0.0625, -1.0625), (1.0, 0.875)]:
                n0, m0 = LAT.apex(t, x)
                want = 1.0 + c * segment_sum(noise, cone_segments(LAT, n0, m0))
                got = field_at(fld, t, x)
                assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(got)))


def test_first_layer_is_one_plus_triangle_noise():
    noise = make_noise(3, LAT)
    fld = solve_wave(MULTIPLICATIVE, noise)
    assert np.array_equal(fld.level(1), 1.0 + noise.row(0))


def test_nonlinear_field_satisfies_the_discrete_integral_identity():
    # u - 1 == sum over cone cells of sigma(u at base vertex) * cell noise
    for seed in (0, 5, 11):
        noise = make_noise(seed, LAT)
        for sig in (MULTIPLICATIVE, SigmaSpec("affine", (0.5, 0.5)),
                    SigmaSpec("sine", (1.0,))):
            fld = solve_wave(sig, noise)
            for t, x in [(1.0, 0.0), (0.75, -0.5)]:
                n0, m0 = LAT.apex(t, x)
                total = 0.0
                for n, lo, hi in cone_segments(LAT, n0, m0):
                    cols = np.arange(lo, hi + 1, 2)
                    base = fld.values[point_index(LAT, np.full(cols.size, n - 1), cols)]
                    first = LAT.col_lo + n + 1
                    xi = noise.rows[n][(lo - first) // 2:(hi - first) // 2 + 1]
                    total += float(np.dot(sig(base), xi))
                assert field_at(fld, t, x) == pytest.approx(1.0 + total, rel=1e-9)


def test_mean_one_and_second_moment_match_recursion():
    n_rep = 4000
    u_vals = np.empty(n_rep)
    for seed in range(n_rep):
        fld = solve_wave(MULTIPLICATIVE, make_noise(seed, LAT))
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
    fld = solve_wave(CONSTANT_ONE, make_noise(1, LAT))
    levels = np.array([-1, 0, 1])
    cols = np.array([0, 0, 1])
    out = fld.values[point_index(LAT, levels, cols)]
    assert out[0] == 1.0 and out[1] == 1.0
    assert out[2] == fld.at_point(1, 1)


def test_field_at_validation():
    fld = solve_wave(CONSTANT_ONE, make_noise(1, LAT))
    assert field_at(fld, 0.0, 0.0) == 1.0
    with pytest.raises(AlignmentError):
        field_at(fld, 0.0625, 0.0)  # odd parity at even column
    with pytest.raises(AlignmentError):
        field_at(fld, 0.03, 0.0)
    with pytest.raises(DomainError):
        field_at(fld, 1.0625, 0.0)
    with pytest.raises(DomainError):
        field_at(fld, 1.0, 1.875)  # aligned but outside the trapezoid


def test_level_and_at_point_agree():
    fld = solve_wave(MULTIPLICATIVE, make_noise(9, LAT))
    n = 4
    row = fld.level(n)
    assert row.shape == (LAT.width(n),)
    for j in (0, 3, LAT.width(n) - 1):
        col = LAT.col_lo + n + 2 * j
        assert fld.at_point(n, col) == row[j]
    # packed: the initial level once, then each level in the slots of the
    # cell row below it, with no padding
    assert fld.values.shape == (1 + LAT.total_cells,)
    assert np.all(fld.level(0) == 1.0) and fld.level(0).shape == (LAT.width(0),)
    for n in range(LAT.n_levels + 1):
        assert fld.level(n).shape == (LAT.width(n),)
    assert np.isfinite(fld.values).all()


def test_cone_boundary_trace_shape_and_endpoints():
    fld = solve_wave(MULTIPLICATIVE, make_noise(2, LAT))
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
    noise = make_noise(77, LAT)
    nonlin, lin = solve_coupled_linearization(MULTIPLICATIVE, noise)
    ref = solve_wave(CONSTANT_ONE, noise)
    assert np.array_equal(lin.values, ref.values)
    assert nonlin.seed == lin.seed == 77
    assert not np.array_equal(nonlin.values, lin.values)


BLOCK_SIGMAS = [SigmaSpec("constant", (0.75,)), MULTIPLICATIVE,
                SigmaSpec("affine", (0.5, 0.5)), SigmaSpec("sine", (1.0,))]


@pytest.mark.parametrize("sigma", BLOCK_SIGMAS, ids=lambda s: s.kind)
@pytest.mark.parametrize("size", [1, 3, 16])
def test_block_solve_equals_each_seed_alone(sigma, size):
    seeds = list(range(40, 40 + size))
    block = make_noise(seeds, LAT)
    assert block.rows.shape == (size, 1 + LAT.total_cells)
    alone = [make_noise(seed, LAT) for seed in seeds]
    for b, noise in enumerate(alone):
        assert block[b].flat.tobytes() == noise.flat.tobytes()
    kept = block.copy()
    fields = solve_wave(sigma, block)
    assert len(fields) == size and fields.seeds == tuple(seeds)
    # solved in place: the block's rows now hold the fields
    assert np.shares_memory(fields.rows, block.rows)
    for b, noise in enumerate(alone):
        fld = solve_wave(sigma, noise)
        assert fields[b].seed == fld.seed
        assert fields[b].values.tobytes() == fld.values.tobytes()
        assert kept[b].flat.tobytes() == noise.flat.tobytes()
    nonlin, lin = solve_coupled_linearization(sigma, kept)
    for b, noise in enumerate(alone):
        want = solve_coupled_linearization(sigma, noise)
        assert nonlin[b].values.tobytes() == want[0].values.tobytes()
        assert lin[b].values.tobytes() == want[1].values.tobytes()
