import numpy as np
import pytest

import oracles
from swelab.errors import (
    AlignmentError,
    ConfigurationError,
    ConfigurationWarning,
    DomainError,
)
import swelab.heat as heat
from swelab.heat import (
    HeatGridSpec,
    _normals,
    solve_coupled_heat_linearization,
    solve_heat,
)
from swelab.noise import HEAT_STREAM_TAG, stream_words, words_to_unit_normals
from swelab.sigma import CONSTANT_ONE, SigmaSpec

LINEAR = SigmaSpec("linear", (1.0,))


def small_grid() -> HeatGridSpec:
    with pytest.warns(ConfigurationWarning):
        return HeatGridSpec(dx=0.0625, t_max=0.015625, circumference=1.0)


def test_stability_rejection_cites_the_bound():
    with pytest.raises(ConfigurationError, match="dx\\^2/2"):
        HeatGridSpec(dx=0.0625, t_max=0.015625, circumference=2.0, dt=0.0625)


def test_grid_validation_and_defaults():
    g = HeatGridSpec(dx=0.125, t_max=0.0625, circumference=4.0)
    assert g.dt == pytest.approx(0.125**2 / 4.0)
    assert g.n_steps == 16
    assert g.n_sites == 32
    with pytest.raises(ConfigurationError):
        HeatGridSpec(dx=0.125, t_max=0.0625, circumference=0.25)  # under 4 sites
    with pytest.raises(ConfigurationError):
        HeatGridSpec(dx=0.125, t_max=0.001, circumference=4.0)  # under one step
    with pytest.raises(ConfigurationError):
        HeatGridSpec(dx=0.125, t_max=0.06, circumference=4.0)  # misaligned t_max
    with pytest.raises(ConfigurationError, match="finite multiple"):
        HeatGridSpec(dx=1e-150, t_max=1e10, circumference=4.0)  # t_max/dt overflows


def test_wraparound_warning_threshold():
    with pytest.warns(ConfigurationWarning, match="wrap-around"):
        HeatGridSpec(dx=0.0625, t_max=0.25, circumference=4.0)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        HeatGridSpec(dx=0.0625, t_max=0.0625, circumference=4.0)


def test_step_and_site_lookup():
    g = HeatGridSpec(dx=0.125, t_max=0.0625, circumference=4.0)
    assert g.step_of(0.0) == 0
    assert g.step_of(g.dt * 5) == 5
    with pytest.raises(DomainError):
        g.step_of(g.t_max + g.dt)
    assert g.site_of(0.0) == 0
    assert g.site_of(4.0) == 0  # periodic wrap
    assert g.site_of(-0.125) == g.n_sites - 1
    with pytest.raises(AlignmentError):
        g.site_of(0.1)


def test_zero_sigma_keeps_the_field_flat():
    g = small_grid()
    fld = solve_heat(SigmaSpec("constant", (0.0,)), 4, g)
    assert np.all(fld.values == 1.0)


def test_constant_sigma_matches_kernel_reconstruction():
    # per-seed exactness: rebuild the final slice from the same normals through
    # an independently written propagation of the one-step smoothing matrix
    g = small_grid()
    c = 0.7
    fld = solve_heat(SigmaSpec("constant", (c,)), 21, g)
    z = words_to_unit_normals(
        stream_words(21, HEAT_STREAM_TAG, 0, g.n_steps * g.n_sites)
    ).reshape(g.n_steps, g.n_sites)
    want = oracles.heat_field_from_kernel(g.dx, g.dt, g.n_sites, g.n_steps, z, c)
    assert np.allclose(fld.values, want, atol=1e-12)


def test_variance_matches_kernel_oracle():
    g = small_grid()
    n_rep = 3000
    vals = np.empty(n_rep)
    for seed in range(n_rep):
        vals[seed] = solve_heat(CONSTANT_ONE, seed, g).values[5]
    want = oracles.heat_variance_kernel(g.dx, g.dt, g.n_sites, g.n_steps, site=5)
    var = vals.var(ddof=1)
    se = var * np.sqrt(2.0 / n_rep)
    assert abs(vals.mean() - 1.0) < 4.0 * vals.std(ddof=1) / np.sqrt(n_rep)
    assert abs(var - want) < 4.0 * se


def test_site_normal_matches_the_stream():
    # the normal at (step, site) is word step * n_sites + site, read on its own
    g = small_grid()
    z = _normals([12, 13], g, 3, g.n_steps)
    for step, site in [(3, 0), (3, 7), (g.n_steps - 1, g.n_sites - 1)]:
        word = stream_words(13, HEAT_STREAM_TAG, step * g.n_sites + site, 1)
        assert words_to_unit_normals(word)[0] == z[step - 3, 1, site]


def test_coupled_heat_solutions_share_normals():
    g = small_grid()
    [[v], [lin]] = solve_coupled_heat_linearization(LINEAR, [9], g, g.t_max)
    ref = solve_heat(CONSTANT_ONE, 9, g)
    assert np.array_equal(lin, ref.values)
    assert not np.array_equal(v, lin)
    assert oracles.heat_at(ref, g.t_max, 0.25) == lin[g.site_of(0.25)]
    with pytest.raises(LookupError, match="t=0.0 is step 0.*kept only step 16"):
        oracles.heat_at(ref, 0.0, 0.0)


def shipped_heat_grid() -> HeatGridSpec:
    # the linearize_heat grid: 256 sites, 1024 steps, several normals chunks
    return HeatGridSpec(dx=0.015625, t_max=0.0625, circumference=4.0)


@pytest.mark.parametrize("sigma", [LINEAR, SigmaSpec.parse("sine:1"),
                                   SigmaSpec.parse("constant:0.7"),
                                   SigmaSpec.parse("affine:0.5,2.0")])
@pytest.mark.parametrize("step", [1024, 700])
def test_block_march_equals_the_row_by_row_history(sigma, step):
    g = shipped_heat_grid()
    seeds = [3, 4, 5]
    want = {}
    for seed in seeds:
        z = words_to_unit_normals(
            stream_words(seed, HEAT_STREAM_TAG, 0, g.n_steps * g.n_sites)
        ).reshape(g.n_steps, g.n_sites)
        want[seed] = (oracles.heat_march(sigma, g.dx, g.dt, step, z)[step],
                      oracles.heat_march(CONSTANT_ONE, g.dx, g.dt, step, z)[step])
    # blocks of 1, 2 (small-studies' block) and 3 seeds
    for block in (1, 2, 3):
        rows = solve_coupled_heat_linearization(sigma, seeds[:block], g, step * g.dt)
        assert rows.shape == (2, block, g.n_sites)
        for seed, v, lin in zip(seeds, *rows):
            assert np.all(v == want[seed][0])
            assert np.all(lin == want[seed][1])


def test_march_stops_at_the_probe_time(monkeypatch):
    g = shipped_heat_grid()
    drawn = []

    def recording_normals(seeds, grid, start, stop):
        drawn.append((start, stop))
        return _normals(seeds, grid, start, stop)

    monkeypatch.setattr(heat, "_normals", recording_normals)
    rows = solve_coupled_heat_linearization(LINEAR, [1], g, 700 * g.dt)
    assert drawn[-1][1] == 700
    assert all(stop - start <= heat._CHUNK_WORDS // g.n_sites for start, stop in drawn)
    assert rows.shape == (2, 1, g.n_sites)


def test_every_seed_of_a_block_is_checked():
    g = small_grid()
    with pytest.raises(ConfigurationError, match=f"got {2 ** 64}"):
        solve_coupled_heat_linearization(LINEAR, [2 ** 64 - 1, 2 ** 64, 0], g,
                                         g.t_max)
    with pytest.raises(ConfigurationError, match="integer"):
        solve_coupled_heat_linearization(LINEAR, [1, 2.0, 3], g, g.t_max)
