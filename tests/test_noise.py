import numpy as np
import pytest
from scipy import stats as sps

from oracles import segment_sum
from swelab.errors import ConfigurationError
from swelab.lattice import LatticeSpec, cone_segments, segment_coords
from swelab.noise import (
    HEAT_STREAM_TAG,
    WAVE_STREAM_TAG,
    cell_index,
    make_noise,
    render_grid,
    stream_words,
    words_to_unit_normals,
)

LAT = LatticeSpec(h=0.25, t_max=1.0, x_lo=-2.0, x_hi=2.0)


def test_stream_is_deterministic():
    a = stream_words(42, WAVE_STREAM_TAG, 0, 256)
    b = stream_words(42, WAVE_STREAM_TAG, 0, 256)
    assert np.array_equal(a, b)


def test_stream_chunking_invariance():
    # word g must not depend on how the stream is sliced into requests
    whole = stream_words(9, WAVE_STREAM_TAG, 0, 100)
    pieces = np.concatenate([
        stream_words(9, WAVE_STREAM_TAG, 0, 3),
        stream_words(9, WAVE_STREAM_TAG, 3, 50),
        stream_words(9, WAVE_STREAM_TAG, 53, 47),
    ])
    assert np.array_equal(whole, pieces)


def test_streams_separate_by_seed_and_tag():
    base = stream_words(7, WAVE_STREAM_TAG, 0, 64)
    assert not np.array_equal(base, stream_words(8, WAVE_STREAM_TAG, 0, 64))
    assert not np.array_equal(base, stream_words(7, HEAT_STREAM_TAG, 0, 64))


def test_unit_normals_pass_ks_and_moments():
    z = words_to_unit_normals(stream_words(3, WAVE_STREAM_TAG, 0, 50_000))
    d = sps.kstest(z, "norm").statistic
    assert d < 1.358 / np.sqrt(z.size)
    assert abs(z.mean()) < 4.0 / np.sqrt(z.size)
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / z.size)


def test_large_seeds_keep_full_precision():
    # seeds near 2^64 must not collapse through a float64 round trip
    a = stream_words(2**64 - 1, WAVE_STREAM_TAG, 0, 16)
    b = stream_words(2**64 - 2, WAVE_STREAM_TAG, 0, 16)
    assert not np.array_equal(a, b)


def test_seed_validation():
    for bad in (-1, 2**64, True, 1.5, "7"):
        with pytest.raises(ConfigurationError):
            make_noise(bad, LAT)
    make_noise(0, LAT)
    make_noise(2**64 - 1, LAT)


def test_row_shapes_and_variance_scaling():
    noise = make_noise(11, LAT)
    assert len(noise.rows) == LAT.n_levels
    for n in range(LAT.n_levels):
        assert noise.row(n).shape == (LAT.cells_at(n),)
    # variance = cell area: pool standardized squares per level over many seeds
    sq0, sq1 = [], []
    for seed in range(400):
        nz = make_noise(seed, LAT)
        sq0.append((nz.row(0) / LAT.h) ** 2)
        sq1.append((nz.row(1) / (LAT.h * np.sqrt(2.0))) ** 2)
    for pool in (np.concatenate(sq0), np.concatenate(sq1)):
        assert abs(pool.mean() - 1.0) < 4.0 * np.sqrt(2.0 / pool.size)


def test_segment_sum_agrees_with_explicit_cells():
    noise = make_noise(17, LAT)
    segs = cone_segments(LAT, 4, 0)
    gathered = noise.flat[cell_index(LAT, *segment_coords(segs))]
    assert gathered.size == sum((hi - lo) // 2 + 1 for _, lo, hi in segs)
    assert float(gathered.sum()) == pytest.approx(segment_sum(noise, segs), rel=1e-12)


def test_render_grid_matches_realization():
    noise = make_noise(23, LAT)
    grid = render_grid(noise)
    n_cols = LAT.col_hi - LAT.col_lo + 1
    assert grid.shape == (LAT.n_levels, n_cols)
    for n in range(LAT.n_levels):
        row = grid[n]
        vals = row[n + 1 : n + 1 + 2 * LAT.cells_at(n) : 2]
        assert np.array_equal(vals, noise.row(n))
        mask = np.ones(n_cols, dtype=bool)
        mask[n + 1 : n + 1 + 2 * LAT.cells_at(n) : 2] = False
        assert np.all(row[mask] == 0.0)
