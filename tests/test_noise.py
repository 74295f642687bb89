import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import ndtri

from oracles import segment_sum
from swelab.errors import ConfigurationError
from swelab.lattice import LatticeSpec, cone_segments, segment_coords
from swelab.noise import (
    HEAT_STREAM_TAG,
    WAVE_STREAM_TAG,
    cell_index,
    make_noise,
    stream_words,
    words_to_unit_normals,
)
from swelab.reports import read_noise_snapshot, write_noise_snapshot

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


def test_top_word_class_maps_to_a_finite_normal():
    # k * 2^-53 + 2^-54 rounds to 1.0 for k = 2^53 - 1, whose ndtri is inf
    edges = np.array([0, 2**64 - 2**11 - 1, 2**64 - 2**11, 2**64 - 1], dtype=np.uint64)
    z = words_to_unit_normals(edges)
    assert np.all(np.isfinite(z))
    assert np.all(np.diff(z) >= 0.0)
    assert z[-1] == z[-2] > 8.2
    # every other word keeps the value of the unclamped map
    words = stream_words(5, WAVE_STREAM_TAG, 0, 100_000)
    u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    assert words_to_unit_normals(words).tobytes() == ndtri(u).tobytes()


def test_large_seeds_keep_full_precision():
    # seeds near 2^64 must not collapse through a float64 round trip
    a = stream_words(2**64 - 1, WAVE_STREAM_TAG, 0, 16)
    b = stream_words(2**64 - 2, WAVE_STREAM_TAG, 0, 16)
    assert not np.array_equal(a, b)


def test_seed_validation():
    for bad in (-1, 2**64, True, 1.5, "7"):
        with pytest.raises(ConfigurationError):
            make_noise([0, bad], LAT)
    assert make_noise([0, 2**64 - 1], LAT).seeds == (0, 2**64 - 1)


def test_row_shapes_and_variance_scaling():
    block = make_noise(range(400), LAT)
    assert block.rows.shape == (400, 1 + LAT.total_cells)
    assert np.all(block.rows[:, 0] == 1.0)
    starts = LAT.cell_row_starts
    assert np.array_equal(np.diff(starts), [LAT.cells_at(n) for n in range(LAT.n_levels)])
    assert starts[-1] == LAT.total_cells == block.increments.shape[1]
    # variance = cell area: pool standardized squares per level over many seeds
    sq0 = (block.increments[:, :starts[1]] / LAT.h) ** 2
    sq1 = (block.increments[:, starts[1]:starts[2]] / (LAT.h * np.sqrt(2.0))) ** 2
    for pool in (sq0, sq1):
        assert abs(pool.mean() - 1.0) < 4.0 * np.sqrt(2.0 / pool.size)


def test_segment_sum_agrees_with_explicit_cells():
    xi = make_noise([17], LAT).increments[0]
    segs = cone_segments(LAT, 4, 0)
    gathered = xi[cell_index(LAT, *segment_coords(segs))]
    assert gathered.size == sum((hi - lo) // 2 + 1 for _, lo, hi in segs)
    assert float(gathered.sum()) == pytest.approx(segment_sum(xi, LAT, segs), rel=1e-12)


def test_render_grid_matches_realization(tmp_path):
    xi = make_noise([23], LAT).increments[0]
    path = tmp_path / "n.bin"
    write_noise_snapshot(path, LAT, xi)
    _, grid = read_noise_snapshot(path)
    n_cols = LAT.col_hi - LAT.col_lo + 1
    assert grid.shape == (LAT.n_levels, n_cols)
    # cell k of level n in column n + 1 + 2k, 0.0 off-cell
    starts = LAT.cell_row_starts
    for n, row in enumerate(grid):
        cells = slice(n + 1, n + 1 + 2 * LAT.cells_at(n), 2)
        assert row[cells].tobytes() == xi[starts[n]:starts[n + 1]].tobytes()
        mask = np.ones(n_cols, dtype=bool)
        mask[cells] = False
        assert np.all(row[mask] == 0.0)
