import numpy as np
import pytest

import oracles
from swelab.errors import AlignmentError, ConfigurationError, DomainError
from oracles import segment_cells, segments_area
from swelab.lattice import (
    LatticeSpec,
    cone_segments,
    segment_coords,
    shell_segments,
    side_shell_segments,
    spatial_shell_area,
    temporal_shell_area,
)
from swelab.noise import cell_index

LAT = LatticeSpec(h=0.125, t_max=2.0, x_lo=-4.0, x_hi=4.0)


# -- spec validation -----------------------------------------------------------


def test_rejects_degenerate_geometry():
    with pytest.raises(ConfigurationError):
        LatticeSpec(h=0.0, t_max=1.0, x_lo=-2.0, x_hi=2.0)
    with pytest.raises(ConfigurationError):
        LatticeSpec(h=0.25, t_max=1.0, x_lo=2.0, x_hi=-2.0)
    with pytest.raises(ConfigurationError, match="multiple of h"):
        LatticeSpec(h=0.25, t_max=1.1, x_lo=-2.0, x_hi=2.0)
    with pytest.raises(ConfigurationError, match="at least one level"):
        LatticeSpec(h=0.25, t_max=0.0, x_lo=-2.0, x_hi=2.0)
    with pytest.raises(ConfigurationError, match="finite multiple of h"):
        LatticeSpec(h=1e-300, t_max=1e10, x_lo=-2e10, x_hi=2e10)  # t_max/h overflows


def test_rejects_odd_base_columns_with_suggestion():
    with pytest.raises(ConfigurationError, match="nearest admissible"):
        LatticeSpec(h=0.25, t_max=1.0, x_lo=-1.75, x_hi=2.0)


def test_rejects_narrow_base():
    with pytest.raises(ConfigurationError, match="2\\*t_max"):
        LatticeSpec(h=0.25, t_max=2.0, x_lo=-1.0, x_hi=1.0)


# -- index bookkeeping ---------------------------------------------------------


def test_widths_shrink_one_point_per_side():
    for n in range(LAT.n_levels + 1):
        assert LAT.width(n) == LAT.width(0) - n
    assert LAT.width(LAT.n_levels) >= 1


def test_field_point_predicate_counts_match_width():
    # field points: n + c even, col_lo + n <= c <= col_hi - n
    for n in range(LAT.n_levels + 1):
        count = sum(
            (n + c) % 2 == 0 and LAT.col_lo + n <= c <= LAT.col_hi - n
            for c in range(LAT.col_lo - 2, LAT.col_hi + 3)
        )
        assert count == LAT.width(n)


def test_cell_predicate_counts_match_cells_at():
    # cells: n + c odd, col_lo + n < c < col_hi - n
    for n in range(LAT.n_levels):
        count = sum(
            (n + c) % 2 == 1 and LAT.col_lo + n < c < LAT.col_hi - n
            for c in range(LAT.col_lo - 2, LAT.col_hi + 3)
        )
        assert count == LAT.cells_at(n)


def test_word_index_is_a_bijection():
    cells = oracles.lattice_cells(LAT.n_levels, LAT.col_lo, LAT.col_hi)
    levels = np.array([n for n, _ in cells])
    cols = np.array([c for _, c in cells])
    offsets = cell_index(LAT, levels, cols)
    assert len(cells) == LAT.total_cells
    assert sorted(offsets.tolist()) == list(range(LAT.total_cells))


def test_apex_validation():
    assert LAT.apex(1.0, 0.5) == (8, 4)
    with pytest.raises(AlignmentError, match="parity"):
        LAT.apex(1.0, 0.625)
    with pytest.raises(AlignmentError):
        LAT.apex(0.9, 0.0)
    with pytest.raises(DomainError):
        LAT.apex(1.0, 3.75)
    with pytest.raises(DomainError):
        LAT.apex(2.25, 0.0)


def test_require_cone_inside():
    LAT.require_cone_inside(8, 24)  # base reaches col 32 = col_hi
    with pytest.raises(DomainError):
        LAT.require_cone_inside(8, 25)


# -- closed forms vs raw enumeration -------------------------------------------


def test_cone_enumeration_matches_area_and_oracle_cells():
    for n0, m0 in [(3, 1), (8, 0), (8, 6), (16, 0), (15, 1)]:
        segs = cone_segments(LAT, n0, m0)
        assert segments_area(segs, LAT.h) == pytest.approx((n0 * LAT.h) ** 2, rel=1e-12)
        got = segment_cells(segs)
        want = {(n, c) for n, c, _ in oracles.cone_cells(n0, m0)}
        assert got == want
        levels, cols = segment_coords(segs)
        assert levels.size == len(want)
        assert set(zip(levels.tolist(), cols.tolist())) == want


def test_temporal_shell_enumeration_matches_oracle():
    for inner, outer in [(2, 4), (4, 10), (7, 9), (2, 16)]:
        m0 = outer % 2
        segs = shell_segments(LAT, m0, inner, outer)
        area = segments_area(segs, LAT.h)
        assert area == pytest.approx(
            oracles.enum_shell_area(inner, outer, LAT.h), rel=1e-12
        )
        assert area == pytest.approx(
            temporal_shell_area(inner * LAT.h, outer * LAT.h), rel=1e-12
        )


def test_shell_level_validation():
    with pytest.raises(DomainError):
        shell_segments(LAT, 0, 4, 4)
    with pytest.raises(DomainError):
        shell_segments(LAT, 0, 0, LAT.n_levels + 1)


def test_truncated_shell_matches_oracle_and_frozen_form():
    for inner, outer in [(4, 6), (8, 10), (8, 12), (14, 16)]:
        m0 = outer % 2
        segs = shell_segments(LAT, m0, inner, outer, col_cap=inner - 1)
        area = segments_area(segs, LAT.h)
        assert area == pytest.approx(
            oracles.enum_truncated_shell_area(inner, outer, LAT.h), rel=1e-12
        )
        t, eps = inner * LAT.h, (outer - inner) * LAT.h
        # whole cells only: dropping the straddling diamonds costs eps*h
        assert area == pytest.approx(eps * (2.0 * t - LAT.h), rel=1e-12)


def test_side_shell_enumeration_matches_oracle():
    for n0, d in [(8, 2), (8, 4), (12, 6), (15, 2)]:
        m0 = n0 % 2
        left = side_shell_segments(LAT, n0, m0, m0 + d, "left")
        right = side_shell_segments(LAT, n0, m0, m0 + d, "right")
        total = segments_area(left, LAT.h) + segments_area(right, LAT.h)
        assert total == pytest.approx(
            oracles.enum_side_shell_area(n0, d, LAT.h), rel=1e-12
        )
        one = spatial_shell_area(n0 * LAT.h, d * LAT.h)
        assert segments_area(left, LAT.h) == pytest.approx(one, rel=1e-12)
        assert segments_area(right, LAT.h) == pytest.approx(one, rel=1e-12)


def test_side_shells_are_disjoint_and_complementary():
    n0, m0, d = 10, 0, 4
    a = segment_cells(side_shell_segments(LAT, n0, m0, m0 + d, "left"))
    b = segment_cells(side_shell_segments(LAT, n0, m0, m0 + d, "right"))
    assert not a & b
    cone_a = {(n, c) for n, c, _ in oracles.cone_cells(n0, m0)}
    cone_b = {(n, c) for n, c, _ in oracles.cone_cells(n0, m0 + d)}
    assert a == cone_a - cone_b
    assert b == cone_b - cone_a


def test_side_shell_alignment_rules():
    with pytest.raises(AlignmentError):
        side_shell_segments(LAT, 8, 4, 4, "left")
    with pytest.raises(AlignmentError):
        side_shell_segments(LAT, 8, 0, 3, "left")


def test_cells_tile_the_first_slab():
    # the bulk of slab [0, h]: one triangle plus one diamond bottom-half per 2h
    tri = LAT.cells_at(0) * LAT.h**2
    dia_half = LAT.cells_at(1) * LAT.h**2
    span = (LAT.col_hi - LAT.col_lo) * LAT.h
    assert tri + dia_half == pytest.approx(span * LAT.h - LAT.h**2, rel=1e-12)
