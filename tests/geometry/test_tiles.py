"""Tile unions: validation, overlap, expansion, boundary extraction."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry import (
    BOTTOM,
    LEFT,
    RIGHT,
    TOP,
    BoundaryEdge,
    Rect,
    TileSet,
)
from repro.geometry import orientation as ori


class TestConstruction:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            TileSet([])

    def test_zero_area_tile_raises(self):
        with pytest.raises(ValueError):
            TileSet([Rect(0, 0, 0, 5)])

    def test_overlapping_tiles_raise(self):
        with pytest.raises(ValueError):
            TileSet([Rect(0, 0, 2, 2), Rect(1, 1, 3, 3)])

    def test_touching_tiles_ok(self):
        ts = TileSet([Rect(0, 0, 2, 2), Rect(2, 0, 4, 2)])
        assert ts.area == 8

    def test_disconnected_raises(self):
        with pytest.raises(ValueError):
            TileSet([Rect(0, 0, 1, 1), Rect(5, 5, 6, 6)])

    def test_corner_touch_is_disconnected(self):
        with pytest.raises(ValueError):
            TileSet([Rect(0, 0, 1, 1), Rect(1, 1, 2, 2)])

    def test_rectangle_factory(self):
        ts = TileSet.rectangle(10, 4)
        assert ts.bbox == Rect(-5, -2, 5, 2)
        assert ts.area == 40

    def test_l_shape(self):
        ts = TileSet.l_shape(10, 10, 4, 4)
        assert ts.area == 100 - 16
        assert ts.bbox.width == 10 and ts.bbox.height == 10
        assert ts.bbox.center.x == pytest.approx(0)

    def test_l_shape_bad_notch(self):
        with pytest.raises(ValueError):
            TileSet.l_shape(10, 10, 10, 4)

    def test_t_shape(self):
        ts = TileSet.t_shape(12, 10, 4, 3)
        assert ts.area == 12 * 3 + 4 * 7

    def test_equality_and_hash(self):
        a = TileSet([Rect(0, 0, 2, 2), Rect(2, 0, 4, 2)])
        b = TileSet([Rect(2, 0, 4, 2), Rect(0, 0, 2, 2)])
        assert a == b and hash(a) == hash(b)


class TestOverlap:
    def test_disjoint(self):
        a = TileSet.rectangle(2, 2)
        b = TileSet.rectangle(2, 2).translated(10, 0)
        assert a.overlap_area(b) == 0.0

    def test_identical(self):
        a = TileSet.rectangle(4, 4)
        assert a.overlap_area(a) == 16.0

    def test_l_shapes_overlap_in_notch(self):
        # A small square inside the L's notch does not overlap the L.
        l = TileSet.l_shape(10, 10, 4, 4)
        # The notch is the upper-right corner of the bbox.
        probe = TileSet.rectangle(2, 2).translated(3.5, 3.5)
        assert l.overlap_area(probe) == 0.0

    @given(st.integers(-6, 6), st.integers(-6, 6))
    def test_symmetric(self, dx, dy):
        a = TileSet.l_shape(8, 8, 3, 3)
        b = TileSet.rectangle(4, 6).translated(dx, dy)
        assert a.overlap_area(b) == pytest.approx(b.overlap_area(a))


class TestTransforms:
    def test_recentered(self):
        ts = TileSet([Rect(10, 10, 14, 12)]).recentered()
        assert ts.bbox.center.x == 0 and ts.bbox.center.y == 0

    def test_translated(self):
        ts = TileSet.rectangle(2, 2).translated(5, 5)
        assert ts.bbox == Rect(4, 4, 6, 6)

    @given(st.integers(0, 7))
    def test_transform_preserves_area(self, o):
        ts = TileSet.l_shape(10, 8, 3, 2)
        assert ts.transformed(o).area == pytest.approx(ts.area)

    @given(st.integers(0, 7))
    def test_transform_swaps_bbox(self, o):
        ts = TileSet.rectangle(10, 4)
        t = ts.transformed(o)
        if ori.swaps_axes(o):
            assert (t.width, t.height) == (4, 10)
        else:
            assert (t.width, t.height) == (10, 4)


class TestExpansion:
    def test_uniform(self):
        ts = TileSet.rectangle(4, 4).expanded_uniform(1)
        assert ts.bbox == Rect(-3, -3, 3, 3)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            TileSet.rectangle(2, 2).expanded_uniform(-1)

    def test_per_side(self):
        ts = TileSet.rectangle(4, 4).expanded_per_side(1, 2, 3, 4)
        assert ts.bbox == Rect(-3, -4, 5, 6)

    def test_per_side_negative_raises(self):
        with pytest.raises(ValueError):
            TileSet.rectangle(2, 2).expanded_per_side(0, -1, 0, 0)

    def test_expansion_grows_overlap(self):
        a = TileSet.rectangle(2, 2)
        b = TileSet.rectangle(2, 2).translated(3, 0)
        assert a.overlap_area(b) == 0
        assert a.expanded_uniform(1).overlap_area(b.expanded_uniform(1)) > 0


class TestOverlapFastPaths:
    """The two hot-loop branches inside overlap_area: the bounding-box
    broad-phase reject and the single-tile short circuit."""

    def test_bbox_reject_disjoint_multi_tile(self):
        # Multi-tile sets with disjoint bboxes: the reject fires before
        # any tile pair is visited, and the answer is exactly 0.0.
        a = TileSet.l_shape(6, 6, 2, 2)
        b = TileSet.l_shape(6, 6, 2, 2).translated(100, 0)
        assert not a.bbox.intersects(b.bbox)
        assert a.overlap_area(b) == 0.0

    def test_bbox_reject_touching_is_zero(self):
        # Touching bboxes share an edge, zero area: whether the reject
        # fires or the tile loop runs, the result must be exactly 0.0.
        a = TileSet.rectangle(4, 4)
        b = TileSet.rectangle(4, 4).translated(4, 0)
        assert a.overlap_area(b) == 0.0

    def test_bbox_overlap_tiles_disjoint(self):
        # Bboxes intersect but the tiles do not (probe in the L notch):
        # the reject must NOT fire a false zero — the loop runs and
        # still finds no common area.
        l = TileSet.l_shape(10, 10, 4, 4)
        probe = TileSet.rectangle(2, 2).translated(3.5, 3.5)
        assert l.bbox.intersects(probe.bbox)
        assert l.overlap_area(probe) == 0.0

    def test_single_tile_pair_matches_rect(self):
        a = TileSet.rectangle(6, 4).translated(1, 1)
        b = TileSet.rectangle(5, 5).translated(3, 2)
        expected = a.tiles[0].overlap_area(b.tiles[0])
        assert expected > 0
        assert a.overlap_area(b) == expected

    def test_single_vs_multi_uses_general_loop(self):
        single = TileSet.rectangle(4, 4)
        multi = TileSet.l_shape(8, 8, 3, 3)
        total = sum(single.tiles[0].overlap_area(t) for t in multi.tiles)
        assert single.overlap_area(multi) == pytest.approx(total)
        assert multi.overlap_area(single) == pytest.approx(total)

    @given(st.integers(-8, 8), st.integers(-8, 8))
    def test_fast_paths_match_bruteforce(self, dx, dy):
        # The branches must be invisible: compare against the plain
        # all-pairs tile sum for single-single at every offset.
        a = TileSet.rectangle(5, 3)
        b = TileSet.rectangle(4, 6).translated(dx, dy)
        brute = sum(
            ti.overlap_area(tj) for ti in a.tiles for tj in b.tiles
        )
        assert a.overlap_area(b) == pytest.approx(brute)


class TestComposedTransforms:
    """The single-tile fast paths of the transforms must be
    indistinguishable from the general tile-by-tile spellings."""

    def test_single_tile_bbox_is_exact(self):
        out = TileSet.rectangle(4, 2).translated(10, 20).expanded_per_side(1, 2, 3, 4)
        assert out.bbox == out.tiles[0]
        assert out.area == out.tiles[0].area

    @given(st.integers(0, 7))
    def test_transformed_single_tile_matches_rect_transform(self, o):
        ts = TileSet.rectangle(10, 4).translated(2, 3)
        out = ts.transformed(o)
        expected = ori.transform_rect(o, ts.tiles[0])
        assert out.tiles == (expected,)
        assert out.bbox == expected
        assert out.area == pytest.approx(expected.area)


class TestBoundaryEdges:
    def test_rectangle_has_four(self):
        edges = TileSet.rectangle(4, 2).boundary_edges()
        assert len(edges) == 4
        sides = {e.side for e in edges}
        assert sides == {LEFT, RIGHT, BOTTOM, TOP}

    def test_rectangle_lengths(self):
        edges = TileSet.rectangle(4, 2).boundary_edges()
        by_side = {e.side: e for e in edges}
        assert by_side[LEFT].length == 2
        assert by_side[TOP].length == 4

    def test_l_shape_has_six(self):
        edges = TileSet.l_shape(10, 10, 4, 4).boundary_edges()
        assert len(edges) == 6

    def test_t_shape_has_eight(self):
        edges = TileSet.t_shape(12, 10, 4, 3).boundary_edges()
        assert len(edges) == 8

    def test_boundary_length_rect(self):
        assert TileSet.rectangle(4, 2).boundary_length() == 12

    def test_boundary_length_l(self):
        # An L-shape's perimeter equals its bounding box's perimeter.
        assert TileSet.l_shape(10, 10, 4, 4).boundary_length() == 40

    def test_internal_edges_removed(self):
        # Two abutting tiles: the shared edge is interior, not boundary.
        ts = TileSet([Rect(0, 0, 2, 2), Rect(2, 0, 4, 2)])
        edges = ts.boundary_edges()
        assert ts.boundary_length() == 12
        verticals = [e for e in edges if e.is_vertical]
        assert {e.position for e in verticals} == {0, 4}

    def test_collinear_merge(self):
        # Two stacked tiles: left boundary is one merged edge.
        ts = TileSet([Rect(0, 0, 2, 2), Rect(0, 2, 2, 4)])
        lefts = [e for e in ts.boundary_edges() if e.side == LEFT]
        assert len(lefts) == 1
        assert (lefts[0].lo, lefts[0].hi) == (0, 4)

    def test_midpoints_on_shape_boundary(self):
        ts = TileSet.l_shape(10, 10, 4, 4)
        for e in ts.boundary_edges():
            x, y = e.midpoint
            assert ts.contains_point(x, y)


class TestBoundaryEdgeClass:
    def test_bad_side(self):
        with pytest.raises(ValueError):
            BoundaryEdge("diagonal", 0, 0, 1)

    def test_bad_span(self):
        with pytest.raises(ValueError):
            BoundaryEdge(LEFT, 0, 2, 1)

    def test_translated_vertical(self):
        e = BoundaryEdge(LEFT, 1, 0, 4).translated(2, 3)
        assert (e.position, e.lo, e.hi) == (3, 3, 7)

    def test_translated_horizontal(self):
        e = BoundaryEdge(TOP, 1, 0, 4).translated(2, 3)
        assert (e.position, e.lo, e.hi) == (4, 2, 6)

    def test_midpoint_horizontal(self):
        assert BoundaryEdge(BOTTOM, 5, 0, 4).midpoint == (2, 5)
