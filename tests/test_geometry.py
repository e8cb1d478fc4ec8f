"""Tests for bounding boxes and grids, including property-based IoU checks."""

import pytest
from hypothesis import given, strategies as st

from repro.video.geometry import BoundingBox, GridSpec, Point, interpolate_boxes


finite_coord = st.floats(min_value=-1000, max_value=1000, allow_nan=False)
positive_dim = st.floats(min_value=0.1, max_value=500, allow_nan=False)


def boxes():
    return st.builds(BoundingBox, x=finite_coord, y=finite_coord,
                     width=positive_dim, height=positive_dim)


class TestBoundingBox:
    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, -1, 5)

    def test_area_and_center(self):
        box = BoundingBox(10, 20, 30, 40)
        assert box.area == 1200
        assert box.center == Point(25, 40)

    def test_contains_point(self):
        box = BoundingBox(0, 0, 10, 10)
        assert box.contains_point(Point(5, 5))
        assert box.contains_point(Point(10, 10))
        assert not box.contains_point(Point(11, 5))

    def test_intersection_disjoint(self):
        assert BoundingBox(0, 0, 10, 10).intersection(BoundingBox(20, 20, 5, 5)) is None

    def test_intersection_partial(self):
        overlap = BoundingBox(0, 0, 10, 10).intersection(BoundingBox(5, 5, 10, 10))
        assert overlap == BoundingBox(5, 5, 5, 5)

    def test_iou_identical(self):
        box = BoundingBox(3, 4, 10, 12)
        assert box.iou(box) == pytest.approx(1.0)

    def test_iou_disjoint(self):
        assert BoundingBox(0, 0, 5, 5).iou(BoundingBox(100, 100, 5, 5)) == 0.0

    def test_clamp(self):
        clamped = BoundingBox(-10, -10, 30, 30).clamp(100, 100)
        assert clamped == BoundingBox(0, 0, 20, 20)

    def test_interpolate_boxes_endpoints(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(100, 50, 20, 20)
        assert interpolate_boxes(a, b, 0.0) == a
        assert interpolate_boxes(a, b, 1.0) == b
        mid = interpolate_boxes(a, b, 0.5)
        assert mid.x == pytest.approx(50)

    @given(boxes(), boxes())
    def test_iou_symmetric_and_bounded(self, a, b):
        iou_ab = a.iou(b)
        iou_ba = b.iou(a)
        assert iou_ab == pytest.approx(iou_ba, abs=1e-9)
        assert 0.0 <= iou_ab <= 1.0 + 1e-9

    @given(boxes())
    def test_self_iou_is_one(self, box):
        assert box.iou(box) == pytest.approx(1.0)

    @given(boxes(), boxes())
    def test_intersection_area_not_larger_than_either(self, a, b):
        overlap = a.intersection_area(b)
        assert overlap <= a.area + 1e-9
        assert overlap <= b.area + 1e-9


class TestGridSpec:
    def test_dimensions(self):
        grid = GridSpec(frame_width=100, frame_height=60, cell_width=10, cell_height=10)
        assert grid.columns == 10
        assert grid.rows == 6
        assert grid.num_cells == 60

    def test_cell_box_round_trip(self):
        grid = GridSpec(frame_width=100, frame_height=100, cell_width=25, cell_height=25)
        box = grid.cell_box(5)
        assert box == BoundingBox(25, 25, 25, 25)

    def test_cell_index_out_of_range(self):
        grid = GridSpec(frame_width=100, frame_height=100, cell_width=50, cell_height=50)
        with pytest.raises(IndexError):
            grid.cell_box(100)
        with pytest.raises(IndexError):
            grid.cell_index(5, 0)

    def test_cells_covering_single_cell(self):
        grid = GridSpec(frame_width=100, frame_height=100, cell_width=10, cell_height=10)
        covered = grid.cells_covering(BoundingBox(12, 12, 5, 5))
        assert covered == [grid.cell_index(1, 1)]

    def test_cells_covering_spanning_box(self):
        grid = GridSpec(frame_width=100, frame_height=100, cell_width=10, cell_height=10)
        covered = grid.cells_covering(BoundingBox(5, 5, 20, 20))
        assert len(covered) == 9

    def test_cells_covering_excludes_cells_it_only_touches(self):
        grid = GridSpec(frame_width=100, frame_height=100, cell_width=10, cell_height=10)
        # A box flush with one cell shares only edges with its neighbours.
        assert grid.cells_covering(BoundingBox(10, 10, 10, 10)) == [grid.cell_index(1, 1)]
        # Any positive overlap counts, however small.
        covered = grid.cells_covering(BoundingBox(9.5, 10, 10, 10))
        assert covered == [grid.cell_index(1, 0), grid.cell_index(1, 1)]

    def test_cells_covering_outside_frame(self):
        grid = GridSpec(frame_width=100, frame_height=100, cell_width=10, cell_height=10)
        assert grid.cells_covering(BoundingBox(200, 200, 10, 10)) == []

    def test_cell_boxes_tile_the_frame(self):
        grid = GridSpec(frame_width=25, frame_height=20, cell_width=10, cell_height=10)
        boxes = [grid.cell_box(index) for index in range(grid.num_cells)]
        assert len(boxes) == 6
        assert sum(box.width * box.height for box in boxes) == 25 * 20
