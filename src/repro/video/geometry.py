"""2D geometry primitives for frames: points, bounding boxes, grids.

Coordinates are expressed in pixels with the origin at the top-left corner of
the frame, x increasing to the right and y increasing downwards, matching the
convention of the computer-vision libraries the paper uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils import checks


@dataclass(frozen=True)
class Point:
    """A point in frame coordinates."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to another point."""
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """An axis-aligned box described by its top-left corner, width and height.

    Slotted: boxes are materialised in bulk at columnar-pipeline API
    boundaries (detections, track endpoints), so each instance must be cheap.
    """

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if not (self.width >= 0 and self.height >= 0):  # NaN fails both
            raise ValueError("bounding box dimensions must be non-negative, not "
                             f"{self.width!r} x {self.height!r}")

    def __getstate__(self) -> tuple[float, float, float, float]:
        # Explicit state hooks: default slot-state pickling restores via
        # setattr, which a frozen dataclass forbids on Python 3.10.
        return (self.x, self.y, self.width, self.height)

    def __setstate__(self, state: tuple[float, float, float, float]) -> None:
        for name, value in zip(("x", "y", "width", "height"), state):
            object.__setattr__(self, name, value)

    @property
    def x2(self) -> float:
        """Right edge (exclusive)."""
        return self.x + self.width

    @property
    def y2(self) -> float:
        """Bottom edge (exclusive)."""
        return self.y + self.height

    @property
    def area(self) -> float:
        """Box area in square pixels."""
        return self.width * self.height

    @property
    def center(self) -> Point:
        """Center point of the box."""
        return Point(self.x + self.width / 2.0, self.y + self.height / 2.0)

    def contains_point(self, point: Point) -> bool:
        """Return True if the point lies inside the box (edges inclusive)."""
        return self.x <= point.x <= self.x2 and self.y <= point.y <= self.y2

    def intersection(self, other: "BoundingBox") -> "BoundingBox | None":
        """Return the overlapping box, or None if the boxes are disjoint."""
        left = max(self.x, other.x)
        top = max(self.y, other.y)
        right = min(self.x2, other.x2)
        bottom = min(self.y2, other.y2)
        if right <= left or bottom <= top:
            return None
        return BoundingBox(left, top, right - left, bottom - top)

    def intersection_area(self, other: "BoundingBox") -> float:
        """Area of overlap with another box (0 if disjoint)."""
        overlap = self.intersection(other)
        return 0.0 if overlap is None else overlap.area

    def iou(self, other: "BoundingBox") -> float:
        """Intersection-over-union with another box, in [0, 1]."""
        overlap_area = self.intersection_area(other)
        union_area = self.area + other.area - overlap_area
        if union_area <= 0:
            return 0.0
        return overlap_area / union_area

    def clamp(self, width: float, height: float) -> "BoundingBox":
        """Return the portion of this box inside a ``width`` x ``height`` frame."""
        left = min(max(self.x, 0.0), width)
        top = min(max(self.y, 0.0), height)
        right = min(max(self.x2, 0.0), width)
        bottom = min(max(self.y2, 0.0), height)
        return BoundingBox(left, top, max(0.0, right - left), max(0.0, bottom - top))


def interpolate_boxes(start: BoundingBox, end: BoundingBox, fraction: float) -> BoundingBox:
    """Linearly interpolate between two boxes; ``fraction`` in [0, 1]."""
    fraction = min(1.0, max(0.0, fraction))
    return BoundingBox(
        start.x + (end.x - start.x) * fraction,
        start.y + (end.y - start.y) * fraction,
        start.width + (end.width - start.width) * fraction,
        start.height + (end.height - start.height) * fraction,
    )


@dataclass(frozen=True)
class GridSpec:
    """A regular grid dividing a frame into equal cells.

    Appendix F's mask-selection algorithm works over a grid of 10x10-pixel
    boxes; the grid here is parameterised by cell size so tests can use
    coarser grids.
    """

    frame_width: float
    frame_height: float
    cell_width: float
    cell_height: float

    def __post_init__(self) -> None:
        for name in ("frame_width", "frame_height", "cell_width", "cell_height"):
            checks.real(name, getattr(self, name), ValueError, above=0)

    @property
    def columns(self) -> int:
        """Number of grid columns."""
        return int(math.ceil(self.frame_width / self.cell_width))

    @property
    def rows(self) -> int:
        """Number of grid rows."""
        return int(math.ceil(self.frame_height / self.cell_height))

    @property
    def num_cells(self) -> int:
        """Total number of cells in the grid."""
        return self.columns * self.rows

    def cell_index(self, row: int, column: int) -> int:
        """Flattened index of the cell at (row, column)."""
        if not (0 <= row < self.rows and 0 <= column < self.columns):
            raise IndexError(f"cell ({row}, {column}) outside grid {self.rows}x{self.columns}")
        return row * self.columns + column

    def cell_box(self, index: int) -> BoundingBox:
        """Bounding box of the cell with flattened index ``index``."""
        if not (0 <= index < self.num_cells):
            raise IndexError(f"cell index {index} outside grid of {self.num_cells} cells")
        row, column = divmod(index, self.columns)
        return BoundingBox(
            column * self.cell_width,
            row * self.cell_height,
            min(self.cell_width, self.frame_width - column * self.cell_width),
            min(self.cell_height, self.frame_height - row * self.cell_height),
        )

    def cells_covering(self, box: BoundingBox) -> list[int]:
        """Indices of the cells that strictly overlap ``box`` (positive
        intersection area)."""
        clamped = box.clamp(self.frame_width, self.frame_height)
        if clamped.area <= 0:
            return []
        first_col = int(clamped.x // self.cell_width)
        last_col = min(self.columns - 1, int(max(clamped.x, clamped.x2 - 1e-9) // self.cell_width))
        first_row = int(clamped.y // self.cell_height)
        last_row = min(self.rows - 1, int(max(clamped.y, clamped.y2 - 1e-9) // self.cell_height))
        covered: list[int] = []
        for row in range(first_row, last_row + 1):
            for column in range(first_col, last_col + 1):
                index = self.cell_index(row, column)
                if clamped.intersection_area(self.cell_box(index)) > 0.0:
                    covered.append(index)
        return covered
