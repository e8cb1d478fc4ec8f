"""Static spatial masks (Section 7.1).

A mask is a fixed set of frame regions whose pixels are removed (blacked out)
before the analyst's executable sees the video.  In this reproduction a mask
is a collection of boxes (typically grid cells); an object is considered
hidden by the mask in a frame when a sufficient fraction of its bounding box
is covered by masked area.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.errors import MaskError
from repro.utils import checks
from repro.video.geometry import BoundingBox, GridSpec

#: Fraction of an object's box that must be covered by masked pixels for the
#: object to be treated as invisible in that frame.  Real denaturing blacks
#: out pixels; a detector generally fails once most of the object is gone.
DEFAULT_HIDE_THRESHOLD = 0.5


@dataclass(frozen=True)
class Mask:
    """A named, static set of masked regions for one camera."""

    name: str
    regions: tuple[BoundingBox, ...] = field(default_factory=tuple)
    hide_threshold: float = DEFAULT_HIDE_THRESHOLD

    def __post_init__(self) -> None:
        if checks.probability("hide_threshold", self.hide_threshold, MaskError) == 0:
            raise MaskError("hide_threshold 0 would hide every box, masked or not")

    @property
    def is_empty(self) -> bool:
        """True if the mask removes nothing."""
        return len(self.regions) == 0

    def covered_fraction(self, box: BoundingBox) -> float:
        """Fraction of ``box`` covered by masked regions (regions assumed disjoint)."""
        if box.area <= 0:
            return 0.0
        covered = sum(box.intersection_area(region) for region in self.regions)
        return min(1.0, covered / box.area)

    def hides(self, box: BoundingBox) -> bool:
        """True if an object with bounding box ``box`` is hidden by this mask."""
        if self.is_empty:
            return False
        return self.covered_fraction(box) >= self.hide_threshold

    def covered_fractions(self, boxes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`covered_fraction` over an ``(n, 4)`` box array.

        Rows are ``[x, y, width, height]``.  The intersection-area math
        mirrors the scalar path operation-for-operation (same region order,
        same left-to-right accumulation), so both produce identical floats.
        Each axis of a region's overlap is clamped at zero: a disjoint axis
        makes the product zero, as the scalar path's zero area.
        """
        boxes = np.asarray(boxes, dtype=np.float64)
        count = boxes.shape[0]
        fractions = np.zeros(count, dtype=np.float64)
        if count == 0 or self.is_empty:
            return fractions
        x1 = boxes[:, 0]
        y1 = boxes[:, 1]
        x2 = x1 + boxes[:, 2]
        y2 = y1 + boxes[:, 3]
        areas = boxes[:, 2] * boxes[:, 3]
        covered = np.zeros(count, dtype=np.float64)
        for region in self.regions:
            width = np.minimum(x2, region.x2)
            width -= np.maximum(x1, region.x)
            height = np.minimum(y2, region.y2)
            height -= np.maximum(y1, region.y)
            np.maximum(width, 0.0, out=width)
            np.maximum(height, 0.0, out=height)
            width *= height
            covered += width
        np.divide(covered, areas, out=fractions, where=areas > 0)
        return np.minimum(fractions, 1.0, out=fractions)

    def hides_boxes(self, boxes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`hides` over an ``(n, 4)`` box array."""
        boxes = np.asarray(boxes, dtype=np.float64)
        if self.is_empty:
            return np.zeros(boxes.shape[0], dtype=bool)
        return self.covered_fractions(boxes) >= self.hide_threshold

    def union(self, other: "Mask", *, name: str | None = None) -> "Mask":
        """Return a mask combining both sets of regions."""
        return Mask(name=name or f"{self.name}+{other.name}",
                    regions=self.regions + other.regions,
                    hide_threshold=min(self.hide_threshold, other.hide_threshold))


EMPTY_MASK = Mask(name="none", regions=())


def mask_from_grid_cells(grid: GridSpec, cell_indices: Iterable[int], *,
                         name: str = "grid-mask",
                         hide_threshold: float = DEFAULT_HIDE_THRESHOLD) -> Mask:
    """Build a mask from a set of grid-cell indices (Appendix F style)."""
    regions = tuple(grid.cell_box(index) for index in sorted(set(cell_indices)))
    return Mask(name=name, regions=regions, hide_threshold=hide_threshold)


def mask_everything_except(frame_width: float, frame_height: float,
                           keep: Sequence[BoundingBox], *, name: str = "keep-only") -> Mask:
    """Mask the entire frame except the given boxes.

    Used by the red-light queries (Case 4), which mask everything but the
    traffic light so that no private object remains visible (rho = 0).  The
    mask is represented as the four rectangles surrounding each kept box's
    union; for the common case of a single kept box this is exact.
    """
    if not keep:
        return Mask(name=name, regions=(BoundingBox(0, 0, frame_width, frame_height),))
    left = min(box.x for box in keep)
    top = min(box.y for box in keep)
    right = max(box.x2 for box in keep)
    bottom = max(box.y2 for box in keep)
    regions = []
    if left > 0:
        regions.append(BoundingBox(0, 0, left, frame_height))
    if right < frame_width:
        regions.append(BoundingBox(right, 0, frame_width - right, frame_height))
    if top > 0:
        regions.append(BoundingBox(left, 0, right - left, top))
    if bottom < frame_height:
        regions.append(BoundingBox(left, bottom, right - left, frame_height - bottom))
    return Mask(name=name, regions=tuple(regions))
