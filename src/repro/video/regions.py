"""Spatial splitting into regions (Section 7.2).

The video owner defines a region scheme at camera-registration time: a set of
named regions with either *soft* boundaries (objects may move between regions
over time, e.g. two crosswalks) or *hard* boundaries (objects never cross,
e.g. opposite directions of a highway).  At query time the analyst can split
each temporal chunk further by region; with soft boundaries the chunk size is
restricted to a single frame so that an object can be present in at most one
(chunk, region) cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.errors import RegionError
from repro.video.geometry import BoundingBox, Point


class BoundaryType(str, Enum):
    """Whether objects can cross between regions of a scheme over time."""

    SOFT = "soft"
    HARD = "hard"


@dataclass(frozen=True)
class Region:
    """A named spatial region of the frame."""

    name: str
    box: BoundingBox

    def contains(self, point: Point) -> bool:
        """True if the point lies inside the region."""
        return self.box.contains_point(point)

    def contains_points(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`contains` over coordinate arrays (edges inclusive)."""
        box = self.box
        return ((box.x <= xs) & (xs <= box.x2)
                & (box.y <= ys) & (ys <= box.y2))


@dataclass(frozen=True)
class RegionScheme:
    """A named partition of the frame into regions with a boundary type."""

    name: str
    regions: tuple[Region, ...]
    boundary: BoundaryType = BoundaryType.SOFT

    def __post_init__(self) -> None:
        if not self.regions:
            raise RegionError("a region scheme needs at least one region")
        names = [region.name for region in self.regions]
        if len(names) != len(set(names)):
            raise RegionError("region names within a scheme must be unique")

    def region_of(self, box: BoundingBox) -> Region | None:
        """Region containing the center of ``box``, or None if outside all regions."""
        center = box.center
        for region in self.regions:
            if region.contains(center):
                return region
        return None

    def validate_chunk_size(self, chunk_duration: float, frame_period: float) -> None:
        """Enforce the soft-boundary restriction of Section 7.2.

        Soft boundaries require a chunk size of a single frame so that an
        individual can occupy at most one (chunk, region) cell; hard
        boundaries impose no restriction.
        """
        if self.boundary is BoundaryType.HARD:
            return
        if chunk_duration > frame_period + 1e-9:
            raise RegionError(
                "region schemes with soft boundaries require a chunk size of one frame "
                f"(chunk duration {chunk_duration}s exceeds frame period {frame_period}s)")
