"""Trajectories describe where an object is within the frame over time.

A trajectory maps a timestamp (relative to the start of the *appearance* it
belongs to) to a bounding box.  Trajectories are purely geometric: visibility
windows are handled by :class:`repro.scene.objects.Appearance`.

There are exactly two kinds, the ones the scene generators build: a
:class:`StationaryTrajectory` and a :class:`LinearTrajectory`.  The chunk
render evaluates them in bulk from its appearance table
(``repro.video.video._AppearanceTable``), which mirrors :meth:`box_at`
operation for operation, so both give bit-identical boxes; an
:class:`~repro.scene.objects.Appearance` refuses any other trajectory type.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.utils import checks
from repro.video.geometry import BoundingBox, interpolate_boxes


class Trajectory(ABC):
    """Abstract mapping from elapsed time to a bounding box."""

    @abstractmethod
    def box_at(self, elapsed: float) -> BoundingBox:
        """Return the object's bounding box ``elapsed`` seconds into the appearance."""


@dataclass(frozen=True)
class StationaryTrajectory(Trajectory):
    """An object that does not move (e.g. a parked car, a tree, a traffic light)."""

    box: BoundingBox

    def box_at(self, elapsed: float) -> BoundingBox:
        return self.box


@dataclass(frozen=True)
class LinearTrajectory(Trajectory):
    """Constant-velocity motion between a start and end box over ``duration`` seconds.

    Before time zero the object sits at the start box and after ``duration``
    it sits at the end box; appearances normally clip to [0, duration].
    """

    start: BoundingBox
    end: BoundingBox
    duration: float

    def __post_init__(self) -> None:
        checks.real("trajectory duration", self.duration, ValueError, above=0)

    def box_at(self, elapsed: float) -> BoundingBox:
        fraction = elapsed / self.duration
        return interpolate_boxes(self.start, self.end, fraction)
