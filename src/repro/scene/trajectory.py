"""Trajectories describe where an object is within the frame over time.

A trajectory maps a timestamp (relative to the start of the *appearance* it
belongs to) to a bounding box.  Trajectories are purely geometric: visibility
windows are handled by :class:`repro.scene.objects.Appearance`.

Every trajectory also evaluates a whole *batch* of timestamps at once via
:meth:`Trajectory.boxes_at`: the columnar frame pipeline renders a chunk's
frames as one broadcasted array op per appearance instead of one Python call
per frame.  The vectorized implementations mirror the scalar formulas
operation-for-operation, so both paths produce bit-identical boxes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.video.geometry import BoundingBox, interpolate_boxes


class Trajectory(ABC):
    """Abstract mapping from elapsed time to a bounding box."""

    @abstractmethod
    def box_at(self, elapsed: float) -> BoundingBox:
        """Return the object's bounding box ``elapsed`` seconds into the appearance."""

    @abstractmethod
    def duration_hint(self) -> float | None:
        """Nominal duration the trajectory was designed for, if any."""

    def boxes_at(self, elapsed: np.ndarray) -> np.ndarray:
        """Bounding boxes for a batch of elapsed times as an ``(n, 4)`` array.

        Rows are ``[x, y, width, height]``.  The base implementation falls
        back to per-element :meth:`box_at` so custom trajectories keep
        working; the built-in trajectories override it with broadcasted
        array math.
        """
        elapsed = np.asarray(elapsed, dtype=np.float64)
        out = np.empty((elapsed.size, 4), dtype=np.float64)
        for row, value in enumerate(elapsed.tolist()):
            box = self.box_at(value)
            out[row, 0] = box.x
            out[row, 1] = box.y
            out[row, 2] = box.width
            out[row, 3] = box.height
        return out


@dataclass(frozen=True)
class StationaryTrajectory(Trajectory):
    """An object that does not move (e.g. a parked car, a tree, a traffic light)."""

    box: BoundingBox

    def box_at(self, elapsed: float) -> BoundingBox:
        return self.box

    def boxes_at(self, elapsed: np.ndarray) -> np.ndarray:
        elapsed = np.asarray(elapsed, dtype=np.float64)
        out = np.empty((elapsed.size, 4), dtype=np.float64)
        out[:] = (self.box.x, self.box.y, self.box.width, self.box.height)
        return out

    def duration_hint(self) -> float | None:
        return None


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
        if self.duration <= 0:
            raise ValueError("trajectory duration must be positive")

    def box_at(self, elapsed: float) -> BoundingBox:
        fraction = elapsed / self.duration
        return interpolate_boxes(self.start, self.end, fraction)

    def boxes_at(self, elapsed: np.ndarray) -> np.ndarray:
        elapsed = np.asarray(elapsed, dtype=np.float64)
        # minimum/maximum instead of np.clip: same values, less dispatch.
        fraction = np.minimum(np.maximum(elapsed / self.duration, 0.0), 1.0)
        start = np.array([self.start.x, self.start.y, self.start.width, self.start.height])
        end = np.array([self.end.x, self.end.y, self.end.width, self.end.height])
        # One broadcast multiply-add per batch; elementwise identical to the
        # per-column `start + (end - start) * fraction` arithmetic.
        return start + (end - start) * fraction[:, np.newaxis]

    def duration_hint(self) -> float | None:
        return self.duration

    def speed_pixels_per_second(self) -> float:
        """Speed of the box center in pixels per second."""
        return self.start.center.distance_to(self.end.center) / self.duration


@dataclass(frozen=True)
class WaypointTrajectory(Trajectory):
    """Piecewise-linear motion through a sequence of timed waypoints.

    ``waypoints`` is a sequence of ``(elapsed_seconds, box)`` pairs sorted by
    time; positions between waypoints are linearly interpolated, and positions
    outside the covered range clamp to the first/last waypoint.
    """

    waypoints: tuple[tuple[float, BoundingBox], ...]

    def __init__(self, waypoints: Sequence[tuple[float, BoundingBox]]) -> None:
        ordered = tuple(sorted(waypoints, key=lambda pair: pair[0]))
        if len(ordered) < 2:
            raise ValueError("a waypoint trajectory needs at least two waypoints")
        object.__setattr__(self, "waypoints", ordered)

    def box_at(self, elapsed: float) -> BoundingBox:
        first_time, first_box = self.waypoints[0]
        last_time, last_box = self.waypoints[-1]
        if elapsed <= first_time:
            return first_box
        if elapsed >= last_time:
            return last_box
        for (t0, box0), (t1, box1) in zip(self.waypoints, self.waypoints[1:]):
            if t0 <= elapsed <= t1:
                if t1 == t0:
                    return box1
                return interpolate_boxes(box0, box1, (elapsed - t0) / (t1 - t0))
        return last_box  # unreachable, kept for safety

    def boxes_at(self, elapsed: np.ndarray) -> np.ndarray:
        elapsed = np.asarray(elapsed, dtype=np.float64)
        times = np.array([pair[0] for pair in self.waypoints], dtype=np.float64)
        coords = np.array([[box.x, box.y, box.width, box.height]
                           for _, box in self.waypoints], dtype=np.float64)
        # side='left' selects the segment ending at an exact waypoint time,
        # matching the scalar loop's first `t0 <= elapsed <= t1` pair.
        upper = np.clip(np.searchsorted(times, elapsed, side="left"), 1, len(times) - 1)
        lower = upper - 1
        t0 = times[lower]
        dt = times[upper] - t0
        safe_dt = np.where(dt > 0, dt, 1.0)
        fraction = np.clip((elapsed - t0) / safe_dt, 0.0, 1.0)
        # zero-length segments snap to the segment's end box (scalar: box1).
        fraction = np.where(dt > 0, fraction, 1.0)
        start = coords[lower]
        end = coords[upper]
        out = start + (end - start) * fraction[:, np.newaxis]
        # the scalar path returns boxes *exactly* (no interpolation
        # round-off) for zero-length segments and outside the covered range.
        zero_dt = dt <= 0
        if zero_dt.any():
            out[zero_dt] = end[zero_dt]
        out[elapsed <= times[0]] = coords[0]
        out[elapsed >= times[-1]] = coords[-1]
        return out

    def duration_hint(self) -> float | None:
        return self.waypoints[-1][0] - self.waypoints[0][0]
