"""Ground-truth scene objects and their appearances.

An *appearance* is one contiguous visibility segment of an object, matching
the paper's definition of an event as a set of at most K video segments, each
of duration at most rho (Definition 5.1).  A :class:`SceneObject` groups one
or more appearances of the same real-world entity together with its
attributes (class, colour, licence plate, entry/exit side, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.scene.schedules import AttributeSchedule
from repro.scene.trajectory import LinearTrajectory, StationaryTrajectory, Trajectory
from repro.utils.timebase import TimeInterval
from repro.video.geometry import BoundingBox

#: Object categories the paper treats as private (individually identifying).
PRIVATE_CATEGORIES = frozenset({"person", "car", "taxi", "bike"})


@dataclass(frozen=True)
class Appearance:
    """One contiguous visibility segment of an object.

    ``trajectory`` is evaluated with time measured from ``interval.start``.
    It is a :class:`~repro.scene.trajectory.StationaryTrajectory` or a
    :class:`~repro.scene.trajectory.LinearTrajectory`, exactly: those are the
    kinds the render's appearance table evaluates, so any other type
    (a subclass included) is a ``TypeError`` here.
    """

    interval: TimeInterval
    trajectory: Trajectory

    def __post_init__(self) -> None:
        if type(self.trajectory) not in (StationaryTrajectory, LinearTrajectory):
            raise TypeError(f"an appearance's trajectory must be a StationaryTrajectory or a "
                            f"LinearTrajectory, not {type(self.trajectory).__qualname__}")

    @property
    def duration(self) -> float:
        """Length of the appearance in seconds."""
        return self.interval.duration

    def visible_at(self, timestamp: float) -> bool:
        """Return True if the appearance covers ``timestamp``."""
        return self.interval.contains(timestamp)

    def box_at(self, timestamp: float) -> BoundingBox | None:
        """Bounding box at ``timestamp``, or None if not visible then."""
        if not self.visible_at(timestamp):
            return None
        return self.trajectory.box_at(timestamp - self.interval.start)


@dataclass
class SceneObject:
    """A ground-truth entity visible to the camera across one or more appearances."""

    object_id: str
    category: str
    appearances: list[Appearance] = field(default_factory=list)
    attributes: dict[str, Any] = field(default_factory=dict)
    dynamic_attributes: dict[str, AttributeSchedule] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, schedule in self.dynamic_attributes.items():
            if not isinstance(schedule, AttributeSchedule):
                raise TypeError(f"dynamic attribute {key!r} of {self.object_id!r} must be "
                                f"an AttributeSchedule, not {schedule!r}")

    def attributes_at(self, timestamp: float) -> dict[str, Any]:
        """Static attributes merged with time-varying ones evaluated at ``timestamp``.

        Dynamic attributes model observable state that changes over time (for
        example a traffic light's current colour); a real detector would read
        this from pixels.  Each is a declarative
        :class:`~repro.scene.schedules.AttributeSchedule` (picklable,
        batch-evaluable).
        """
        if not self.dynamic_attributes:
            return dict(self.attributes)
        merged = dict(self.attributes)
        for key, schedule in self.dynamic_attributes.items():
            merged[key] = schedule.value_at(timestamp)
        return merged

    def attribute_keys(self) -> list[str]:
        """Attribute names in the order :meth:`attributes_at` produces them.

        Static keys first (a dynamic attribute overriding a static one keeps
        the static position, matching dict-merge order), then dynamic-only
        keys.  The batched detector allocates one draw stream per entry of
        this list, and :meth:`attribute_series` evaluates in the same order,
        so the two stay aligned by construction.
        """
        keys = list(self.attributes)
        keys.extend(key for key in self.dynamic_attributes if key not in self.attributes)
        return keys

    def attribute_series(self, timestamps: np.ndarray, keys: Sequence[str] | None = None
                         ) -> list[tuple[str, Any, list[Any] | None]]:
        """Attribute values evaluated for a whole batch of timestamps.

        Returns ``(key, constant_value, per_frame_values)`` triples in the
        order of ``keys`` (default :meth:`attribute_keys`, of which it must
        be a selection); ``per_frame_values`` is ``None`` for
        static attributes (the constant applies to every frame).  Schedules
        evaluate the batch in one vectorized call.
        """
        dynamic = self.dynamic_attributes
        series: list[tuple[str, Any, list[Any] | None]] = []
        for key in self.attribute_keys() if keys is None else keys:
            if key in dynamic:
                series.append((key, None, list(dynamic[key].values_at(timestamps))))
            else:
                series.append((key, self.attributes[key], None))
        return series

    @property
    def is_private(self) -> bool:
        """True if the object belongs to a category the paper considers private."""
        return self.category in PRIVATE_CATEGORIES

    @property
    def num_appearances(self) -> int:
        """K for this object: the number of visibility segments."""
        return len(self.appearances)

    @property
    def max_appearance_duration(self) -> float:
        """rho for this object: the longest single visibility segment, in seconds."""
        if not self.appearances:
            return 0.0
        return max(appearance.duration for appearance in self.appearances)

    def box_at(self, timestamp: float) -> BoundingBox | None:
        """Bounding box at ``timestamp``, or None if not visible then."""
        for appearance in self.appearances:
            box = appearance.box_at(timestamp)
            if box is not None:
                return box
        return None

    def appearances_within(self, window: TimeInterval) -> list[Appearance]:
        """Appearances that overlap the given window."""
        return [appearance for appearance in self.appearances
                if appearance.interval.overlaps(window)]

    def is_bounded_by(self, rho: float, num_segments: int) -> bool:
        """Return True if the object's visibility is (rho, K)-bounded.

        This is the ground-truth check of Definition 5.1: the object has at
        most ``num_segments`` appearances and each lasts at most ``rho``
        seconds.
        """
        if self.num_appearances > num_segments:
            return False
        return all(appearance.duration <= rho for appearance in self.appearances)

    def tightest_bound(self) -> tuple[float, int]:
        """Return the tightest (rho, K) bound covering this object."""
        return self.max_appearance_duration, self.num_appearances


def max_duration_of(objects: Iterable[SceneObject], *, categories: Iterable[str] | None = None) -> float:
    """Ground-truth maximum single-appearance duration across objects.

    ``categories`` restricts the computation to the given object classes; by
    default only private categories are considered, matching the paper's goal
    of protecting individuals and vehicles.
    """
    allowed = frozenset(categories) if categories is not None else PRIVATE_CATEGORIES
    durations = [scene_object.max_appearance_duration for scene_object in objects
                 if scene_object.category in allowed]
    return max(durations, default=0.0)


def max_appearance_count_of(objects: Iterable[SceneObject], *,
                            categories: Iterable[str] | None = None) -> int:
    """Ground-truth maximum number of appearances (K) across objects."""
    allowed = frozenset(categories) if categories is not None else PRIVATE_CATEGORIES
    counts = [scene_object.num_appearances for scene_object in objects
              if scene_object.category in allowed]
    return max(counts, default=0)
