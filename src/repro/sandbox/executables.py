"""Library of analyst PROCESS executables used by the evaluation queries.

In the real system these would be arbitrary binaries shipping their own CNN
models; here they are small Python classes implementing the same *logic*
(detect, track within the chunk, emit rows) on top of the synthetic detector
and tracker.  Privid does not trust any of them: the sandbox coerces and
truncates whatever they return.

Each executable documents which evaluation queries it serves.
"""

from __future__ import annotations

import copy
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Iterable

from repro.cv.detector import DetectionBatch
from repro.cv.tracker import IoUTracker, Track, TrackView
from repro.relational.table import RowBatch
from repro.sandbox.environment import ExecutionContext
from repro.video.chunking import Chunk

#: Scalar field types whose values a shallow copy shares safely — an
#: executable whose configuration is made only of these needs no deep copy
#: per chunk.  Tuples are checked recursively (a tuple can hold a mutable);
#: frozensets only admit hashable — hence effectively immutable — elements.
_IMMUTABLE_FIELD_TYPES = (type(None), bool, int, float, str, bytes, frozenset)


def _is_immutable_config_value(value: Any) -> bool:
    """True if sharing ``value`` across executable instances is safe."""
    if isinstance(value, _IMMUTABLE_FIELD_TYPES):
        return True
    if isinstance(value, tuple):
        return all(_is_immutable_config_value(item) for item in value)
    return False


class ProcessExecutable(ABC):
    """Interface every PROCESS executable implements.

    ``process`` receives one chunk and the chunk-independent context and
    returns its output rows — either a list of row dictionaries or a
    columnar :class:`~repro.relational.table.RowBatch` (the batch emission
    path; the sandbox coerces both identically).  Implementations must not
    keep state across calls (the sandbox runs a fresh instance per chunk to
    make cross-chunk state ineffective even if attempted).
    """

    name: str = "executable"

    @abstractmethod
    def process(self, chunk: Chunk, context: ExecutionContext
                ) -> "list[dict[str, Any]] | RowBatch":
        """Produce output rows for one chunk."""

    def fresh_instance(self) -> "ProcessExecutable":
        """A pristine copy of this executable for one chunk's isolated run.

        The registered executable acts as a factory: each chunk is processed
        by an instance carrying only the registered configuration, never state
        accumulated by a previous chunk.  Dataclass executables whose fields
        are all immutable values take a shallow copy (a deep copy per chunk
        costs more than small-chunk processing itself); anything with
        mutable configuration falls back to the always-correct deep copy.
        Implementations with expensive immutable assets (e.g. model weights)
        may override this to share them across instances.
        """
        shallow = getattr(self, "_fresh_shallow", None)
        if shallow is None:
            shallow = is_dataclass(self) and all(
                _is_immutable_config_value(getattr(self, spec.name))
                for spec in fields(self))
            try:
                # Memoized on the registered instance: its configuration is
                # fixed once registered (rebinding a field to a mutable value
                # afterwards is unsupported).
                object.__setattr__(self, "_fresh_shallow", shallow)
            except AttributeError:
                pass
        if shallow:
            return copy.copy(self)
        return copy.deepcopy(self)

    def __getstate__(self) -> dict[str, Any]:
        """Pickle/copy state without ``fresh_instance``'s memo (no history in the bytes)."""
        return {name: value for name, value in vars(self).items()
                if name != "_fresh_shallow"}

    def config_fingerprint(self) -> Any:
        """A stable description of this executable's configuration.

        Used by :class:`~repro.core.cache.ChunkResultCache` to key memoized
        chunk outputs.  Dataclass executables fingerprint their fields; other
        implementations should override this if ``repr`` is not stable.
        """
        if is_dataclass(self):
            return (type(self).__name__,
                    tuple((spec.name, getattr(self, spec.name)) for spec in fields(self)))
        return (type(self).__name__, repr(self))


def _detect_chunk(chunk: Chunk, context: ExecutionContext, *,
                  categories: Iterable[str] | None = None,
                  attributes: Iterable[str] | None = None,
                  max_frames: int | None = None) -> DetectionBatch:
    """Render and detect a single chunk (the common preamble), reading only
    what the executable declares (``None``: everything): no object class
    outside ``categories`` is rendered, masked or region-tested, no attribute
    outside ``attributes`` is drawn — an undeclared one reads as absent."""
    return context.detector().detect_batch(
        chunk.frame_batch(max_frames=max_frames, categories=categories),
        frame_width=chunk.video.width, frame_height=chunk.video.height,
        categories=categories, attributes=attributes)


def _track_chunk(chunk: Chunk, context: ExecutionContext, **declared: Any) -> list[TrackView]:
    """:func:`_detect_chunk`, then track within the chunk: tracks come back as
    cheap :class:`~repro.cv.tracker.TrackView` columns, with Python objects
    materialised only for the two boxes an executable actually reads."""
    tracker = IoUTracker(context.tracker_config)
    tracker.step_batch(_detect_chunk(chunk, context, **declared))
    return tracker.finalize_views()


@dataclass
class EnteringObjectCounter(ProcessExecutable):
    """One row per object that *enters* the scene during the chunk.

    Used by Q1-Q3 (counting unique people/cars per hour).  Objects already
    visible at the start of the chunk are skipped so that each appearance
    contributes a single row across the whole query window (Section 6.2,
    "Interface limitations").  ``entry_margin_frames`` tolerates detector
    misses in the first frames of a chunk.
    """

    category: str = "person"
    entry_margin_frames: int = 2
    include_first_chunk: bool = True
    name: str = "entering_object_counter"

    def process(self, chunk: Chunk, context: ExecutionContext) -> RowBatch:
        tracks = _track_chunk(chunk, context, categories={self.category}, attributes=())
        margin = self.entry_margin_frames / context.fps
        threshold = chunk.interval.start + margin
        always = self.include_first_chunk and chunk.index == 0
        entered_ats: list[float] = []
        dxs: list[float] = []
        dys: list[float] = []
        for track in tracks:
            first_timestamp = track.first_timestamp
            if first_timestamp > threshold or always:
                first_center = track.first_box.center
                last_center = track.last_box.center
                entered_ats.append(first_timestamp)
                dxs.append(last_center.x - first_center.x)
                dys.append(last_center.y - first_center.y)
        return RowBatch(len(entered_ats), {
            "kind": [self.category] * len(entered_ats),
            "entered_at": entered_ats,
            "dx": dxs,
            "dy": dys,
        })


@dataclass
class UniqueVehicleReporter(ProcessExecutable):
    """One row per vehicle tracked in the chunk, with plate, colour and speed.

    Mirrors the ``model.py`` of Listing 1: the plate column enables the
    ``GROUP BY plate`` deduplication, and speed is estimated from the track's
    displacement using the owner-provided metres-per-pixel metadata.
    """

    category: str = "car"
    name: str = "unique_vehicle_reporter"

    def process(self, chunk: Chunk, context: ExecutionContext) -> RowBatch:
        tracks = _track_chunk(chunk, context, categories={self.category, "taxi"},
                              attributes=("speed_kmh", "plate", "color"))
        meters_per_pixel = float(context.metadata.get("meters_per_pixel", 0.1))
        plates: list[Any] = []
        colors: list[Any] = []
        speeds: list[Any] = []
        for track in tracks:
            attribute_speed = track.majority_attribute("speed_kmh")
            if attribute_speed is None:
                duration = max(track.duration, 1.0 / context.fps)
                first_center = track.first_box.center
                last_center = track.last_box.center
                displacement = first_center.distance_to(last_center)
                attribute_speed = displacement * meters_per_pixel / duration * 3.6
            plates.append(track.majority_attribute("plate", default=""))
            colors.append(track.majority_attribute("color", default=""))
            speeds.append(attribute_speed)
        return RowBatch(len(plates), {"plate": plates, "color": colors, "speed": speeds})


@dataclass
class TreeLeafClassifier(ProcessExecutable):
    """One row per detected tree stating whether it currently has leaves.

    Used by Q7-Q9 (fraction of trees with leaves); designed for single-frame
    chunks, where each detected tree contributes one row.
    """

    name: str = "tree_leaf_classifier"

    def process(self, chunk: Chunk, context: ExecutionContext) -> RowBatch:
        # single-frame semantics even if the chunk holds more frames
        detections = _detect_chunk(chunk, context, categories={"tree"},
                                   attributes=("has_leaves",), max_frames=1)
        column = detections.attributes.get("has_leaves")
        values: list[float] = []
        if column is not None:
            present, observed = column
            for index in present.nonzero()[0].tolist():
                value = observed[index]
                if value is None:
                    continue
                values.append(100.0 if value else 0.0)
        return RowBatch(len(values), {"has_leaves": values})


@dataclass
class RedLightObserver(ProcessExecutable):
    """One row per *completed* red phase observed within the chunk.

    Used by Q10-Q12 (average red-light duration).  The executable watches the
    traffic light's observed state frame by frame and emits the length of
    every red interval that both starts and ends inside the chunk, so a phase
    spanning a chunk boundary is simply not reported (rather than reported
    twice).
    """

    name: str = "red_light_observer"

    def process(self, chunk: Chunk, context: ExecutionContext) -> RowBatch:
        detections = _detect_chunk(chunk, context, categories={"traffic_light"},
                                   attributes=("light_state",))
        # Only each frame's *first* detection is consulted, mirroring the
        # per-frame loop's early break.
        transitions: list[tuple[float, str]] = []
        column = detections.attributes.get("light_state")
        if column is not None:
            present, observed = column
            _, first_indices = detections.first_index_per_frame()
            timestamps = detections.timestamps
            for index in first_indices.tolist():
                if present[index]:
                    transitions.append((float(timestamps[index]),
                                        str(observed[index])))
        durations: list[float] = []
        red_started: float | None = None
        saw_green_before = False
        for timestamp, state in transitions:
            if state == "RED":
                if red_started is None and saw_green_before:
                    red_started = timestamp
            else:
                saw_green_before = True
                if red_started is not None:
                    durations.append(timestamp - red_started)
                    red_started = None
        return RowBatch(len(durations), {"red_duration": durations})


@dataclass
class DirectionalCrossingCounter(ProcessExecutable):
    """One row per person entering during the chunk and moving in a direction.

    Used by Q13 (count people whose trajectory heads towards campus, i.e.
    enters from the south and exits to the north).  Requires chunks long
    enough to contain most of a crossing so the direction is observable —
    the "stateful query" case of the evaluation.
    """

    category: str = "person"
    direction: str = "north"
    min_displacement: float = 120.0
    entry_margin_frames: int = 2
    name: str = "directional_crossing_counter"

    def _moves_in_direction(self, track: Track | TrackView) -> bool:
        dx = track.last_box.center.x - track.first_box.center.x
        dy = track.last_box.center.y - track.first_box.center.y
        if self.direction == "north":
            return dy <= -self.min_displacement
        if self.direction == "south":
            return dy >= self.min_displacement
        if self.direction == "east":
            return dx >= self.min_displacement
        return dx <= -self.min_displacement

    def process(self, chunk: Chunk, context: ExecutionContext) -> RowBatch:
        tracks = _track_chunk(chunk, context, categories={self.category}, attributes=())
        margin = self.entry_margin_frames / context.fps
        threshold = chunk.interval.start + margin
        entered_ats: list[float] = []
        for track in tracks:
            entered = track.first_timestamp > threshold or chunk.index == 0
            if entered and self._moves_in_direction(track):
                entered_ats.append(track.first_timestamp)
        return RowBatch(len(entered_ats), {
            "matched": [1.0] * len(entered_ats),
            "entered_at": entered_ats,
        })


@dataclass
class TaxiSightingReporter(ProcessExecutable):
    """One row per taxi visible during the chunk (Porto queries Q4-Q6).

    The Porto footage is a coarse sightings log rather than dense frames, so
    the executable uses the chunk's object-visibility fast path; each row
    carries the plate (taxi id) and the camera name so multi-camera SELECTs
    can union and join tables.
    """

    name: str = "taxi_sighting_reporter"

    def process(self, chunk: Chunk, context: ExecutionContext) -> RowBatch:
        plates: list[Any] = []
        visible_seconds: list[float] = []
        for scene_object, overlap in chunk.visible_objects():
            if scene_object.category != "taxi":
                continue
            plates.append(scene_object.attributes.get("plate", ""))
            visible_seconds.append(overlap.duration)
        return RowBatch(len(plates), {
            "plate": plates,
            "camera": [context.camera] * len(plates),
            "visible_seconds": visible_seconds,
        })


@dataclass
class CrashingExecutable(ProcessExecutable):
    """Always raises — used to test that the sandbox substitutes default rows."""

    name: str = "crashing_executable"

    def process(self, chunk: Chunk, context: ExecutionContext) -> list[dict[str, Any]]:
        raise RuntimeError("intentional crash")


@dataclass
class SlowExecutable(ProcessExecutable):
    """Exceeds its declared runtime — used to test TIMEOUT enforcement.

    ``simulated_runtime`` lets tests exercise the timeout path without
    actually sleeping; ``real_sleep`` performs a genuine wall-clock sleep.
    """

    simulated_runtime: float = 10.0
    real_sleep: float = 0.0
    name: str = "slow_executable"

    def process(self, chunk: Chunk, context: ExecutionContext) -> list[dict[str, Any]]:
        if self.real_sleep > 0:
            time.sleep(self.real_sleep)
        return [{"value": 1.0}]


@dataclass
class RowFloodExecutable(ProcessExecutable):
    """Outputs far more rows than allowed — used to test max_rows truncation."""

    rows_to_emit: int = 1000
    name: str = "row_flood_executable"

    def process(self, chunk: Chunk, context: ExecutionContext) -> list[dict[str, Any]]:
        return [{"value": float(index)} for index in range(self.rows_to_emit)]


@dataclass
class ConstantExecutable(ProcessExecutable):
    """Outputs a fixed set of rows regardless of the chunk — used in tests."""

    rows: list[dict[str, Any]] = field(default_factory=lambda: [{"value": 1.0}])
    name: str = "constant_executable"

    def process(self, chunk: Chunk, context: ExecutionContext) -> list[dict[str, Any]]:
        return [dict(row) for row in self.rows]
