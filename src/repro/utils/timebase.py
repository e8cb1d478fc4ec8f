"""Time primitives used throughout the library.

All times are expressed in seconds relative to the start of a video (or, for
multi-day datasets such as Porto, relative to the start of the observation
period).  Durations are also in seconds.  Frame indices are integers obtained
by multiplying a time by the video frame rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.utils import checks


SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0


def is_integral_frame_count(seconds: float, fps: float) -> bool:
    """Return True if ``seconds`` is an integer number of frames, within 1e-9
    of a frame."""
    frames = seconds * fps
    return abs(frames - round(frames)) <= 1e-9


#: Tolerance (in frames) when mapping float timestamps to frame indices.
#: Chunk boundaries are frame-aligned by construction, but float arithmetic
#: can land just below the exact product (e.g. ``29.999999999 * 30``); the
#: epsilon snaps such values to the intended frame instead of truncating.
FRAME_INDEX_EPSILON = 1e-6


def frame_index_of(timestamp: float, fps: float, *,
                   epsilon: float = FRAME_INDEX_EPSILON) -> int:
    """Frame index containing ``timestamp``, robust to float error.

    A bare ``int(timestamp * fps)`` truncates products that land just below
    the exact frame boundary (e.g. ``0.2999999... * 10``); the epsilon snaps
    such values to the intended frame before flooring.
    """
    return int(math.floor(timestamp * fps + epsilon))


def num_frames_in(duration: float, fps: float, *,
                  epsilon: float = FRAME_INDEX_EPSILON) -> int:
    """Number of whole frames in ``[0, duration)``, robust to float error.

    Consistent with :func:`frame_index_range` over the same window, so a
    video's ``num_frames`` always equals the number of frames its iterators
    yield (``duration=0.3, fps=10`` is 3 frames, not ``int(2.999...) == 2``).
    """
    return frame_index_range(0.0, duration, fps, epsilon=epsilon)[1]


def frame_index_range(start: float, end: float, fps: float, *,
                      epsilon: float = FRAME_INDEX_EPSILON) -> tuple[int, int]:
    """Frame indices covered by the half-open time window ``[start, end)``.

    Returns ``(first, last)`` such that ``range(first, last)`` enumerates
    every frame whose timestamp lies in the window.  A frame belongs to the
    window when ``start <= index / fps < end``, so ``first`` is the ceiling of
    ``start * fps`` and ``last`` the ceiling of ``end * fps`` — each computed
    with an epsilon so float error at a chunk boundary can neither drop the
    boundary frame nor duplicate it into the neighbouring chunk.
    """
    first = math.ceil(start * fps - epsilon)
    last = math.ceil(end * fps - epsilon)
    return first, max(first, last)


@dataclass(frozen=True)
class TimeInterval:
    """A half-open interval of time ``[start, end)`` in seconds.

    The interval is allowed to be empty (``start == end``) but never
    inverted.
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        if not -math.inf < self.start <= self.end < math.inf:
            raise ValueError(f"interval [{self.start!r}, {self.end!r}) must be finite "
                             f"and not inverted")

    @property
    def duration(self) -> float:
        """Length of the interval in seconds."""
        return self.end - self.start

    def contains(self, timestamp: float) -> bool:
        """Return True if ``timestamp`` lies inside the half-open interval."""
        return self.start <= timestamp < self.end

    def overlaps(self, other: "TimeInterval") -> bool:
        """Return True if the two intervals share at least one instant."""
        return self.start < other.end and other.start < self.end

    def intersection(self, other: "TimeInterval") -> "TimeInterval | None":
        """Return the overlapping interval, or None if the intervals are disjoint."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if start >= end:
            return None
        return TimeInterval(start, end)

    def union_span(self, other: "TimeInterval") -> "TimeInterval":
        """Return the smallest interval covering both inputs."""
        return TimeInterval(min(self.start, other.start), max(self.end, other.end))

    def expand(self, margin: float) -> "TimeInterval":
        """Return the interval widened by ``margin`` seconds on each side.

        The start is clamped at zero because a video has no frames before its
        first frame; Algorithm 1 applies this to build the ``[a - rho, b + rho]``
        admission window.
        """
        return TimeInterval(max(0.0, self.start - margin), self.end + margin)

    def clamp(self, bounds: "TimeInterval") -> "TimeInterval":
        """Return the portion of this interval that lies inside ``bounds``.

        If the two do not overlap, an empty interval anchored at ``bounds.start``
        is returned.
        """
        start = min(max(self.start, bounds.start), bounds.end)
        end = max(min(self.end, bounds.end), bounds.start)
        if end < start:
            end = start
        return TimeInterval(start, end)

    def split(self, chunk_duration: float, stride: float = 0.0) -> Iterator["TimeInterval"]:
        """Yield consecutive sub-intervals of ``chunk_duration`` seconds.

        ``stride`` is the gap between the end of one chunk and the start of
        the next (0 means contiguous chunks, as in the paper's examples; it
        is never negative, so chunks never overlap).  The final chunk is
        truncated at the interval end.

        Boundaries come from per-index multiplication, not a running float
        accumulator, so exactly :meth:`num_chunks` chunks are yielded: an
        accumulator can land a hair below ``end`` after the final chunk
        (e.g. ten 0.1s steps summing to 0.9999...) and emit a spurious
        sliver chunk that the O(1) count — which sensitivity accounting
        relies on — would never predict.

        ``position <= min(position + chunk_duration, end)`` holds by this
        arithmetic, so each interval is built in one step, without the
        constructor's ordering check or a frozen ``__setattr__`` per field.
        """
        count = self.num_chunks(chunk_duration, stride)
        step = chunk_duration + stride
        start, end, new = self.start, self.end, object.__new__
        for index in range(count):
            position = min(start + index * step, end)
            interval = new(TimeInterval)
            fields = interval.__dict__
            fields["start"] = position
            fields["end"] = min(position + chunk_duration, end)
            yield interval

    def num_chunks(self, chunk_duration: float, stride: float = 0.0) -> int:
        """Number of chunks produced by :meth:`split` with the same arguments."""
        checks.real("chunk_duration", chunk_duration, ValueError, above=0)
        checks.real("stride", stride, ValueError, at_least=0)
        step = chunk_duration + stride
        if self.duration <= 0:
            return 0
        return int(math.ceil(self.duration / step))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TimeInterval({self.start:g}, {self.end:g})"
