"""Declarative time-varying attribute schedules.

Scene objects may carry observable attributes that change over time (a
traffic light's colour, a shop sign switching on).  Earlier revisions modeled
these as closures ``timestamp -> value``, which kept scenario scenes out of
:class:`~repro.core.remote.ShardedEngine` (closures don't pickle) and out
of the vectorized detector (closures evaluate one frame at a time).  A
schedule is the declarative replacement: a small frozen dataclass that

* evaluates a single timestamp (:meth:`AttributeSchedule.value_at`),
* evaluates a whole batch of timestamps at once (:meth:`values_at`), and
* pickles, so every benchmark scene runs on every execution engine.

Schedules are also callable with a single timestamp, so any code written
against the old closure convention keeps working — and plain callables are
still accepted anywhere a schedule is (they simply fall back to per-frame
evaluation and keep the video thread/serial-only).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.utils import checks


class AttributeSchedule(ABC):
    """A picklable mapping from timestamp to an observable attribute value."""

    @abstractmethod
    def value_at(self, timestamp: float) -> Any:
        """The attribute's value at ``timestamp`` (seconds from video start)."""

    def values_at(self, timestamps: np.ndarray) -> Sequence[Any]:
        """Values for a batch of timestamps (default: per-element fallback)."""
        return [self.value_at(timestamp) for timestamp in np.asarray(timestamps).tolist()]

    def __call__(self, timestamp: float) -> Any:
        """Closure-compatibility shim: a schedule can be used as ``fn(t)``."""
        return self.value_at(timestamp)


@dataclass(frozen=True)
class ConstantSchedule(AttributeSchedule):
    """An attribute that never changes (useful as an explicit placeholder)."""

    value: Any

    def value_at(self, timestamp: float) -> Any:
        return self.value

    def values_at(self, timestamps: np.ndarray) -> Sequence[Any]:
        return [self.value] * int(np.asarray(timestamps).size)


@dataclass(frozen=True)
class CyclicSchedule(AttributeSchedule):
    """An attribute cycling through fixed phases, e.g. a traffic light.

    ``phases`` is a sequence of ``(value, duration_seconds)`` pairs; the
    cycle repeats forever, optionally shifted by ``offset`` seconds.  A
    two-phase ``(("RED", 75.0), ("GREEN", 45.0))`` schedule reproduces the
    closure the scenarios used to build by hand.
    """

    phases: tuple[tuple[Any, float], ...]
    offset: float = 0.0

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a cyclic schedule needs at least one phase")
        for _, duration in self.phases:
            checks.real("a phase duration", duration, ValueError, above=0)

    @property
    def cycle_duration(self) -> float:
        """Length of one full cycle in seconds."""
        return sum(duration for _, duration in self.phases)

    def _phase_ends(self) -> list[float]:
        ends: list[float] = []
        total = 0.0
        for _, duration in self.phases:
            total += duration
            ends.append(total)
        return ends

    def value_at(self, timestamp: float) -> Any:
        position = (timestamp - self.offset) % self.cycle_duration
        for (value, _), end in zip(self.phases, self._phase_ends()):
            if position < end:
                return value
        return self.phases[-1][0]

    def values_at(self, timestamps: np.ndarray) -> Sequence[Any]:
        positions = (np.asarray(timestamps, dtype=np.float64) - self.offset) % self.cycle_duration
        ends = np.array(self._phase_ends(), dtype=np.float64)
        # side='right' puts position == end into the *next* phase, matching
        # the scalar `position < end` test.
        indices = np.minimum(np.searchsorted(ends, positions, side="right"),
                             len(self.phases) - 1)
        values = [value for value, _ in self.phases]
        return [values[index] for index in indices.tolist()]


def periodic_two_state(on_value: Any, on_duration: float,
                       off_value: Any, off_duration: float, *,
                       offset: float = 0.0) -> CyclicSchedule:
    """Convenience constructor for the common two-state cycle."""
    return CyclicSchedule(phases=((on_value, on_duration), (off_value, off_duration)),
                          offset=offset)
