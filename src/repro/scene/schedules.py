"""Declarative time-varying attribute schedules.

Scene objects may carry observable attributes that change over time (a
traffic light's colour, a shop sign switching on).  Each is a schedule: a
small frozen dataclass that

* evaluates a single timestamp (:meth:`AttributeSchedule.value_at`),
* evaluates a whole batch of timestamps at once (:meth:`values_at`), and
* pickles, so every scene crosses a process to the sharded engine's shards
  and has a content fingerprint that is the same in every process.

A scene object accepts no other kind of dynamic attribute.
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

    @abstractmethod
    def values_at(self, timestamps: np.ndarray) -> Sequence[Any]:
        """Values for a batch of timestamps, equal to :meth:`value_at` of each."""


@dataclass(frozen=True)
class CyclicSchedule(AttributeSchedule):
    """An attribute cycling through fixed phases, e.g. a traffic light.

    ``phases`` is a sequence of ``(value, duration_seconds)`` pairs; the
    cycle repeats forever, optionally shifted by ``offset`` seconds, e.g. a
    two-phase ``(("RED", 75.0), ("GREEN", 45.0))`` traffic light.
    """

    phases: tuple[tuple[Any, float], ...]
    offset: float = 0.0

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a cyclic schedule needs at least one phase")
        for _, duration in self.phases:
            checks.real("a phase duration", duration, ValueError, above=0)
        checks.real("offset", self.offset, ValueError)

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
