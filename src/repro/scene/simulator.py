"""Synthetic scene generator.

The simulator produces a :class:`repro.video.video.SyntheticVideo` populated
with ground-truth objects drawn from three kinds of populations:

* **crossing populations** — objects (people, cars, taxis) that enter along a
  route, traverse the scene, and leave; arrival times follow a diurnal
  profile, and durations follow a bounded distribution with an optional heavy
  tail (slow walkers, congested traffic);
* **lingering populations** — objects that stay in a fixed zone for a long
  time (people on benches, parked cars); these create the heavy-tailed
  persistence distributions of Fig. 4 and the motivation for masking;
* **static populations** — non-private scenery such as trees and traffic
  lights, with static or time-varying observable attributes.

Everything is generated from named random streams derived from a single seed
(see :mod:`repro.utils.rng`), so a scenario is fully reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.scene.objects import Appearance, SceneObject
from repro.scene.schedules import AttributeSchedule
from repro.scene.trajectory import LinearTrajectory, StationaryTrajectory
from repro.utils import checks
from repro.utils.rng import RandomSource
from repro.utils.timebase import SECONDS_PER_HOUR, TimeInterval
from repro.video.geometry import BoundingBox
from repro.video.video import SyntheticVideo

AttributeFactory = Callable[[np.random.Generator, int], dict[str, Any]]


def _check_box_size(box_size: tuple[float, float]) -> None:
    for name, value in zip(("width", "height"), box_size):
        checks.real(f"the {name} of box_size {box_size!r}", value, ValueError, above=0)


@dataclass(frozen=True)
class Route:
    """A path through the scene from an entry box to an exit box."""

    label: str
    entry: BoundingBox
    exit: BoundingBox
    weight: float = 1.0
    entry_side: str = ""
    exit_side: str = ""


@dataclass(frozen=True)
class CrossingPopulation:
    """Objects that traverse the scene along one of a set of routes."""

    category: str
    expected_count: float
    routes: tuple[Route, ...]
    duration_range: tuple[float, float] = (10.0, 60.0)
    tail_probability: float = 0.0
    tail_duration_range: tuple[float, float] = (60.0, 300.0)
    hourly_weights: tuple[float, ...] | None = None
    revisit_probability: float = 0.0
    revisit_gap_range: tuple[float, float] = (1800.0, 14400.0)
    box_size: tuple[float, float] = (20.0, 45.0)
    attribute_factory: AttributeFactory | None = None
    label: str = ""

    def __post_init__(self) -> None:
        checks.real("expected_count", self.expected_count, ValueError, at_least=0)
        if not self.routes:
            raise ValueError("a crossing population needs at least one route")
        weights = tuple(route.weight for route in self.routes)
        for weight in weights:
            checks.real(f"each of the routes' weights {weights!r}", weight, ValueError,
                        at_least=0)
        checks.real(f"the sum of the routes' weights {weights!r}", sum(weights), ValueError,
                    above=0)
        for weight in self.hourly_weights or ():
            checks.real(f"each of hourly_weights {self.hourly_weights!r}", weight, ValueError,
                        at_least=0)
        for name in ("tail_probability", "revisit_probability"):
            checks.probability(name, getattr(self, name), ValueError)
        for name in ("duration_range", "tail_duration_range"):
            low, high = bounds = getattr(self, name)
            checks.real(f"the low end of {name} {bounds!r}", low, ValueError, above=0)
            checks.real(f"the high end of {name} {bounds!r}", high, ValueError, at_least=low)
        _check_box_size(self.box_size)


@dataclass(frozen=True)
class LingerPopulation:
    """Objects that remain within a fixed zone for a long time."""

    category: str
    count: int
    zone: BoundingBox
    duration_range: tuple[float, float] = (600.0, 3600.0)
    box_size: tuple[float, float] = (20.0, 45.0)
    attribute_factory: AttributeFactory | None = None
    label: str = ""

    def __post_init__(self) -> None:
        checks.count("count", self.count, ValueError)
        low, high = self.duration_range
        checks.real("the low end of duration_range", low, ValueError, above=0)
        checks.real("the high end of duration_range", high, ValueError, at_least=low)
        _check_box_size(self.box_size)


@dataclass(frozen=True)
class StaticPopulation:
    """Non-private scenery present for the whole video (trees, traffic lights)."""

    category: str
    boxes: tuple[BoundingBox, ...]
    attributes: tuple[dict[str, Any], ...] = ()
    #: Factory of declarative attribute schedules per object index.
    dynamic_attribute_factory: Callable[[int], dict[str, AttributeSchedule]] | None = None
    label: str = ""


@dataclass
class SceneConfig:
    """Full description of a synthetic scenario."""

    name: str
    duration: float
    fps: float = 2.0
    width: float = 1280.0
    height: float = 720.0
    crossings: list[CrossingPopulation] = field(default_factory=list)
    lingerers: list[LingerPopulation] = field(default_factory=list)
    statics: list[StaticPopulation] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)


def _hour_probabilities(weights: Sequence[float] | None, duration: float) -> np.ndarray | None:
    """Arrival probability of each hour of the video (the weights repeat to
    cover it), or None for arrivals uniform over the whole video."""
    if weights is None:
        return None
    num_hours = max(1, int(np.ceil(duration / SECONDS_PER_HOUR)))
    hourly = np.asarray(list(weights), dtype=float)
    if hourly.size < num_hours:
        hourly = np.resize(hourly, num_hours)
    else:
        hourly = hourly[:num_hours]
    total = hourly.sum()
    if total <= 0:
        return None
    return hourly / total


def _sample_arrival(rng: np.random.Generator, hour_probabilities: np.ndarray | None,
                    duration: float) -> float:
    """Sample an arrival time in [0, duration) from :func:`_hour_probabilities`."""
    if hour_probabilities is None:
        return float(rng.uniform(0.0, duration))
    hour = int(rng.choice(hour_probabilities.size, p=hour_probabilities))
    hour_start = hour * SECONDS_PER_HOUR
    hour_end = min(duration, hour_start + SECONDS_PER_HOUR)
    return float(rng.uniform(hour_start, hour_end))


def _route_trajectory(route: Route, box_size: tuple[float, float], duration: float,
                      rng: np.random.Generator) -> LinearTrajectory:
    """Build a linear trajectory along a route with slight lateral variation."""
    width, height = box_size
    jitter_x = float(rng.uniform(-0.4, 0.4)) * max(route.entry.width, 1.0)
    jitter_y = float(rng.uniform(-0.4, 0.4)) * max(route.entry.height, 1.0)
    entry_center = route.entry.center
    exit_center = route.exit.center
    start = BoundingBox(entry_center.x - width / 2 + jitter_x,
                        entry_center.y - height / 2 + jitter_y, width, height)
    end = BoundingBox(exit_center.x - width / 2 + jitter_x,
                      exit_center.y - height / 2 + jitter_y, width, height)
    return LinearTrajectory(start=start, end=end, duration=duration)


class SceneSimulator:
    """Generate a :class:`SyntheticVideo` from a :class:`SceneConfig`."""

    def __init__(self, config: SceneConfig, *, seed: int = 0) -> None:
        self.config = config
        self.random = RandomSource(seed, path=f"scene/{config.name}")
        self._next_object_index = 0

    def _new_object_id(self, prefix: str) -> str:
        self._next_object_index += 1
        return f"{self.config.name}/{prefix}/{self._next_object_index:06d}"

    def _sample_duration(self, population: CrossingPopulation,
                         rng: np.random.Generator) -> float:
        """Sample a crossing duration, with an optional heavy tail."""
        if population.tail_probability > 0 and rng.random() < population.tail_probability:
            low, high = population.tail_duration_range
        else:
            low, high = population.duration_range
        return float(rng.uniform(low, high))

    def _generate_crossings(self, population: CrossingPopulation) -> list[SceneObject]:
        stream_name = population.label or f"crossing/{population.category}"
        rng = self.random.stream(stream_name)
        count = int(rng.poisson(population.expected_count)) if population.expected_count > 0 else 0
        # Per population, not per object: the draws below take these arrays as they are.
        routes = population.routes
        weights = np.asarray([route.weight for route in routes], dtype=float)
        route_probabilities = weights / weights.sum()
        hour_probabilities = _hour_probabilities(population.hourly_weights, self.config.duration)

        def pick_route() -> Route:
            return routes[int(rng.choice(len(routes), p=route_probabilities))]

        objects: list[SceneObject] = []
        for index in range(count):
            route = pick_route()
            arrival = _sample_arrival(rng, hour_probabilities, self.config.duration)
            duration = self._sample_duration(population, rng)
            end = min(self.config.duration, arrival + duration)
            if end - arrival < 1e-6:
                continue
            appearances = [Appearance(
                interval=TimeInterval(arrival, end),
                trajectory=_route_trajectory(route, population.box_size, end - arrival, rng),
            )]
            if population.revisit_probability > 0 and rng.random() < population.revisit_probability:
                gap = float(rng.uniform(*population.revisit_gap_range))
                second_start = end + gap
                second_duration = self._sample_duration(population, rng)
                second_end = min(self.config.duration, second_start + second_duration)
                if second_end - second_start > 1e-6:
                    return_route = pick_route()
                    appearances.append(Appearance(
                        interval=TimeInterval(second_start, second_end),
                        trajectory=_route_trajectory(return_route, population.box_size,
                                                     second_end - second_start, rng),
                    ))
            attributes: dict[str, Any] = {
                "route": route.label,
                "entry_side": route.entry_side,
                "exit_side": route.exit_side,
            }
            if population.attribute_factory is not None:
                attributes.update(population.attribute_factory(rng, index))
            objects.append(SceneObject(
                object_id=self._new_object_id(population.category),
                category=population.category,
                appearances=appearances,
                attributes=attributes,
            ))
        return objects

    def _generate_lingerers(self, population: LingerPopulation) -> list[SceneObject]:
        stream_name = population.label or f"linger/{population.category}"
        rng = self.random.stream(stream_name)
        objects: list[SceneObject] = []
        width, height = population.box_size
        for index in range(population.count):
            duration = float(rng.uniform(*population.duration_range))
            latest_start = max(0.0, self.config.duration - duration)
            start = float(rng.uniform(0.0, latest_start)) if latest_start > 0 else 0.0
            end = min(self.config.duration, start + duration)
            x = float(rng.uniform(population.zone.x,
                                  max(population.zone.x, population.zone.x2 - width)))
            y = float(rng.uniform(population.zone.y,
                                  max(population.zone.y, population.zone.y2 - height)))
            attributes: dict[str, Any] = {"lingering": True}
            if population.attribute_factory is not None:
                attributes.update(population.attribute_factory(rng, index))
            objects.append(SceneObject(
                object_id=self._new_object_id(f"linger-{population.category}"),
                category=population.category,
                appearances=[Appearance(
                    interval=TimeInterval(start, end),
                    trajectory=StationaryTrajectory(BoundingBox(x, y, width, height)),
                )],
                attributes=attributes,
            ))
        return objects

    def _generate_statics(self, population: StaticPopulation) -> list[SceneObject]:
        objects: list[SceneObject] = []
        for index, box in enumerate(population.boxes):
            attributes = dict(population.attributes[index]) if index < len(population.attributes) else {}
            dynamic = {}
            if population.dynamic_attribute_factory is not None:
                dynamic = population.dynamic_attribute_factory(index)
            objects.append(SceneObject(
                object_id=self._new_object_id(population.category),
                category=population.category,
                appearances=[Appearance(
                    interval=TimeInterval(0.0, self.config.duration),
                    trajectory=StationaryTrajectory(box),
                )],
                attributes=attributes,
                dynamic_attributes=dynamic,
            ))
        return objects

    def generate(self) -> SyntheticVideo:
        """Generate the full synthetic video for this configuration."""
        video = SyntheticVideo(
            name=self.config.name,
            fps=self.config.fps,
            width=self.config.width,
            height=self.config.height,
            duration=self.config.duration,
            metadata=dict(self.config.metadata),
        )
        objects: list[SceneObject] = []
        for population in self.config.crossings:
            objects.extend(self._generate_crossings(population))
        for population in self.config.lingerers:
            objects.extend(self._generate_lingerers(population))
        for population in self.config.statics:
            objects.extend(self._generate_statics(population))
        video.add_objects(objects)
        return video
