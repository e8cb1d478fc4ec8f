"""Synthetic stand-in for the Porto taxi dataset (Case 2, queries Q4-Q6).

The paper emulates a city-wide camera network from the Porto taxi trajectory
dataset: 442 taxis over 1.5 years, converted into the set of timestamps each
taxi would have been visible to each of 105 cameras.  This module generates a
synthetic dataset with the same *shape*: taxis work daily shifts, pass
cameras at a Poisson rate during their shift, and each pass is visible to one
camera for a bounded duration.  Ground truth (working hours, per-day camera
visits, busiest camera) is retained so the evaluation can score Privid's
noisy answers.

The default configuration is scaled down (fewer taxis, cameras and days) so
the full Privid pipeline over it runs in seconds;
``PortoConfig(num_taxis=442, num_cameras=105, num_days=547)`` restores the
paper's dimensions for users with more patience.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.scene.objects import Appearance, SceneObject
from repro.scene.trajectory import StationaryTrajectory
from repro.utils import checks
from repro.utils.rng import RandomSource
from repro.utils.timebase import SECONDS_PER_DAY, SECONDS_PER_HOUR, TimeInterval
from repro.video.geometry import BoundingBox
from repro.video.video import SyntheticVideo


@dataclass(frozen=True)
class Sighting:
    """One taxi visible to one camera for a contiguous interval."""

    taxi_id: str
    camera: str
    interval: TimeInterval

    @property
    def day(self) -> int:
        """Day index (0-based) in which the sighting starts."""
        return int(self.interval.start // SECONDS_PER_DAY)


@dataclass(frozen=True)
class PortoConfig:
    """Parameters of the synthetic Porto-style camera network."""

    num_taxis: int = 40
    num_cameras: int = 12
    num_days: int = 28
    working_day_probability: float = 0.9
    mean_shift_hours: float = 5.9
    shift_hours_std: float = 1.2
    passes_per_hour: float = 1.5
    visibility_range: tuple[float, float] = (15.0, 200.0)
    seed: int = 31

    def __post_init__(self) -> None:
        for name in ("num_taxis", "num_cameras", "num_days"):
            checks.count(name, getattr(self, name), ValueError, 1)
        checks.count("seed", self.seed, ValueError)
        checks.real("mean_shift_hours", self.mean_shift_hours, ValueError, above=0)
        for name in ("shift_hours_std", "passes_per_hour"):
            checks.real(name, getattr(self, name), ValueError, at_least=0)
        checks.probability("working_day_probability", self.working_day_probability,
                           ValueError)
        low, high = self.visibility_range
        checks.real("the low end of visibility_range", low, ValueError, above=0)
        checks.real("the high end of visibility_range", high, ValueError, at_least=low)

    @property
    def duration(self) -> float:
        """Total observation period in seconds."""
        return self.num_days * SECONDS_PER_DAY

    def camera_name(self, index: int) -> str:
        """Camera naming convention used by the paper (porto0, porto1, ...)."""
        return f"porto{index}"


@dataclass
class PortoDataset:
    """Generated sightings plus the ground truth needed to score queries."""

    config: PortoConfig
    sightings: list[Sighting] = field(default_factory=list)
    shift_hours: dict[tuple[str, int], float] = field(default_factory=dict)

    @property
    def camera_names(self) -> list[str]:
        """All camera names in index order."""
        return [self.config.camera_name(i) for i in range(self.config.num_cameras)]

    @property
    def taxi_ids(self) -> list[str]:
        """All taxi identifiers."""
        return [f"taxi{i:04d}" for i in range(self.config.num_taxis)]

    def sightings_for(self, camera: str) -> list[Sighting]:
        """Sightings recorded by one camera, ordered by start time."""
        selected = [sighting for sighting in self.sightings if sighting.camera == camera]
        selected.sort(key=lambda sighting: sighting.interval.start)
        return selected

    def max_visibility_duration(self, camera: str) -> float:
        """Ground-truth maximum single-sighting duration at a camera (its rho)."""
        durations = [s.interval.duration for s in self.sightings_for(camera)]
        return max(durations, default=0.0)

    def average_working_hours(self, cameras: Iterable[str]) -> float:
        """Ground truth for Q4: mean per-(taxi, day) working span seen by the cameras.

        For each taxi and day with at least one sighting at any of the given
        cameras, the working span is the time between the first and last such
        sighting; Q4 averages these spans (in hours).
        """
        camera_set = set(cameras)
        spans: dict[tuple[str, int], tuple[float, float]] = {}
        for sighting in self.sightings:
            if sighting.camera not in camera_set:
                continue
            key = (sighting.taxi_id, sighting.day)
            first, last = spans.get(key, (sighting.interval.start, sighting.interval.end))
            spans[key] = (min(first, sighting.interval.start), max(last, sighting.interval.end))
        if not spans:
            return 0.0
        hours = [(last - first) / SECONDS_PER_HOUR for first, last in spans.values()]
        return float(np.mean(hours))

    def average_taxis_traversing_both(self, camera_a: str, camera_b: str) -> float:
        """Ground truth for Q5: mean daily count of taxis seen by *both* cameras."""
        per_day_a: dict[int, set[str]] = {}
        per_day_b: dict[int, set[str]] = {}
        for sighting in self.sightings:
            if sighting.camera == camera_a:
                per_day_a.setdefault(sighting.day, set()).add(sighting.taxi_id)
            elif sighting.camera == camera_b:
                per_day_b.setdefault(sighting.day, set()).add(sighting.taxi_id)
        counts = []
        for day in range(self.config.num_days):
            both = per_day_a.get(day, set()) & per_day_b.get(day, set())
            counts.append(len(both))
        return float(np.mean(counts)) if counts else 0.0

    def daily_traffic(self, camera: str) -> float:
        """Ground truth mean daily unique-taxi count at a camera."""
        per_day: dict[int, set[str]] = {}
        for sighting in self.sightings:
            if sighting.camera == camera:
                per_day.setdefault(sighting.day, set()).add(sighting.taxi_id)
        if not per_day:
            return 0.0
        total = sum(len(taxis) for taxis in per_day.values())
        return total / self.config.num_days

    def busiest_camera(self) -> str:
        """Ground truth for Q6: the camera with the highest mean daily traffic."""
        return max(self.camera_names, key=self.daily_traffic)

    def to_video(self, camera: str, *, fps: float = 1.0 / 60.0) -> SyntheticVideo:
        """Materialise one camera's sightings as a synthetic video.

        Taxis are modelled as stationary boxes (the camera only needs to know
        *that* and *when* a taxi is visible); the licence plate attribute
        uniquely identifies the taxi, mirroring the plate-based deduplication
        the paper's queries rely on.
        """
        objects: dict[str, SceneObject] = {}
        for sighting in self.sightings_for(camera):
            scene_object = objects.get(sighting.taxi_id)
            if scene_object is None:
                scene_object = SceneObject(
                    object_id=f"{camera}/{sighting.taxi_id}",
                    category="taxi",
                    appearances=[],
                    attributes={"plate": sighting.taxi_id, "taxi_id": sighting.taxi_id},
                )
                objects[sighting.taxi_id] = scene_object
            scene_object.appearances.append(Appearance(
                interval=sighting.interval,
                trajectory=StationaryTrajectory(BoundingBox(600.0, 330.0, 70.0, 40.0)),
            ))
        video = SyntheticVideo(
            name=camera,
            fps=fps,
            width=1280.0,
            height=720.0,
            duration=self.config.duration,
            metadata={"dataset": "porto-synthetic"},
        )
        video.add_objects(objects.values())
        return video


def generate_porto_dataset(config: PortoConfig | None = None) -> PortoDataset:
    """Generate a synthetic Porto-style dataset from a configuration."""
    config = config or PortoConfig()
    random = RandomSource(config.seed, path="porto")
    rng = random.stream("sightings")
    camera_weights = rng.dirichlet(np.full(config.num_cameras, 2.0))
    dataset = PortoDataset(config=config)
    min_visibility, max_visibility = config.visibility_range
    for taxi_index in range(config.num_taxis):
        taxi_id = f"taxi{taxi_index:04d}"
        for day in range(config.num_days):
            if rng.random() >= config.working_day_probability:
                continue
            shift_hours = float(np.clip(
                rng.normal(config.mean_shift_hours, config.shift_hours_std), 2.0, 14.0))
            shift_start_hour = float(rng.uniform(5.0, 22.0 - shift_hours))
            shift_start = day * SECONDS_PER_DAY + shift_start_hour * SECONDS_PER_HOUR
            shift_end = shift_start + shift_hours * SECONDS_PER_HOUR
            dataset.shift_hours[(taxi_id, day)] = shift_hours
            expected_passes = config.passes_per_hour * shift_hours
            num_passes = int(rng.poisson(expected_passes))
            for _ in range(num_passes):
                camera_index = int(rng.choice(config.num_cameras, p=camera_weights))
                start = float(rng.uniform(shift_start, shift_end))
                duration = float(rng.uniform(min_visibility, max_visibility))
                end = min(start + duration, config.duration)
                if end - start < 1e-6:
                    continue
                dataset.sightings.append(Sighting(
                    taxi_id=taxi_id,
                    camera=config.camera_name(camera_index),
                    interval=TimeInterval(start, end),
                ))
    dataset.sightings.sort(key=lambda sighting: sighting.interval.start)
    return dataset
