"""Shared fixtures: small, fast synthetic scenes and a ready Privid system.

Scenario generation and query execution dominate test runtime, so the
fixtures here are deliberately tiny (fractions of an hour, low object
counts) and session-scoped where safe.  Benchmarks use larger scenes.
"""

from __future__ import annotations

import pytest

from repro.core import PrividSystem
from repro.core.policy import MaskPolicyMap, PrivacyPolicy
from repro.scene.objects import Appearance, SceneObject
from repro.scene.scenarios import Scenario, build_scenario
from repro.scene.trajectory import LinearTrajectory, StationaryTrajectory
from repro.utils.timebase import TimeInterval
from repro.video.chunking import iter_chunks
from repro.video.geometry import BoundingBox
from repro.video.regions import BoundaryType, Region, RegionScheme
from repro.video.video import SyntheticVideo


def make_crossing_object(object_id: str, *, start: float, duration: float,
                         category: str = "person", x: float = 600.0,
                         attributes: dict | None = None) -> SceneObject:
    """A single object crossing the frame from bottom to top."""
    trajectory = LinearTrajectory(
        start=BoundingBox(x, 650.0, 30.0, 60.0),
        end=BoundingBox(x, 10.0, 30.0, 60.0),
        duration=duration,
    )
    return SceneObject(
        object_id=object_id,
        category=category,
        appearances=[Appearance(interval=TimeInterval(start, start + duration),
                                trajectory=trajectory)],
        attributes=attributes or {},
    )


def make_stationary_object(object_id: str, *, start: float, duration: float,
                           box: BoundingBox, category: str = "person",
                           attributes: dict | None = None) -> SceneObject:
    """A single object parked at a fixed location."""
    return SceneObject(
        object_id=object_id,
        category=category,
        appearances=[Appearance(interval=TimeInterval(start, start + duration),
                                trajectory=StationaryTrajectory(box))],
        attributes=attributes or {},
    )


def make_simple_video(*, duration: float = 600.0, objects: list[SceneObject] | None = None,
                      fps: float = 2.0, name: str = "test-cam") -> SyntheticVideo:
    """A bare synthetic video with the given objects."""
    video = SyntheticVideo(name=name, fps=fps, width=1280.0, height=720.0, duration=duration)
    video.add_objects(objects or [])
    return video


def flat_rows(chunk_rows) -> list:
    """Every row of a per-chunk row stream (``iter_chunk_rows``), in order."""
    return [row for rows in chunk_rows for row in rows]


def split_interval(video, spec, **options) -> list:
    """Every chunk of a SPLIT, as a list (``iter_chunks`` streams them)."""
    return list(iter_chunks(video, spec, **options))


def grid_region_scheme(frame_width: float, frame_height: float, rows: int, columns: int, *,
                       name: str = "grid",
                       boundary: BoundaryType = BoundaryType.SOFT) -> RegionScheme:
    """A ``rows`` x ``columns`` grid of equal cells named ``r{row}c{column}``."""
    width, height = frame_width / columns, frame_height / rows
    return RegionScheme(name=name, boundary=boundary, regions=tuple(
        Region(name=f"r{row}c{column}",
               box=BoundingBox(column * width, row * height, width, height))
        for row in range(rows) for column in range(columns)))


@pytest.fixture()
def simple_video() -> SyntheticVideo:
    """Ten minutes of video with three crossings and one lingerer."""
    objects = [
        make_crossing_object("walker-1", start=30.0, duration=40.0),
        make_crossing_object("walker-2", start=120.0, duration=30.0, x=700.0),
        make_crossing_object("walker-3", start=400.0, duration=50.0, x=500.0),
        make_stationary_object("sitter-1", start=100.0, duration=300.0,
                               box=BoundingBox(100.0, 500.0, 30.0, 60.0)),
    ]
    return make_simple_video(objects=objects)


@pytest.fixture()
def footage_pickles(monkeypatch) -> list[str]:
    """Names of the videos pickled in this process, in order: the spy on an
    engine's footage publications (workers pickle no footage)."""
    pickled: list[str] = []
    footage_state = SyntheticVideo.__getstate__

    def spying(video: SyntheticVideo) -> dict:
        pickled.append(video.name)
        return footage_state(video)

    monkeypatch.setattr(SyntheticVideo, "__getstate__", spying)
    return pickled


@pytest.fixture(scope="session")
def campus_small() -> Scenario:
    """A small campus scenario shared across the session (read-only use)."""
    return build_scenario("campus", scale=0.15, duration_hours=1.0, seed=7)


@pytest.fixture(scope="session")
def highway_small() -> Scenario:
    """A small highway scenario shared across the session (read-only use)."""
    return build_scenario("highway", scale=0.05, duration_hours=1.0, seed=11)


@pytest.fixture()
def privid_system() -> PrividSystem:
    """A fresh Privid deployment with no cameras registered."""
    return PrividSystem(seed=42)


@pytest.fixture()
def registered_system(campus_small: Scenario) -> PrividSystem:
    """A system with the small campus camera registered under generous budget."""
    system = PrividSystem(seed=42)
    policy_map = MaskPolicyMap.unmasked(PrivacyPolicy(rho=60.0, k_segments=2))
    if campus_small.owner_mask is not None:
        policy_map.add("owner", campus_small.owner_mask,
                       PrivacyPolicy(rho=50.0, k_segments=2))
    system.register_camera(
        "campus", campus_small.video, policy_map=policy_map, epsilon_budget=100.0,
        detector_config=campus_small.detector_config,
        tracker_config=campus_small.tracker_config,
        default_sample_period=1.0,
        region_schemes={"default": campus_small.region_scheme}
        if campus_small.region_scheme is not None else {},
    )
    return system
