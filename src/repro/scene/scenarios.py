"""Scenario presets standing in for the paper's evaluation videos.

Three primary scenarios mirror the paper's ``campus``, ``highway`` and
``urban`` streams (12 hours each, 6am-6pm); seven additional presets mirror
the BlazeIt and MIRIS videos used in the extended masking study (Appendix F).
Each preset bundles the generated video with the per-video configuration the
paper chooses by hand: detector quality, tracker hyperparameters, the owner's
mask (Fig. 3), the region scheme used for spatial splitting (Table 2), and
scene metadata such as the traffic-light location and cycle.

Scenario sizes are scaled down roughly tenfold from the paper's raw object
counts (48.7k cars in ``highway``) so that full pipelines run in seconds on a
laptop; the ``scale`` parameter restores any desired density.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.cv.detector import DetectorConfig
from repro.cv.tracker import TrackerConfig
from repro.scene.schedules import AttributeSchedule, CyclicSchedule
from repro.scene.simulator import (
    CrossingPopulation,
    LingerPopulation,
    Route,
    SceneConfig,
    SceneSimulator,
    StaticPopulation,
)
from repro.utils.timebase import SECONDS_PER_HOUR
from repro.video.geometry import BoundingBox
from repro.video.masking import Mask
from repro.video.regions import BoundaryType, Region, RegionScheme
from repro.video.video import SyntheticVideo

#: Diurnal arrival profile for a 12-hour (6am-6pm) window: quiet early, peaks
#: at the morning commute and lunchtime, tapering towards the evening.
DAYTIME_PROFILE = (0.4, 0.7, 1.0, 1.2, 1.1, 1.3, 1.5, 1.3, 1.1, 1.0, 0.9, 0.7)

CAR_COLORS = ("RED", "WHITE", "SILVER", "BLACK", "BLUE")


@dataclass
class Scenario:
    """A ready-to-query synthetic camera: video plus per-video configuration."""

    name: str
    video: SyntheticVideo
    detector_config: DetectorConfig
    tracker_config: TrackerConfig
    region_scheme: RegionScheme | None = None
    owner_mask: Mask | None = None
    linger_zones: tuple[BoundingBox, ...] = ()
    traffic_light_box: BoundingBox | None = None
    red_light_duration: float | None = None
    metadata: dict[str, Any] = field(default_factory=dict)


def _car_attribute_factory(prefix: str) -> Callable[[np.random.Generator, int], dict[str, Any]]:
    """Attribute factory for vehicles: colour, unique plate, cruise speed."""
    palette = np.asarray(CAR_COLORS)  # what rng.choice would convert per call

    def factory(rng: np.random.Generator, index: int) -> dict[str, Any]:
        return {
            "color": str(rng.choice(palette)),
            "plate": f"{prefix}{index:06d}",
            "speed_kmh": float(rng.uniform(35.0, 110.0)),
        }

    return factory


def _traffic_light_factory(red_duration: float, green_duration: float
                           ) -> Callable[[int], dict[str, AttributeSchedule]]:
    """Dynamic-attribute factory producing the light's colour schedule.

    A declarative :class:`~repro.scene.schedules.CyclicSchedule` pickles, so
    the scene runs on the sharded engine, and the batched detector evaluates
    the light state for a whole chunk in one vectorized call.
    """
    schedule = CyclicSchedule(phases=(("RED", red_duration), ("GREEN", green_duration)))

    def factory(_index: int) -> dict[str, AttributeSchedule]:
        return {"light_state": schedule}

    return factory


def _tree_population(boxes: list[BoundingBox], with_leaves: int) -> StaticPopulation:
    """Trees, the first ``with_leaves`` of which have bloomed."""
    attributes = tuple({"has_leaves": index < with_leaves} for index in range(len(boxes)))
    return StaticPopulation(category="tree", boxes=tuple(boxes), attributes=attributes)


def _spread_boxes(count: int, y: float, width: float, box_size: float = 40.0,
                  frame_width: float = 1280.0) -> list[BoundingBox]:
    """Evenly spread ``count`` boxes along a horizontal band."""
    if count <= 0:
        return []
    spacing = (frame_width - 2 * width) / max(1, count)
    return [BoundingBox(width + index * spacing, y, box_size, box_size) for index in range(count)]


def campus_scenario(*, scale: float = 1.0, duration_hours: float = 12.0, seed: int = 7) -> Scenario:
    """Campus walkway: pedestrians crossing plus a bench area with lingerers.

    The paper's campus stream contains roughly 1.4k people over 12 hours with
    a masked maximum persistence of about 49 seconds and an unmasked maximum
    around five times larger (Fig. 4a).
    """
    duration = duration_hours * SECONDS_PER_HOUR
    width, height = 1280.0, 720.0
    bench_zone = BoundingBox(40.0, 420.0, 240.0, 260.0)
    light_box = BoundingBox(620.0, 40.0, 30.0, 70.0)
    red_duration, green_duration = 75.0, 45.0

    west_routes = (
        Route("west-south-north", BoundingBox(380.0, 660.0, 80.0, 50.0),
              BoundingBox(380.0, 10.0, 80.0, 50.0), 1.0, "south", "north"),
        Route("west-north-south", BoundingBox(380.0, 10.0, 80.0, 50.0),
              BoundingBox(380.0, 660.0, 80.0, 50.0), 1.0, "north", "south"),
    )
    east_routes = (
        Route("east-south-north", BoundingBox(820.0, 660.0, 80.0, 50.0),
              BoundingBox(820.0, 10.0, 80.0, 50.0), 1.0, "south", "north"),
        Route("east-north-south", BoundingBox(820.0, 10.0, 80.0, 50.0),
              BoundingBox(820.0, 660.0, 80.0, 50.0), 1.0, "north", "south"),
    )

    config = SceneConfig(
        name="campus",
        duration=duration,
        fps=2.0,
        width=width,
        height=height,
        crossings=[
            CrossingPopulation(
                category="person",
                expected_count=700.0 * scale * (duration_hours / 12.0),
                routes=west_routes,
                duration_range=(18.0, 49.0),
                hourly_weights=DAYTIME_PROFILE,
                revisit_probability=0.08,
                box_size=(30.0, 60.0),
                label="west-walkway",
            ),
            CrossingPopulation(
                category="person",
                expected_count=700.0 * scale * (duration_hours / 12.0),
                routes=east_routes,
                duration_range=(18.0, 49.0),
                hourly_weights=DAYTIME_PROFILE,
                revisit_probability=0.08,
                box_size=(30.0, 60.0),
                label="east-walkway",
            ),
        ],
        lingerers=[
            LingerPopulation(
                category="person",
                count=max(1, int(round(12 * scale * (duration_hours / 12.0)))),
                zone=bench_zone,
                duration_range=(130.0, 245.0),
                box_size=(30.0, 60.0),
                label="bench",
            ),
        ],
        statics=[
            _tree_population(_spread_boxes(15, 100.0, 60.0), with_leaves=15),
            StaticPopulation(category="traffic_light", boxes=(light_box,),
                             attributes=({"kind": "pedestrian"},),
                             dynamic_attribute_factory=_traffic_light_factory(
                                 red_duration, green_duration)),
        ],
        metadata={"meters_per_pixel": 0.05, "location": "campus walkway"},
    )
    video = SceneSimulator(config, seed=seed).generate()
    region_scheme = RegionScheme(
        name="crosswalks",
        regions=(
            Region("west-crosswalk", BoundingBox(0.0, 0.0, 640.0, height)),
            Region("east-crosswalk", BoundingBox(640.0, 0.0, 640.0, height)),
        ),
        boundary=BoundaryType.SOFT,
    )
    return Scenario(
        name="campus",
        video=video,
        detector_config=DetectorConfig(miss_rate=0.29, position_jitter=3.0),
        tracker_config=TrackerConfig(max_age=16, min_hits=2, iou_threshold=0.1),
        region_scheme=region_scheme,
        owner_mask=Mask(name="campus-bench-mask", regions=(bench_zone,)),
        linger_zones=(bench_zone,),
        traffic_light_box=light_box,
        red_light_duration=red_duration,
        metadata={"expected_people": 1400 * scale},
    )


def highway_scenario(*, scale: float = 1.0, duration_hours: float = 12.0, seed: int = 11) -> Scenario:
    """Highway camera: two directions of vehicle traffic plus a parking shoulder.

    Cars normally cross in 5-20 seconds; a congested minority takes several
    minutes, and cars parked on the shoulder are visible for hours — the
    source of the ~10x masked persistence reduction of Fig. 4b.
    """
    duration = duration_hours * SECONDS_PER_HOUR
    width, height = 1280.0, 720.0
    shoulder_zone = BoundingBox(0.0, 580.0, width, 140.0)
    light_box = BoundingBox(1180.0, 30.0, 30.0, 70.0)
    red_duration, green_duration = 50.0, 70.0

    eastbound = (
        Route("eastbound", BoundingBox(0.0, 180.0, 60.0, 60.0),
              BoundingBox(1220.0, 180.0, 60.0, 60.0), 1.0, "west", "east"),
    )
    westbound = (
        Route("westbound", BoundingBox(1220.0, 400.0, 60.0, 60.0),
              BoundingBox(0.0, 400.0, 60.0, 60.0), 1.0, "east", "west"),
    )
    car_factory = _car_attribute_factory("HWY")

    config = SceneConfig(
        name="highway",
        duration=duration,
        fps=2.0,
        width=width,
        height=height,
        crossings=[
            CrossingPopulation(
                category="car",
                expected_count=2500.0 * scale * (duration_hours / 12.0),
                routes=eastbound,
                duration_range=(5.0, 20.0),
                tail_probability=0.02,
                tail_duration_range=(60.0, 370.0),
                hourly_weights=DAYTIME_PROFILE,
                box_size=(70.0, 40.0),
                attribute_factory=car_factory,
                label="eastbound",
            ),
            CrossingPopulation(
                category="car",
                expected_count=2300.0 * scale * (duration_hours / 12.0),
                routes=westbound,
                duration_range=(5.0, 20.0),
                tail_probability=0.02,
                tail_duration_range=(60.0, 370.0),
                hourly_weights=DAYTIME_PROFILE,
                box_size=(70.0, 40.0),
                attribute_factory=car_factory,
                label="westbound",
            ),
        ],
        lingerers=[
            LingerPopulation(
                category="car",
                count=max(1, int(round(10 * scale * (duration_hours / 12.0)))),
                zone=shoulder_zone,
                duration_range=(1800.0, 3600.0),
                box_size=(70.0, 40.0),
                attribute_factory=car_factory,
                label="shoulder-parking",
            ),
        ],
        statics=[
            _tree_population(_spread_boxes(7, 60.0, 80.0), with_leaves=3),
            StaticPopulation(category="traffic_light", boxes=(light_box,),
                             attributes=({"kind": "ramp-meter"},),
                             dynamic_attribute_factory=_traffic_light_factory(
                                 red_duration, green_duration)),
        ],
        metadata={"meters_per_pixel": 0.12, "location": "highway overpass"},
    )
    video = SceneSimulator(config, seed=seed).generate()
    region_scheme = RegionScheme(
        name="directions",
        regions=(
            Region("eastbound", BoundingBox(0.0, 0.0, width, 360.0)),
            Region("westbound", BoundingBox(0.0, 360.0, width, 360.0)),
        ),
        boundary=BoundaryType.HARD,
    )
    return Scenario(
        name="highway",
        video=video,
        detector_config=DetectorConfig(miss_rate=0.05, position_jitter=3.0),
        tracker_config=TrackerConfig(max_age=8, min_hits=3, iou_threshold=0.1),
        region_scheme=region_scheme,
        owner_mask=Mask(name="highway-shoulder-mask", regions=(shoulder_zone,)),
        linger_zones=(shoulder_zone,),
        traffic_light_box=light_box,
        red_light_duration=red_duration,
        metadata={"expected_cars": 4800 * scale},
    )


def urban_scenario(*, scale: float = 1.0, duration_hours: float = 12.0, seed: int = 13) -> Scenario:
    """Urban intersection: four crosswalks, a plaza with lingerers, poor detection.

    The paper's urban stream is the hardest for the detector (76% of objects
    missed in a frame, Fig. 2) yet tracking still produces a conservative
    maximum-duration estimate (Table 1).
    """
    duration = duration_hours * SECONDS_PER_HOUR
    width, height = 1280.0, 720.0
    plaza_zone = BoundingBox(1000.0, 480.0, 280.0, 240.0)
    light_box = BoundingBox(640.0, 30.0, 30.0, 70.0)
    red_duration, green_duration = 100.0, 60.0

    crosswalk_routes = {
        "north": (
            Route("north-we", BoundingBox(320.0, 80.0, 60.0, 50.0),
                  BoundingBox(900.0, 80.0, 60.0, 50.0), 1.0, "west", "east"),
            Route("north-ew", BoundingBox(900.0, 80.0, 60.0, 50.0),
                  BoundingBox(320.0, 80.0, 60.0, 50.0), 1.0, "east", "west"),
        ),
        "south": (
            Route("south-we", BoundingBox(320.0, 600.0, 60.0, 50.0),
                  BoundingBox(900.0, 600.0, 60.0, 50.0), 1.0, "west", "east"),
            Route("south-ew", BoundingBox(900.0, 600.0, 60.0, 50.0),
                  BoundingBox(320.0, 600.0, 60.0, 50.0), 1.0, "east", "west"),
        ),
        "west": (
            Route("west-sn", BoundingBox(200.0, 560.0, 60.0, 50.0),
                  BoundingBox(200.0, 120.0, 60.0, 50.0), 1.0, "south", "north"),
            Route("west-ns", BoundingBox(200.0, 120.0, 60.0, 50.0),
                  BoundingBox(200.0, 560.0, 60.0, 50.0), 1.0, "north", "south"),
        ),
        "east": (
            Route("east-sn", BoundingBox(1020.0, 560.0, 60.0, 50.0),
                  BoundingBox(1020.0, 120.0, 60.0, 50.0), 1.0, "south", "north"),
            Route("east-ns", BoundingBox(1020.0, 120.0, 60.0, 50.0),
                  BoundingBox(1020.0, 560.0, 60.0, 50.0), 1.0, "north", "south"),
        ),
    }
    crossings = [
        CrossingPopulation(
            category="person",
            expected_count=1100.0 * scale * (duration_hours / 12.0),
            routes=routes,
            duration_range=(15.0, 200.0),
            hourly_weights=DAYTIME_PROFILE,
            revisit_probability=0.05,
            box_size=(28.0, 56.0),
            label=f"crosswalk-{name}",
        )
        for name, routes in crosswalk_routes.items()
    ]

    config = SceneConfig(
        name="urban",
        duration=duration,
        fps=2.0,
        width=width,
        height=height,
        crossings=crossings,
        lingerers=[
            LingerPopulation(
                category="person",
                count=max(1, int(round(25 * scale * (duration_hours / 12.0)))),
                zone=plaza_zone,
                duration_range=(220.0, 340.0),
                box_size=(28.0, 56.0),
                label="plaza",
            ),
        ],
        statics=[
            _tree_population(_spread_boxes(6, 10.0, 100.0), with_leaves=4),
            StaticPopulation(category="traffic_light", boxes=(light_box,),
                             attributes=({"kind": "intersection"},),
                             dynamic_attribute_factory=_traffic_light_factory(
                                 red_duration, green_duration)),
        ],
        metadata={"meters_per_pixel": 0.06, "location": "urban intersection"},
    )
    video = SceneSimulator(config, seed=seed).generate()
    region_scheme = RegionScheme(
        name="crosswalks",
        regions=(
            Region("north-crosswalk", BoundingBox(260.0, 0.0, 760.0, 180.0)),
            Region("south-crosswalk", BoundingBox(260.0, 540.0, 760.0, 180.0)),
            Region("west-crosswalk", BoundingBox(0.0, 0.0, 260.0, height)),
            Region("east-crosswalk", BoundingBox(1020.0, 0.0, 260.0, height)),
        ),
        boundary=BoundaryType.SOFT,
    )
    return Scenario(
        name="urban",
        video=video,
        detector_config=DetectorConfig(miss_rate=0.76, position_jitter=3.0),
        tracker_config=TrackerConfig(max_age=32, min_hits=2, iou_threshold=0.1),
        region_scheme=region_scheme,
        owner_mask=Mask(name="urban-plaza-mask", regions=(plaza_zone,)),
        linger_zones=(plaza_zone,),
        traffic_light_box=light_box,
        red_light_duration=red_duration,
        metadata={"expected_people": 4300 * scale},
    )


def _extended_scenario(name: str, *, category: str, expected_count: float,
                       crossing_range: tuple[float, float],
                       linger_count: int, linger_range: tuple[float, float],
                       linger_zone: BoundingBox, miss_rate: float,
                       duration_hours: float, seed: int) -> Scenario:
    """Shared builder for the BlazeIt / MIRIS style presets of Appendix F."""
    duration = duration_hours * SECONDS_PER_HOUR
    width, height = 1280.0, 720.0
    routes = (
        Route("left-right", BoundingBox(0.0, 300.0, 60.0, 60.0),
              BoundingBox(1220.0, 300.0, 60.0, 60.0), 1.0, "west", "east"),
        Route("right-left", BoundingBox(1220.0, 360.0, 60.0, 60.0),
              BoundingBox(0.0, 360.0, 60.0, 60.0), 1.0, "east", "west"),
    )
    attribute_factory = _car_attribute_factory(name.upper()[:3]) if category in ("car", "taxi") else None
    config = SceneConfig(
        name=name,
        duration=duration,
        fps=2.0,
        width=width,
        height=height,
        crossings=[
            CrossingPopulation(
                category=category,
                expected_count=expected_count,
                routes=routes,
                duration_range=crossing_range,
                hourly_weights=DAYTIME_PROFILE,
                box_size=(40.0, 50.0),
                attribute_factory=attribute_factory,
            ),
        ],
        lingerers=[
            LingerPopulation(
                category=category,
                count=linger_count,
                zone=linger_zone,
                duration_range=linger_range,
                box_size=(40.0, 50.0),
                attribute_factory=attribute_factory,
            ),
        ] if linger_count > 0 else [],
        metadata={"preset": "extended"},
    )
    video = SceneSimulator(config, seed=seed).generate()
    return Scenario(
        name=name,
        video=video,
        detector_config=DetectorConfig(miss_rate=miss_rate, position_jitter=3.0),
        tracker_config=TrackerConfig(max_age=16, min_hits=2, iou_threshold=0.1),
        owner_mask=Mask(name=f"{name}-linger-mask", regions=(linger_zone,)),
        linger_zones=(linger_zone,),
        metadata={"source": "extended-dataset"},
    )


def grand_canal_scenario(*, duration_hours: float = 2.0, seed: int = 21) -> Scenario:
    """BlazeIt ``venice-grand-canal``: slow boats, a large fraction linger (moored)."""
    return _extended_scenario(
        "grand-canal", category="car", expected_count=300.0 * duration_hours / 2.0,
        crossing_range=(60.0, 300.0), linger_count=int(200 * duration_hours / 2.0),
        linger_range=(900.0, 2400.0),
        linger_zone=BoundingBox(0.0, 300.0, 1280.0, 420.0),
        miss_rate=0.15, duration_hours=duration_hours, seed=seed)


def venice_rialto_scenario(*, duration_hours: float = 2.0, seed: int = 22) -> Scenario:
    """BlazeIt ``venice-rialto``: busy pedestrian bridge, small moored area."""
    return _extended_scenario(
        "venice-rialto", category="person", expected_count=1500.0 * duration_hours / 2.0,
        crossing_range=(30.0, 180.0), linger_count=int(30 * duration_hours / 2.0),
        linger_range=(1200.0, 3000.0),
        linger_zone=BoundingBox(1100.0, 500.0, 180.0, 220.0),
        miss_rate=0.2, duration_hours=duration_hours, seed=seed)


def taipei_scenario(*, duration_hours: float = 2.0, seed: int = 23) -> Scenario:
    """BlazeIt ``taipei-hires``: dense vehicle traffic, stopped vehicles at a light."""
    return _extended_scenario(
        "taipei", category="car", expected_count=2000.0 * duration_hours / 2.0,
        crossing_range=(8.0, 60.0), linger_count=int(15 * duration_hours / 2.0),
        linger_range=(600.0, 1800.0),
        linger_zone=BoundingBox(400.0, 500.0, 480.0, 220.0),
        miss_rate=0.1, duration_hours=duration_hours, seed=seed)


def shibuya_scenario(*, duration_hours: float = 2.0, seed: int = 24) -> Scenario:
    """MIRIS ``shibuya``: very busy crossing, short waits at the curb."""
    return _extended_scenario(
        "shibuya", category="person", expected_count=2500.0 * duration_hours / 2.0,
        crossing_range=(20.0, 90.0), linger_count=int(40 * duration_hours / 2.0),
        linger_range=(300.0, 1200.0),
        linger_zone=BoundingBox(0.0, 560.0, 300.0, 160.0),
        miss_rate=0.25, duration_hours=duration_hours, seed=seed)


def beach_scenario(*, duration_hours: float = 2.0, seed: int = 25) -> Scenario:
    """MIRIS ``beach``: strollers plus sunbathers staying put for a long time."""
    return _extended_scenario(
        "beach", category="person", expected_count=600.0 * duration_hours / 2.0,
        crossing_range=(60.0, 240.0), linger_count=int(30 * duration_hours / 2.0),
        linger_range=(1200.0, 2600.0),
        linger_zone=BoundingBox(200.0, 400.0, 400.0, 300.0),
        miss_rate=0.2, duration_hours=duration_hours, seed=seed)


def warsaw_scenario(*, duration_hours: float = 2.0, seed: int = 26) -> Scenario:
    """MIRIS ``warsaw``: vehicles at a junction with a stopped-traffic pocket."""
    return _extended_scenario(
        "warsaw", category="car", expected_count=1200.0 * duration_hours / 2.0,
        crossing_range=(10.0, 90.0), linger_count=int(20 * duration_hours / 2.0),
        linger_range=(900.0, 2000.0),
        linger_zone=BoundingBox(900.0, 100.0, 380.0, 260.0),
        miss_rate=0.12, duration_hours=duration_hours, seed=seed)


def uav_scenario(*, duration_hours: float = 1.0, seed: int = 27) -> Scenario:
    """MIRIS ``uav``: aerial footage, sparse objects, large lingering footprint."""
    return _extended_scenario(
        "uav", category="car", expected_count=200.0 * duration_hours,
        crossing_range=(20.0, 120.0), linger_count=int(40 * duration_hours),
        linger_range=(400.0, 1500.0),
        linger_zone=BoundingBox(200.0, 100.0, 900.0, 400.0),
        miss_rate=0.3, duration_hours=duration_hours, seed=seed)


_PRIMARY_BUILDERS: dict[str, Callable[..., Scenario]] = {
    "campus": campus_scenario,
    "highway": highway_scenario,
    "urban": urban_scenario,
}

_EXTENDED_BUILDERS: dict[str, Callable[..., Scenario]] = {
    "grand-canal": grand_canal_scenario,
    "venice-rialto": venice_rialto_scenario,
    "taipei": taipei_scenario,
    "shibuya": shibuya_scenario,
    "beach": beach_scenario,
    "warsaw": warsaw_scenario,
    "uav": uav_scenario,
}

SCENARIO_NAMES: tuple[str, ...] = tuple(_PRIMARY_BUILDERS) + tuple(_EXTENDED_BUILDERS)


def build_scenario(name: str, **kwargs: Any) -> Scenario:
    """Build any scenario preset by name."""
    builders = {**_PRIMARY_BUILDERS, **_EXTENDED_BUILDERS}
    if name not in builders:
        raise ValueError(f"unknown scenario {name!r}; choose from {sorted(builders)}")
    return builders[name](**kwargs)
