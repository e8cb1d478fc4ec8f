"""Tests for scene objects, trajectories, (rho, K) ground-truth bounds and
the simulator's population parameters."""

from dataclasses import replace

import pytest

from repro.scene.objects import (
    Appearance,
    SceneObject,
    max_appearance_count_of,
    max_duration_of,
)
from repro.scene.schedules import AttributeSchedule, CyclicSchedule
from repro.scene.simulator import CrossingPopulation, Route, SceneConfig, SceneSimulator
from repro.scene.trajectory import LinearTrajectory, StationaryTrajectory
from repro.utils.timebase import TimeInterval
from repro.video.geometry import BoundingBox


def _object_with_segments(segments: list[tuple[float, float]], category: str = "person"):
    box = BoundingBox(10, 10, 20, 40)
    appearances = [Appearance(interval=TimeInterval(start, end),
                              trajectory=StationaryTrajectory(box))
                   for start, end in segments]
    return SceneObject(object_id="obj", category=category, appearances=appearances)


class TestTrajectories:
    def test_stationary(self):
        box = BoundingBox(1, 2, 3, 4)
        trajectory = StationaryTrajectory(box)
        assert trajectory.box_at(0.0) == box
        assert trajectory.box_at(100.0) == box

    def test_linear_interpolates(self):
        trajectory = LinearTrajectory(BoundingBox(0, 0, 10, 10), BoundingBox(100, 0, 10, 10), 10.0)
        assert trajectory.box_at(5.0).x == pytest.approx(50.0)

    def test_linear_clamps_outside_duration(self):
        trajectory = LinearTrajectory(BoundingBox(0, 0, 10, 10), BoundingBox(100, 0, 10, 10), 10.0)
        assert trajectory.box_at(-5.0).x == 0.0
        assert trajectory.box_at(50.0).x == 100.0

    def test_linear_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            LinearTrajectory(BoundingBox(0, 0, 1, 1), BoundingBox(1, 1, 1, 1), 0.0)


class TestSceneObject:
    def test_visibility_and_box(self):
        obj = _object_with_segments([(10, 40)])
        assert obj.appearances[0].visible_at(20)
        assert not obj.appearances[0].visible_at(50)
        assert obj.box_at(20) is not None
        assert obj.box_at(50) is None

    def test_duration_properties(self):
        obj = _object_with_segments([(0, 30), (100, 110)])
        assert obj.max_appearance_duration == 30
        assert obj.num_appearances == 2

    def test_is_bounded_by(self):
        obj = _object_with_segments([(0, 30), (100, 110)])
        assert obj.is_bounded_by(30, 2)
        assert not obj.is_bounded_by(29, 2)
        assert not obj.is_bounded_by(30, 1)

    def test_tightest_bound(self):
        obj = _object_with_segments([(0, 30), (100, 110)])
        assert obj.tightest_bound() == (30, 2)

    def test_private_categories(self):
        assert _object_with_segments([(0, 1)], category="person").is_private
        assert _object_with_segments([(0, 1)], category="car").is_private
        assert not _object_with_segments([(0, 1)], category="tree").is_private

    def test_appearances_within(self):
        obj = _object_with_segments([(0, 30), (100, 110)])
        assert len(obj.appearances_within(TimeInterval(20, 50))) == 1
        assert len(obj.appearances_within(TimeInterval(0, 200))) == 2
        assert obj.appearances_within(TimeInterval(40, 90)) == []

    def test_a_schedule_must_evaluate_batches(self):
        class ScalarOnly(AttributeSchedule):
            def value_at(self, timestamp):
                return "ON"

        with pytest.raises(TypeError, match="values_at"):
            ScalarOnly()

    def test_dynamic_attributes(self):
        obj = _object_with_segments([(0, 100)])
        obj.dynamic_attributes["state"] = CyclicSchedule((("RED", 50.0), ("GREEN", 50.0)))
        obj.attributes["kind"] = "light"
        assert obj.attributes_at(10) == {"kind": "light", "state": "RED"}
        assert obj.attributes_at(60)["state"] == "GREEN"

    def test_helpers_over_collections(self):
        objects = [
            _object_with_segments([(0, 30)]),
            _object_with_segments([(0, 45), (50, 60)]),
            _object_with_segments([(0, 500)], category="tree"),
        ]
        assert max_duration_of(objects) == 45
        assert max_appearance_count_of(objects) == 2


_ROUTE = Route("r", BoundingBox(0, 300, 40, 40), BoundingBox(1200, 300, 40, 40))
_INF, _NAN = float("inf"), float("nan")


def _crossing(**overrides) -> CrossingPopulation:
    return CrossingPopulation(**{"category": "person", "expected_count": 20.0,
                                 "routes": (_ROUTE,), **overrides})


def _rejected(field: str, value: str, **overrides) -> None:
    """The population is refused at construction, naming the field and the value."""
    with pytest.raises(ValueError) as caught:
        _crossing(**overrides)
    assert field in str(caught.value) and value in str(caught.value)


class TestCrossingPopulationValidation:
    """Parameters that used to fail deep inside ``generate()`` or silently
    build a wrong scene are refused by ``CrossingPopulation`` itself."""

    @pytest.mark.parametrize("count", [_NAN, _INF, -1.0])
    def test_expected_count_is_finite_and_non_negative(self, count):
        _rejected("expected_count", repr(count), expected_count=count)

    @pytest.mark.parametrize("weights", [(0.0,), (0.0, 0.0), (_NAN, 1.0), (-1.0, 2.0),
                                         (_INF, 1.0)])
    def test_route_weights_are_finite_non_negative_with_a_positive_sum(self, weights):
        routes = tuple(replace(_ROUTE, weight=weight) for weight in weights)
        _rejected("routes", repr(weights), routes=routes)

    @pytest.mark.parametrize("weights", [(1.0, -0.5), (_NAN, 1.0), (1.0, _INF)])
    def test_hourly_weights_are_finite_and_non_negative(self, weights):
        _rejected("hourly_weights", repr(weights), hourly_weights=weights)

    @pytest.mark.parametrize("field", ["tail_probability", "revisit_probability"])
    @pytest.mark.parametrize("probability", [-0.1, 1.5, _NAN])
    def test_probabilities_lie_in_the_unit_interval(self, field, probability):
        _rejected(field, repr(probability), **{field: probability})

    @pytest.mark.parametrize("field", ["duration_range", "tail_duration_range"])
    @pytest.mark.parametrize("bounds", [(-5.0, 10.0), (0.0, 10.0), (20.0, 10.0),
                                        (10.0, _INF), (_NAN, 10.0)])
    def test_ranges_are_ordered_positive_and_finite(self, field, bounds):
        _rejected(field, repr(bounds), **{field: bounds})

    def test_all_zero_hourly_profile_keeps_uniform_arrivals(self):
        config = SceneConfig(name="flat", duration=7200.0, crossings=[
            _crossing(hourly_weights=(0.0, 0.0), label="walkers")])
        uniform = SceneConfig(name="flat", duration=7200.0, crossings=[
            _crossing(label="walkers")])
        scenes = [SceneSimulator(each, seed=3).generate() for each in (config, uniform)]
        assert len(scenes[0].objects) > 0
        assert scenes[0].content_fingerprint() == scenes[1].content_fingerprint()
