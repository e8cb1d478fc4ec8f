"""Tests for the owner analysis tools: persistence, masks, regions, policy estimation."""

import math
import threading
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.mask_policy import (
    choose_mask_for_target,
    greedy_mask_ordering,
    mask_from_ordering,
)
from repro.analysis.persistence import (
    MaskedPersistence,
    masked_persistence,
    persistence_heatmap,
    persistence_histogram,
)
from repro.analysis.policy_estimation import build_mask_policy_map, estimate_policy
from repro.analysis.region_analysis import analyze_region_ranges
from repro.evaluation.runner import scenario_policy_map
from repro.scene.objects import PRIVATE_CATEGORIES, Appearance, SceneObject
from repro.scene.scenarios import build_scenario
from repro.scene.trajectory import LinearTrajectory, StationaryTrajectory
from repro.utils.timebase import TimeInterval
from repro.video.geometry import BoundingBox
from repro.video.masking import Mask
from repro.video.video import SyntheticVideo

from tests.conftest import make_crossing_object, make_simple_video, make_stationary_object


@pytest.fixture()
def lingering_video():
    """Crossers (short) plus one long lingerer in a corner zone."""
    objects = [
        make_crossing_object("w1", start=10, duration=30),
        make_crossing_object("w2", start=100, duration=40, x=700.0),
        make_crossing_object("w3", start=300, duration=35, x=500.0),
        make_stationary_object("parked", start=0, duration=550,
                               box=BoundingBox(60.0, 520.0, 60.0, 60.0)),
    ]
    return make_simple_video(objects=objects)


CORNER_MASK = Mask(name="corner", regions=(BoundingBox(0.0, 480.0, 200.0, 240.0),))


class TestPersistence:
    def test_heatmap_hotspot_is_lingering_zone(self, lingering_video):
        heatmap = persistence_heatmap(lingering_video, cell_size=80.0)
        hottest = heatmap.hottest_cells(1)[0]
        hottest_box = heatmap.grid.cell_box(hottest)
        assert hottest_box.intersection_area(BoundingBox(60.0, 520.0, 60.0, 60.0)) > 0

    def test_histogram_sums_to_one(self):
        _, frequency = persistence_histogram([10, 20, 30, 200, 400])
        assert frequency.sum() == pytest.approx(1.0)

    def test_histogram_empty(self):
        _, frequency = persistence_histogram([])
        assert frequency.sum() == 0.0

    def test_masked_persistence_reduces_max_and_retains_crossers(self, lingering_video):
        report = masked_persistence(lingering_video, CORNER_MASK)
        assert report.original_max == pytest.approx(550.0)
        assert report.masked_max <= 45.0
        assert report.reduction_factor > 10.0
        assert report.objects_after == 3
        assert report.retention_fraction == pytest.approx(0.75)

    def test_empty_mask_changes_nothing(self, lingering_video):
        report = masked_persistence(lingering_video, Mask(name="none"))
        assert report.reduction_factor == pytest.approx(1.0)
        assert report.objects_after == report.objects_before


@pytest.mark.parametrize("period", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("tool", [
    pytest.param(lambda video, period: masked_persistence(video, CORNER_MASK,
                                                          sample_period=period),
                 id="masked_persistence"),
    pytest.param(lambda video, period: persistence_heatmap(video, cell_size=80.0,
                                                           sample_period=period),
                 id="persistence_heatmap"),
    pytest.param(lambda video, period: greedy_mask_ordering(video, cell_size=100.0,
                                                            sample_period=period, max_cells=3),
                 id="greedy_mask_ordering"),
])
def test_a_sample_period_must_be_positive_and_finite(lingering_video, tool, period):
    """Zero or a negative step never ends a walk, and NaN or infinity ends it
    with a wrong answer: each is refused by name.  The call runs in a daemon
    thread so a walk that never returns fails the test instead of hanging it."""
    outcome = []

    def call():
        try:
            tool(lingering_video, period)
            outcome.append("returned")
        except ValueError as error:
            outcome.append(str(error))

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout=5.0)
    assert not worker.is_alive(), "the walk never returned"
    assert len(outcome) == 1 and repr(period) in outcome[0], outcome


# ------------------------------------------------- owner's sampler vs the walk

def oracle_masked_visible_seconds(scene_object, mask, sample_period):
    """Longest contiguous visible run of an object once the mask is applied,
    walked one sample at a time (the scalar reference for the table pass)."""
    longest = 0.0
    for appearance in scene_object.appearances:
        current = 0.0
        timestamp = appearance.interval.start
        while timestamp < appearance.interval.end:
            box = appearance.box_at(timestamp)
            if box is not None and not mask.hides(box):
                current += sample_period
                longest = max(longest, current)
            else:
                current = 0.0
            timestamp += sample_period
    return longest


def oracle_masked_persistence(video, mask, sample_period, categories):
    allowed = frozenset(categories) if categories is not None else PRIVATE_CATEGORIES
    objects = [scene_object for scene_object in video.objects
               if scene_object.category in allowed]
    original = [scene_object.max_appearance_duration for scene_object in objects]
    masked = [oracle_masked_visible_seconds(scene_object, mask, sample_period)
              for scene_object in objects]
    surviving = [duration for duration in masked if duration > 0]
    return MaskedPersistence(
        original_durations=tuple(original), masked_durations=tuple(masked),
        original_max=max(original, default=0.0), masked_max=max(surviving, default=0.0),
        objects_before=len(objects), objects_after=len(surviving))


@st.composite
def _owner_scenes(draw):
    """Objects with 0-3 appearances each (overlapping, or empty when start ==
    end) of both trajectory kinds.  Boxes sit on the masks' 40-pixel lattice in
    the frame's top-left quarter, so a covered fraction often lands exactly on
    the threshold."""
    def box():
        return BoundingBox(40.0 * draw(st.integers(-1, 16)), 40.0 * draw(st.integers(-1, 9)),
                           40.0 * draw(st.integers(0, 3)), 40.0 * draw(st.integers(0, 3)))

    def trajectory(duration):
        if draw(st.booleans()):
            return StationaryTrajectory(box())
        return LinearTrajectory(start=box(), end=box(), duration=draw(
            st.sampled_from([duration or 1.0, 7.5, 40.0])))

    objects = []
    for number in range(draw(st.integers(0, 6))):
        appearances = []
        for _ in range(draw(st.integers(0, 3))):
            start = draw(st.integers(0, 900)) / 10.0
            duration = draw(st.sampled_from([0.0, 0.05, 1.0, 2.9, 12.3, 45.0]))
            appearances.append(Appearance(interval=TimeInterval(start, start + duration),
                                          trajectory=trajectory(duration)))
        objects.append(SceneObject(object_id=f"o{number}", appearances=appearances,
                                   category=draw(st.sampled_from(["person", "car", "tree"]))))
    return make_simple_video(objects=objects, duration=180.0)


@st.composite
def _owner_masks(draw):
    """0-3 disjoint regions, each inside its own 160 x 120 cell of the top-left quarter."""
    cells = draw(st.lists(st.integers(0, 11), max_size=3, unique=True))
    return Mask(name="m", hide_threshold=draw(st.sampled_from([0.25, 0.5, 1.0])), regions=tuple(
        BoundingBox(160.0 * (cell % 4), 120.0 * (cell // 4),
                    draw(st.sampled_from([80.0, 160.0])), draw(st.sampled_from([40.0, 120.0])))
        for cell in cells))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_masked_persistence_equals_the_scalar_walk(data):
    """Field for field, bits included, whatever the block size: instants are
    running sums, a run is ``sample_period`` added once per visible sample,
    and runs restart at every appearance."""
    video = data.draw(_owner_scenes())
    mask = data.draw(_owner_masks())
    period = data.draw(st.sampled_from([30.0, 2.0, 1.0, 0.7, 1 / 3, 0.1]))
    categories = data.draw(st.sampled_from([None, {"person"}, {"person", "tree"}]))
    with patch.object(SyntheticVideo, "_INSTANTS_PER_BLOCK",
                      data.draw(st.sampled_from([1, 7, 64, 4096]))):
        report = masked_persistence(video, mask, sample_period=period, categories=categories)
    assert repr(report) == repr(oracle_masked_persistence(video, mask, period, categories))


def test_masked_persistence_makes_no_per_sample_call(monkeypatch, campus_small):
    """Built-in trajectories only: no scalar box or mask call at all, and one
    ``hides_boxes`` call per block of instants."""
    instants = 0
    for scene_object in (o for o in campus_small.video.objects if o.is_private):
        for appearance in scene_object.appearances:
            timestamp = appearance.interval.start
            while timestamp < appearance.interval.end:
                instants += 1
                timestamp += 1.0
    calls = Counter()

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    for owner, name in ((Mask, "hides"), (Mask, "hides_boxes"), (Appearance, "box_at"),
                        (SceneObject, "box_at"), (LinearTrajectory, "box_at"),
                        (StationaryTrajectory, "box_at")):
        monkeypatch.setattr(owner, name, counted(f"{owner.__name__}.{name}",
                                                 getattr(owner, name)))
    monkeypatch.setattr(SyntheticVideo, "_INSTANTS_PER_BLOCK", 64)
    report = masked_persistence(campus_small.video, campus_small.owner_mask)
    assert report.objects_after > 0 and instants > 4 * 64
    assert set(calls) == {"Mask.hides_boxes"}
    assert calls["Mask.hides_boxes"] <= math.ceil(instants / 64)


def test_benchmark_scene_policies_are_pinned():
    """Every benchmark release's noise scale rests on these values: the
    benchmark's two scenes (sizes copied from ``benchmarks/system/spec.py``)
    and the exact ``repr`` of each mask's rho."""
    expected = {
        ("campus", 0.5, 7): {"none": "255.64954382066728", "owner": "51.45",
                             "traffic-light-only": "0.0"},
        ("highway", 0.3, 11): {"none": "3050.166560941826", "owner": "368.55",
                               "traffic-light-only": "0.0"},
    }
    for (name, scale, seed), rhos in expected.items():
        scenario = build_scenario(name, scale=scale, duration_hours=24, seed=seed)
        policy_map = scenario_policy_map(scenario, k_segments=1)
        assert {mask: repr(policy.rho) for mask, (_, policy) in policy_map.entries.items()} \
            == rhos, name


class TestGreedyMaskOrdering:
    def test_ordering_reduces_persistence_monotonically(self, lingering_video):
        _, steps = greedy_mask_ordering(lingering_video, cell_size=100.0, max_cells=20)
        maxima = [step.max_persistence for step in steps]
        assert all(later <= earlier + 1e-9 for earlier, later in zip(maxima, maxima[1:]))

    def test_first_cells_target_the_lingerer(self, lingering_video):
        grid, steps = greedy_mask_ordering(lingering_video, cell_size=100.0, max_cells=3)
        first_cell_box = grid.cell_box(steps[0].cell_index)
        assert first_cell_box.intersection_area(BoundingBox(60.0, 520.0, 60.0, 60.0)) > 0

    def test_mask_from_ordering(self, lingering_video):
        grid, steps = greedy_mask_ordering(lingering_video, cell_size=100.0, max_cells=5)
        mask = mask_from_ordering(grid, steps, num_cells=2)
        assert len(mask.regions) == 2

    def test_choose_mask_for_target(self, lingering_video):
        grid, steps = greedy_mask_ordering(lingering_video, cell_size=100.0, max_cells=30)
        mask, reached = choose_mask_for_target(grid, steps, target_max_persistence=60.0)
        assert reached is not None
        assert reached.max_persistence <= 60.0
        assert not mask.is_empty

    def test_retention_fraction_bounded(self, lingering_video):
        _, steps = greedy_mask_ordering(lingering_video, cell_size=100.0, max_cells=10)
        assert all(0.0 <= step.retention_fraction <= 1.0 for step in steps)


class TestRegionAnalysis:
    def test_splitting_reduces_or_preserves_max(self, campus_small):
        analysis = analyze_region_ranges(campus_small.video, campus_small.region_scheme,
                                         chunk_duration=60.0,
                                         window=TimeInterval(0, 1800))
        assert analysis.max_per_region <= analysis.max_per_frame
        assert analysis.reduction_factor >= 1.0

    def test_per_region_maxima_reported(self, campus_small):
        analysis = analyze_region_ranges(campus_small.video, campus_small.region_scheme,
                                         chunk_duration=60.0,
                                         window=TimeInterval(0, 900))
        assert set(analysis.per_region_maxima) == {
            region.name for region in campus_small.region_scheme.regions}


class TestPolicyEstimation:
    def test_estimate_is_conservative(self, campus_small):
        estimate = estimate_policy(
            campus_small.video,
            detector_config=campus_small.detector_config,
            tracker_config=campus_small.tracker_config,
            window=TimeInterval(0, 900),
            sample_period=1.0,
        )
        assert estimate.estimate.is_conservative
        assert estimate.policy.rho >= estimate.estimate.ground_truth_max

    def test_masked_policy_has_smaller_rho(self, campus_small):
        policy_map = build_mask_policy_map(
            campus_small.video,
            detector_config=campus_small.detector_config,
            tracker_config=campus_small.tracker_config,
            masks={"owner": campus_small.owner_mask},
            window=TimeInterval(0, 900),
            sample_period=1.0,
        )
        unmasked = policy_map.lookup(None)[1]
        masked = policy_map.lookup("owner")[1]
        assert masked.rho <= unmasked.rho
