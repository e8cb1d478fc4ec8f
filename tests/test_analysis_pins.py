"""Pinned answers of the owner's analysis tools (Table 1, Tables 4/5, Fig. 4,
Fig. 11).

Policy estimation (paper §5.2) and tracker tuning (Appendix A) run the
detector and the tracker over a window of historical footage.  These values
were recorded from the per-frame implementation the analysis used to run on
and must not move when the frame path underneath changes: every estimate,
track count, miss count, policy rho and tuning row below is exact.

Scenes: ``build_scenario(name, scale=1.0, seed=7)`` (12 hours), Table 1's
settings — the first 600 s, one frame per second, detector seed 0.

The Fig. 4 persistence histograms and the Fig. 11 greedy mask ordering are
pinned on one small scene, ``build_scenario("campus", scale=0.2,
duration_hours=1.0, seed=7)``, with the benches' settings (default bins;
80-pixel cells sampled every 2 s).
"""

from __future__ import annotations

import pytest

from repro.analysis.mask_policy import greedy_mask_ordering
from repro.analysis.persistence import masked_persistence, persistence_histogram
from repro.analysis.policy_estimation import estimate_policy
from repro.cv.detector import SyntheticDetector
from repro.cv.tuning import tune_tracker
from repro.evaluation.runner import scenario_policy_map
from repro.scene.scenarios import build_scenario
from repro.utils.timebase import TimeInterval
from repro.video.geometry import BoundingBox
from repro.video.masking import EMPTY_MASK, Mask

WINDOW = TimeInterval(0.0, 600.0)
#: The Tables 4/5 bench's grid.
GRID = {"max_age": (8, 16, 32), "min_hits": (2, 3, 5), "iou_threshold": (0.1, 0.3)}
LEFT_HALF = Mask(name="left-half", regions=(BoundingBox(0.0, 0.0, 640.0, 720.0),))

#: (scene, mask) -> (estimated_max, ground_truth_max, num_tracks,
#: (missed, total) object-frames, ground-truth objects).
ESTIMATES = {
    ("campus", None): (77.0, 47.56021339255116, 10, (117, 378), 10),
    ("highway", None): (20.0, 19.21829582439011, 1, (7, 206), 18),
    ("urban", None): (259.0, 196.95635380618887, 23, (1907, 2497), 23),
    ("campus", "left-half"): (77.0, 47.56021339255116, 5, (65, 192), 5),
    ("urban", "owner"): (259.0, 196.95635380618887, 22, (1728, 2268), 23),
    # The owner mask hides none of campus's first 600 s: the unmasked row.
    ("campus", "owner"): (77.0, 47.56021339255116, 10, (117, 378), 10),
}

#: Every row of tune_tracker over the grid, best first:
#: (max_age, min_hits, iou_threshold, distance, num_tracks, estimated_max).
TUNING = {
    "campus": [
        (8, 2, 0.1, 2.054078675210634, 10, 45.0),
        (8, 3, 0.1, 2.054078675210634, 10, 45.0),
        (8, 5, 0.1, 2.054078675210634, 10, 45.0),
        (16, 2, 0.1, 2.054078675210634, 10, 45.0),
        (16, 3, 0.1, 2.054078675210634, 10, 45.0),
        (16, 5, 0.1, 2.054078675210634, 10, 45.0),
        (32, 2, 0.1, 2.054078675210634, 10, 45.0),
        (32, 3, 0.1, 2.054078675210634, 10, 45.0),
        (32, 5, 0.1, 2.054078675210634, 10, 45.0),
        (8, 3, 0.3, 3.3840786752106338, 10, 45.0),
        (8, 5, 0.3, 3.3840786752106338, 10, 45.0),
        (16, 3, 0.3, 3.3840786752106338, 10, 45.0),
        (16, 5, 0.3, 3.3840786752106338, 10, 45.0),
        (32, 3, 0.3, 3.3840786752106338, 10, 45.0),
        (32, 5, 0.3, 3.3840786752106338, 10, 45.0),
        (8, 2, 0.3, 5.726157883131426, 11, 45.0),
        (16, 2, 0.3, 5.726157883131426, 11, 45.0),
        (32, 2, 0.3, 5.726157883131426, 11, 45.0),
    ],
    "highway": [
        (16, 2, 0.1, 4.663764505473943, 26, 24.0),
        (16, 2, 0.3, 5.3592853283780855, 12, 16.0),
        (8, 3, 0.1, 7.159285328378085, 1, 4.0),
        (8, 2, 0.1, 7.319186318477095, 22, 8.0),
        (8, 2, 0.3, 8.21591899174442, 9, 6.0),
        (32, 2, 0.3, 9.00498452324526, 30, 31.0),
        (16, 3, 0.1, 9.101124555938298, 5, 24.0),
        (32, 2, 0.1, 10.151076561761585, 43, 63.0),
        (8, 5, 0.1, 11.222437950082117, 0, 0.0),
        (16, 5, 0.1, 11.222437950082117, 0, 0.0),
        (8, 3, 0.3, 11.222437950082117, 0, 0.0),
        (8, 5, 0.3, 11.222437950082117, 0, 0.0),
        (16, 3, 0.3, 11.222437950082117, 0, 0.0),
        (16, 5, 0.3, 11.222437950082117, 0, 0.0),
        (32, 3, 0.3, 11.222437950082117, 0, 0.0),
        (32, 5, 0.3, 11.222437950082117, 0, 0.0),
        (32, 3, 0.1, 22.386949008914492, 8, 63.0),
        (32, 5, 0.1, 51.84071467162192, 1, 63.0),
    ],
}


@pytest.fixture(scope="module")
def scenes():
    return {name: build_scenario(name, scale=1.0, seed=7)
            for name in ("campus", "highway", "urban")}


@pytest.mark.parametrize("name, mask_name", list(ESTIMATES))
def test_estimate_policy_answers_are_pinned(scenes, name, mask_name):
    scenario = scenes[name]
    mask = {None: EMPTY_MASK, "left-half": LEFT_HALF, "owner": scenario.owner_mask}[mask_name]
    estimate = estimate_policy(scenario.video, detector_config=scenario.detector_config,
                               tracker_config=scenario.tracker_config, window=WINDOW,
                               mask=mask, sample_period=1.0).estimate
    estimated_max, ground_truth_max, num_tracks, (missed, total), objects = \
        ESTIMATES[name, mask_name]
    assert estimate.estimated_max == estimated_max
    assert estimate.ground_truth_max == ground_truth_max
    assert estimate.num_tracks == num_tracks
    assert estimate.miss_fraction == missed / total
    assert estimate.num_ground_truth_objects == objects


def test_cv_estimated_policy_map_rhos_are_pinned(scenes):
    policy_map = scenario_policy_map(scenes["campus"], use_cv_estimation=True)
    rhos = {name: policy.rho for name, (_, policy) in policy_map.entries.items()}
    assert rhos == {"none": 77.0, "owner": 77.0, "traffic-light-only": 0.0}


@pytest.mark.parametrize("name", list(TUNING))
def test_tune_tracker_rows_are_pinned(scenes, name):
    scenario = scenes[name]
    detector = SyntheticDetector(scenario.detector_config, seed=0)
    detections = detector.detect_batch(scenario.video.frame_batch(WINDOW, sample_period=1.0),
                                       categories=("person", "car"))
    results = tune_tracker(detections, scenario.video.objects_overlapping(WINDOW), grid=GRID)
    rows = [tuple(result.as_row().values()) for result in results]
    assert rows == TUNING[name]


#: Fig. 4 on the small campus: (bin_edges, relative_frequency) of the
#: log-persistence histogram, without and with the owner mask.
HISTOGRAMS = {
    "original": (
        [0.0, 0.375, 0.75, 1.125, 1.5, 1.875, 2.25, 2.625, 3.0, 3.375, 3.75, 4.125, 4.5,
         4.875, 5.25, 5.625, 6.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.043478260869565216, 0.30434782608695654,
         0.34782608695652173, 0.2608695652173913, 0.0, 0.0, 0.0, 0.043478260869565216, 0.0],
    ),
    "masked": (
        [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0, 3.25, 3.5,
         3.75, 4.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.045454545454545456,
         0.22727272727272727, 0.22727272727272727, 0.18181818181818182, 0.3181818181818182],
    ),
}

#: Fig. 11 on the small campus: the first 10 greedy steps as
#: (cell_index, max_persistence, identities_retained).
GREEDY_STEPS = [(115, 50.0, 22), (26, 48.0, 22), (117, 48.0, 22), (101, 48.0, 22),
                (42, 48.0, 22), (74, 48.0, 22), (75, 48.0, 22), (58, 48.0, 22),
                (59, 42.0, 22), (85, 42.0, 22)]


@pytest.fixture(scope="module")
def small_campus():
    return build_scenario("campus", scale=0.2, duration_hours=1.0, seed=7)


def test_persistence_histograms_are_pinned(small_campus):
    report = masked_persistence(small_campus.video, small_campus.owner_mask)
    for name, durations in (("original", report.original_durations),
                            ("masked", report.masked_durations)):
        edges, frequency = persistence_histogram(durations)
        assert (edges.tolist(), frequency.tolist()) == HISTOGRAMS[name]


def test_greedy_mask_ordering_is_pinned(small_campus):
    _, steps = greedy_mask_ordering(small_campus.video, cell_size=80.0, sample_period=2.0,
                                    max_cells=10)
    assert [(step.cell_index, step.max_persistence, step.identities_retained)
            for step in steps] == GREEDY_STEPS
