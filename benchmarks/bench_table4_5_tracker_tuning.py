"""Tables 4-5 (Appendix A): per-video tracker hyperparameter tuning.

Paper: for each video, sweep the tracker's hyperparameters and pick the
configuration whose persistence distribution best matches the annotated
ground truth.
"""

from __future__ import annotations

import pytest

from repro.cv.detector import SyntheticDetector
from repro.cv.tuning import tune_tracker
from repro.utils.timebase import TimeInterval

from benchmarks.conftest import print_table

GRID = {"max_age": (8, 16, 32), "min_hits": (2, 3, 5), "iou_threshold": (0.1, 0.3)}
SEGMENT_SECONDS = 600.0


@pytest.mark.parametrize("name", ["campus", "highway"])
def test_tables4_5_tracker_tuning(benchmark, primary_scenarios, name):
    scenario = primary_scenarios[name]
    detector = SyntheticDetector(scenario.detector_config, seed=0)
    frames = scenario.video.frame_batch(TimeInterval(0.0, SEGMENT_SECONDS), sample_period=1.0)
    detections = detector.detect_batch(frames, categories=("person", "car"))
    window_objects = scenario.video.objects_overlapping(TimeInterval(0.0, SEGMENT_SECONDS))

    def run():
        return tune_tracker(detections, window_objects, grid=GRID)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [result.as_row() for result in results[:5]]
    print_table(f"Tables 4/5 best tracker configurations ({name})", rows)
    assert len(results) == 3 * 3 * 2
    assert results[0].distance <= results[-1].distance
