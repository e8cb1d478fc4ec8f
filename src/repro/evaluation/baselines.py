"""Ground-truth baselines for the evaluation queries.

Two kinds of references appear in the evaluation:

* the paper's headline accuracy compares Privid against the same query
  implementation run *without* Privid (no chunking, no noise) — obtained by
  reading a release's ``raw_value_unsafe`` from a single-chunk execution, or
  more cheaply by these ground-truth computations when the executable's logic is
  a direct function of the scene (the two coincide up to detector noise);
* scene ground truth, available because the substrate is a simulator, which
  the benchmarks also report so readers can see both gaps separately
  (Section 8.3's "two sources of inaccuracy").
"""

from __future__ import annotations

from typing import Iterable

from repro.scene.objects import SceneObject
from repro.scene.scenarios import Scenario
from repro.utils.timebase import SECONDS_PER_HOUR, TimeInterval
from repro.video.video import SyntheticVideo


def ground_truth_hourly_counts(video: SyntheticVideo, *, category: str,
                               window: TimeInterval,
                               bucket_seconds: float = SECONDS_PER_HOUR) -> list[float]:
    """Number of appearances of a category starting within each time bucket.

    This matches the query semantics of Q1-Q3: each appearance is counted in
    the bucket in which the object *enters* the scene.
    """
    num_buckets = int((window.duration + bucket_seconds - 1) // bucket_seconds)
    counts = [0.0] * num_buckets
    for scene_object in video.objects:
        if scene_object.category != category:
            continue
        for appearance in scene_object.appearances:
            start = appearance.interval.start
            if not window.contains(start):
                continue
            bucket = int((start - window.start) // bucket_seconds)
            if 0 <= bucket < num_buckets:
                counts[bucket] += 1.0
    return counts


def tree_leaf_fraction_truth(video: SyntheticVideo) -> float:
    """Fraction of trees with leaves, as a percentage (Q7-Q9 reference)."""
    trees = video.objects_of_category("tree")
    if not trees:
        return 0.0
    with_leaves = sum(1 for tree in trees if tree.attributes.get("has_leaves"))
    return 100.0 * with_leaves / len(trees)


def red_light_duration_truth(scenario: Scenario) -> float:
    """True red-phase duration of the scenario's traffic light (Q10-Q12 reference)."""
    if scenario.red_light_duration is None:
        raise ValueError(f"scenario {scenario.name!r} has no traffic light")
    return scenario.red_light_duration


def directional_crossing_count(video: SyntheticVideo, *, category: str, entry_side: str,
                               exit_side: str, window: TimeInterval) -> float:
    """Number of objects entering from one side and exiting at another (Q13 reference)."""
    count = 0
    for scene_object in video.objects:
        if scene_object.category != category:
            continue
        if scene_object.attributes.get("entry_side") != entry_side:
            continue
        if scene_object.attributes.get("exit_side") != exit_side:
            continue
        for appearance in scene_object.appearances:
            if window.contains(appearance.interval.start):
                count += 1
    return float(count)


def appearances_within(objects: Iterable[SceneObject], window: TimeInterval,
                       *, category: str | None = None) -> int:
    """Count appearances overlapping a window (general-purpose helper for tests)."""
    total = 0
    for scene_object in objects:
        if category is not None and scene_object.category != category:
            continue
        total += len(scene_object.appearances_within(window))
    return total
