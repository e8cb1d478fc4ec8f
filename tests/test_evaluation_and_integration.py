"""Integration tests: evaluation harness, Porto queries, and privacy properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PrividSystem
from repro.core.noise import LaplaceMechanism
from repro.errors import BudgetExceededError
from repro.evaluation.baselines import (
    directional_crossing_count,
    ground_truth_hourly_counts,
    red_light_duration_truth,
    tree_leaf_fraction_truth,
)
from repro.evaluation.metrics import argmax_hit_rate, repeated_accuracy, result_accuracy
from repro.evaluation.queries import (
    case1_counting_query,
    case2_porto_argmax_query,
    case2_porto_intersection_query,
    case2_porto_working_hours_query,
    case3_tree_query,
    case4_red_light_query,
)
from repro.evaluation.runner import (
    register_porto_cameras,
    register_scenario_camera,
    run_repeated,
    scenario_policy_map,
)
from repro.scene.porto import PortoConfig, generate_porto_dataset
from repro.utils.rng import RandomSource
from repro.utils.timebase import TimeInterval


@pytest.fixture(scope="module")
def porto_small():
    return generate_porto_dataset(PortoConfig(num_taxis=8, num_cameras=4, num_days=4, seed=5))


@pytest.fixture(scope="module")
def porto_system(porto_small):
    system = PrividSystem(seed=11)
    register_porto_cameras(system, porto_small, epsilon_budget=100.0)
    return system


class TestScenarioEvaluation:
    def test_scenario_policy_map_contains_expected_masks(self, campus_small):
        policy_map = scenario_policy_map(campus_small)
        assert set(policy_map.mask_names()) >= {"none", "owner", "traffic-light-only"}
        assert policy_map.lookup("owner")[1].rho < policy_map.lookup(None)[1].rho
        assert policy_map.lookup("traffic-light-only")[1].rho == 0.0

    def test_case1_query_close_to_ground_truth(self, campus_small):
        system = PrividSystem(seed=2)
        register_scenario_camera(system, campus_small, epsilon_budget=100.0, sample_period=1.0)
        query = case1_counting_query("campus", category="person", window_seconds=3600,
                                     chunk_duration=60, max_rows=5, mask="owner",
                                     bucket_seconds=1800.0)
        reference = ground_truth_hourly_counts(campus_small.video, category="person",
                                               window=TimeInterval(0, 3600),
                                               bucket_seconds=1800.0)
        run = run_repeated(system, query, samples=30, reference=reference)
        # The chunked pipeline should land near the ground truth (within 40%),
        # before noise is considered.
        for raw, truth in zip(run.raw_series, reference):
            if truth > 0:
                assert abs(raw - truth) / truth < 0.4
        assert run.accuracy is not None

    def test_case4_red_light_query_exact(self, campus_small):
        system = PrividSystem(seed=3)
        register_scenario_camera(system, campus_small, epsilon_budget=100.0, sample_period=1.0)
        query = case4_red_light_query("campus", window_seconds=3600, chunk_duration=600)
        run = run_repeated(system, query, samples=10,
                           reference=red_light_duration_truth(campus_small))
        assert run.accuracy.mean > 0.95
        assert run.noise_scales[0] == 0.0

    def test_case3_tree_query_high_accuracy(self, campus_small):
        system = PrividSystem(seed=4)
        register_scenario_camera(system, campus_small, epsilon_budget=100.0)
        query = case3_tree_query("campus", window_seconds=900, frame_period=0.5, mask="owner")
        run = run_repeated(system, query, samples=20,
                           reference=tree_leaf_fraction_truth(campus_small.video))
        assert run.accuracy.mean > 0.9

    def test_directional_ground_truth(self, campus_small):
        count = directional_crossing_count(campus_small.video, category="person",
                                           entry_side="south", exit_side="north",
                                           window=TimeInterval(0, 3600))
        assert count >= 0


class TestPortoEvaluation:
    def test_working_hours_query(self, porto_small, porto_system):
        cameras = porto_small.camera_names[:2]
        query = case2_porto_working_hours_query(cameras, porto_small.taxi_ids,
                                                num_days=porto_small.config.num_days,
                                                chunk_duration=3600.0)
        result = porto_system.execute(query, charge_budget=False)
        truth = porto_small.average_working_hours(cameras)
        assert result.releases[0].raw_value_unsafe == pytest.approx(truth, rel=0.35)

    def test_intersection_query(self, porto_small, porto_system):
        cameras = porto_small.camera_names[:2]
        query = case2_porto_intersection_query(cameras[0], cameras[1], porto_small.taxi_ids,
                                               num_days=porto_small.config.num_days,
                                               chunk_duration=3600.0)
        result = porto_system.execute(query, charge_budget=False)
        truth = porto_small.average_taxis_traversing_both(cameras[0], cameras[1]) \
            * porto_small.config.num_days
        assert result.releases[0].raw_value_unsafe == \
            pytest.approx(truth, abs=max(2.0, 0.2 * truth))

    def test_argmax_query_finds_busiest_camera_without_noise(self, porto_small, porto_system):
        # At this tiny test scale the noise dwarfs the per-camera counts, so the
        # plumbing is checked noise-free here; the benchmark exercises the
        # noisy argmax at a scale where counts dominate (as in the paper).
        query = case2_porto_argmax_query(porto_small.camera_names,
                                         num_days=porto_small.config.num_days,
                                         chunk_duration=3600.0)
        result = porto_system.execute(query, charge_budget=False)
        assert result.releases[0].raw_value_unsafe == porto_small.busiest_camera()

    def test_argmax_query_with_noise_returns_a_camera(self, porto_small, porto_system):
        query = case2_porto_argmax_query(porto_small.camera_names,
                                         num_days=porto_small.config.num_days,
                                         chunk_duration=3600.0)
        results = [porto_system.execute(query, charge_budget=False) for _ in range(3)]
        hit_rate = argmax_hit_rate(results, porto_small.busiest_camera())
        assert 0.0 <= hit_rate <= 1.0
        assert all(result.releases[0].noisy_value in porto_small.camera_names
                   for result in results)


class TestMetrics:
    def test_result_accuracy_scalar_and_series(self):
        system = PrividSystem(seed=1)
        from repro.core.result import QueryResult, ReleaseResult

        result = QueryResult(query_name="q", releases=[
            ReleaseResult(label="a", kind="numeric", noisy_value=95.0, raw_value_unsafe=100.0,
                          sensitivity=1.0, epsilon=1.0, noise_scale=1.0),
        ])
        assert result_accuracy(result, 100.0) == pytest.approx(0.95)
        summary = repeated_accuracy([result, result], 100.0)
        assert summary.mean == pytest.approx(0.95)
        assert "%" in summary.as_percent()
        del system

    def test_result_accuracy_length_mismatch(self):
        from repro.core.result import QueryResult, ReleaseResult

        result = QueryResult(query_name="q", releases=[
            ReleaseResult(label="a", kind="numeric", noisy_value=1.0, raw_value_unsafe=1.0,
                          sensitivity=1.0, epsilon=1.0, noise_scale=1.0),
        ])
        with pytest.raises(ValueError):
            result_accuracy(result, [1.0, 2.0])


class TestPrivacyProperties:
    """Property-style checks of the differential-privacy plumbing."""

    @given(st.floats(min_value=0.5, max_value=50.0), st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_laplace_scale_equals_sensitivity_over_epsilon(self, sensitivity, epsilon):
        assert LaplaceMechanism.scale(sensitivity, epsilon) == pytest.approx(
            sensitivity / epsilon)

    def test_noise_distribution_matches_calibration(self):
        mechanism = LaplaceMechanism(RandomSource(5))
        sensitivity, epsilon = 20.0, 0.5
        samples = np.array([mechanism.sample(sensitivity, epsilon) for _ in range(6000)])
        # For Laplace(0, b): E|X| = b = sensitivity / epsilon.
        assert np.mean(np.abs(samples)) == pytest.approx(sensitivity / epsilon, rel=0.1)

    def test_indistinguishability_of_neighbouring_videos(self):
        """Empirical epsilon-DP check on a bounded counting query.

        Two neighbouring videos differ by one (rho, K)-bounded event (one
        extra crossing).  The likelihood ratio of observing any output under
        the two videos must be bounded by exp(epsilon); for the Laplace
        mechanism the worst-case ratio equals exp(|r - r'| / scale), which we
        verify is at most exp(epsilon) because |r - r'| <= sensitivity.
        """
        from tests.conftest import make_crossing_object, make_simple_video
        from repro.core.policy import PrivacyPolicy
        from repro.query.builder import QueryBuilder
        from repro.sandbox.executables import EnteringObjectCounter

        def run(with_extra_person: bool) -> tuple[float, float]:
            objects = [make_crossing_object("a", start=30, duration=25)]
            if with_extra_person:
                objects.append(make_crossing_object("b", start=200, duration=25, x=700.0))
            video = make_simple_video(duration=600.0, objects=objects)
            system = PrividSystem(seed=123)
            system.register_camera("cam", video, policy=PrivacyPolicy(rho=30.0, k_segments=1),
                                   epsilon_budget=10.0,
                                   detector_config=__import__(
                                       "repro.cv.detector", fromlist=["DetectorConfig"]
                                   ).DetectorConfig(miss_rate=0.0, position_jitter=0.0))
            system.register_executable("counter.py", EnteringObjectCounter(category="person"),
                                       replace=False)
            query = (QueryBuilder("count")
                     .split("cam", begin=0, end=600, chunk_duration=60, into="chunks")
                     .process("chunks", executable="counter.py", max_rows=5,
                              schema=[("kind", "STRING", "")], into="t")
                     .select_count(table="t", epsilon=1.0)
                     .build())
            result = system.execute(query)
            release = result.releases[0]
            return float(release.raw_value_unsafe), release.sensitivity

        raw_without, sensitivity = run(False)
        raw_with, _ = run(True)
        epsilon = 1.0
        scale = sensitivity / epsilon
        worst_case_ratio = np.exp(abs(raw_with - raw_without) / scale)
        assert worst_case_ratio <= np.exp(epsilon) + 1e-9

    def test_budget_composition_never_exceeds_total(self, campus_small):
        system = PrividSystem(seed=6)
        register_scenario_camera(system, campus_small, epsilon_budget=1.0, sample_period=2.0)
        query = case1_counting_query("campus", window_seconds=1200, chunk_duration=60,
                                     max_rows=5, mask="owner", bucket_seconds=None,
                                     epsilon=0.4)
        system.execute(query)
        system.execute(query)
        with pytest.raises(BudgetExceededError):
            system.execute(query)
