"""Tests for privacy policies, the Laplace mechanism, budgets and degradation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.budget import BudgetRequest, FrameBudgetLedger, ServiceLedger
from repro.core.executor import PrividSystem
from repro.core.degradation import (
    degradation_curve,
    detection_probability_bound,
    effective_epsilon,
)
from repro.core.noise import LaplaceMechanism
from repro.core.policy import MaskPolicyMap, PrivacyPolicy
from repro.errors import BudgetExceededError, MaskError, PolicyError
from repro.utils.rng import RandomSource
from repro.utils.timebase import TimeInterval
from repro.video.masking import EMPTY_MASK, Mask
from repro.video.geometry import BoundingBox

from tests.conftest import make_simple_video


class TestPrivacyPolicy:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(PolicyError):
            PrivacyPolicy(rho=-1.0)
        with pytest.raises(PolicyError):
            PrivacyPolicy(rho=1.0, k_segments=0)

    @pytest.mark.parametrize("rho", [float("nan"), float("inf")])
    def test_rho_must_be_finite(self, rho):
        # Both used to construct and fail later in max_chunks, with a bare
        # ValueError (NaN) or OverflowError (inf).
        with pytest.raises(PolicyError, match=repr(rho)):
            PrivacyPolicy(rho=rho)

    @pytest.mark.parametrize("k_segments", [float("nan"), 1.5, True, "2"])
    def test_k_must_be_a_whole_number(self, k_segments):
        # NaN gave a NaN sensitivity, 1.5 a Δ of 15 rows where K bounds whole
        # segments.
        with pytest.raises(PolicyError, match="K must be"):
            PrivacyPolicy(rho=30.0, k_segments=k_segments)

    def test_max_chunks_matches_equation(self):
        policy = PrivacyPolicy(rho=30.0, k_segments=1)
        assert policy.max_chunks(5.0) == 7

    def test_table_delta(self):
        policy = PrivacyPolicy(rho=30.0, k_segments=2)
        assert policy.table_delta(max_rows=10, chunk_duration=5.0) == 140.0

    def test_rho_zero_delta_zero(self):
        assert PrivacyPolicy(rho=0.0).table_delta(max_rows=10, chunk_duration=5.0) == 0.0

    def test_policy_map_requires_none_entry(self):
        with pytest.raises(PolicyError):
            MaskPolicyMap(entries={"owner": (EMPTY_MASK, PrivacyPolicy(rho=1.0))})

    def test_policy_map_lookup_and_best(self):
        policy_map = MaskPolicyMap.unmasked(PrivacyPolicy(rho=300.0))
        mask = Mask(name="m", regions=(BoundingBox(0, 0, 10, 10),))
        policy_map.add("m", mask, PrivacyPolicy(rho=40.0))
        assert policy_map.lookup(None)[1].rho == 300.0
        assert policy_map.lookup("m")[1].rho == 40.0
        with pytest.raises(MaskError):
            policy_map.lookup("missing")
        with pytest.raises(MaskError):
            policy_map.add("m", mask, PrivacyPolicy(rho=40.0))


class TestLaplaceMechanism:
    def test_scale(self):
        assert LaplaceMechanism.scale(10.0, 2.0) == 5.0
        with pytest.raises(PolicyError):
            LaplaceMechanism.scale(10.0, 0.0)

    def test_zero_sensitivity_adds_no_noise(self):
        mechanism = LaplaceMechanism(RandomSource(1))
        assert mechanism.add_noise(42.0, 0.0, 1.0) == 42.0

    def test_noise_statistics(self):
        mechanism = LaplaceMechanism(RandomSource(1))
        samples = [mechanism.sample(10.0, 1.0) for _ in range(4000)]
        # Mean of Laplace(0, b) is 0 and mean absolute deviation is b.
        assert np.mean(samples) == pytest.approx(0.0, abs=1.0)
        assert np.mean(np.abs(samples)) == pytest.approx(10.0, rel=0.15)

    def test_deterministic_given_seed(self):
        a = LaplaceMechanism(RandomSource(7)).sample(1.0, 1.0)
        b = LaplaceMechanism(RandomSource(7)).sample(1.0, 1.0)
        assert a == b

    def test_noisy_argmax_prefers_clear_winner(self):
        mechanism = LaplaceMechanism(RandomSource(3))
        candidates = {"a": 1000.0, "b": 10.0, "c": 5.0}
        winners = [mechanism.noisy_argmax(candidates, sensitivity=5.0, epsilon=1.0)
                   for _ in range(50)]
        assert winners.count("a") == 50

    def test_noisy_argmax_requires_candidates(self):
        with pytest.raises(PolicyError):
            LaplaceMechanism(RandomSource(1)).noisy_argmax({}, 1.0, 1.0)

    def test_confidence_interval_monotone(self):
        narrow = LaplaceMechanism.confidence_interval(10.0, 1.0, confidence=0.9)
        wide = LaplaceMechanism.confidence_interval(10.0, 1.0, confidence=0.99)
        assert wide > narrow


def _camera(total_epsilon: float) -> ServiceLedger:
    """A ledger with one camera, ``cam``, driven through the real doors."""
    ledger = ServiceLedger()
    ledger.register("cam", total_epsilon)
    return ledger


def _admit(ledger: ServiceLedger, requests: list, margin: float) -> None:
    ledger.admit_many({"cam": requests}, {"cam": margin})


def _remaining(ledger: ServiceLedger, timestamp: float) -> float:
    return ledger.remaining_over("cam", TimeInterval(timestamp, timestamp))


class TestBudgetLedger:
    def test_simple_charge_and_remaining(self):
        ledger = _camera(1.0)
        _admit(ledger, [BudgetRequest(TimeInterval(0, 100), 0.4)], margin=10.0)
        assert _remaining(ledger, 50.0) == pytest.approx(0.6)
        assert _remaining(ledger, 150.0) == pytest.approx(1.0)

    def test_margin_not_charged(self):
        ledger = _camera(1.0)
        _admit(ledger, [BudgetRequest(TimeInterval(100, 200), 0.5)], margin=50.0)
        # The margin [50, 100) was checked but not charged.
        assert _remaining(ledger, 60.0) == pytest.approx(1.0)

    def test_denial_when_budget_exhausted(self):
        ledger = _camera(1.0)
        _admit(ledger, [BudgetRequest(TimeInterval(0, 100), 0.8)], margin=0.0)
        with pytest.raises(BudgetExceededError):
            _admit(ledger, [BudgetRequest(TimeInterval(50, 150), 0.5)], margin=0.0)

    def test_disjoint_intervals_have_independent_budgets(self):
        ledger = _camera(1.0)
        _admit(ledger, [BudgetRequest(TimeInterval(0, 100), 1.0)], margin=10.0)
        # Far enough away (beyond the rho margin), full budget is available.
        _admit(ledger, [BudgetRequest(TimeInterval(200, 300), 1.0)], margin=10.0)
        assert _remaining(ledger, 250.0) == pytest.approx(0.0)

    def test_margin_prevents_straddling_queries(self):
        # Two queries whose windows are closer than rho must share a budget
        # (Appendix E.2 case 1): the second is denied if the first consumed it.
        ledger = _camera(1.0)
        _admit(ledger, [BudgetRequest(TimeInterval(0, 100), 1.0)], margin=30.0)
        with pytest.raises(BudgetExceededError):
            _admit(ledger, [BudgetRequest(TimeInterval(120, 200), 1.0)], margin=30.0)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), 0.0, -1.0])
    def test_request_epsilon_must_be_positive_and_finite(self, epsilon):
        # NaN passes a bare ``<= 0`` check: it used to be admitted and
        # counted as a charge while every frame's remaining budget stayed put.
        with pytest.raises(PolicyError):
            BudgetRequest(TimeInterval(0, 100), epsilon)

    def test_check_only_does_not_charge(self):
        ledger = _camera(1.0)
        ledger.check({"cam": [BudgetRequest(TimeInterval(0, 100), 0.7)]}, {"cam": 0.0})
        assert _remaining(ledger, 50.0) == pytest.approx(1.0)

    def test_failed_admission_charges_nothing(self):
        ledger = _camera(1.0)
        requests = [BudgetRequest(TimeInterval(0, 100), 0.6),
                    BudgetRequest(TimeInterval(50, 150), 0.6)]
        with pytest.raises(BudgetExceededError):
            _admit(ledger, requests, margin=0.0)
        assert _remaining(ledger, 75.0) == pytest.approx(1.0)

    def test_parallel_releases_over_disjoint_bins(self):
        # Hourly releases of a grouped query draw from disjoint frames, so a
        # per-release epsilon of 1.0 fits a per-frame budget of 1.0.
        ledger = _camera(1.0)
        requests = [BudgetRequest(TimeInterval(hour * 3600.0, (hour + 1) * 3600.0), 1.0)
                    for hour in range(12)]
        _admit(ledger, requests, margin=0.0)
        assert _remaining(ledger, 5 * 3600.0) == pytest.approx(0.0)

    def test_multi_camera_all_or_nothing_admission(self):
        # Every camera is checked before any is charged: a failing camera
        # leaves every ledger untouched.
        ledger = ServiceLedger()
        ledger.register("a", 1.0)
        ledger.register("b", 0.5)
        ledger.register("richer-b", 1.0)
        span = TimeInterval(50.0, 50.0)
        requests = [BudgetRequest(TimeInterval(0, 100), 0.8)]
        with pytest.raises(BudgetExceededError):
            ledger.admit_many({"a": requests, "b": requests}, {"a": 10.0, "b": 10.0})
        assert ledger.remaining_over("a", span) == pytest.approx(1.0)
        assert ledger.remaining_over("b", span) == pytest.approx(0.5)
        # Had both passed, each camera is charged.
        ledger.admit_many({"a": requests, "richer-b": requests},
                          {"a": 10.0, "richer-b": 10.0})
        assert ledger.remaining_over("a", span) == pytest.approx(0.2)
        assert ledger.remaining_over("richer-b", span) == pytest.approx(0.2)

    def test_margin_expansion_at_exact_rho_boundary(self):
        # The admission window is the half-open [a - rho, b + rho): a prior
        # charge ending exactly at a - rho does not intersect it, while one
        # extending a single frame further does.
        rho = 50.0
        ledger = _camera(1.0)
        _admit(ledger, [BudgetRequest(TimeInterval(0, 50), 0.6)], margin=0.0)
        # Expanded window [50, 250) touches the old charge only at its open end.
        _admit(ledger, [BudgetRequest(TimeInterval(100, 200), 0.6)], margin=rho)
        # A request whose expansion reaches one instant into [0, 50) is denied.
        ledger = _camera(1.0)
        _admit(ledger, [BudgetRequest(TimeInterval(0, 50), 0.6)], margin=0.0)
        with pytest.raises(BudgetExceededError):
            _admit(ledger, [BudgetRequest(TimeInterval(99.0, 200), 0.6)], margin=rho)

    def test_invalid_parameters(self):
        with pytest.raises(PolicyError):
            FrameBudgetLedger(total_epsilon=0.0)
        with pytest.raises(PolicyError):
            BudgetRequest(TimeInterval(0, 1), 0.0)

    @pytest.mark.parametrize("total", [float("nan"), float("inf")])
    def test_the_budget_must_be_finite(self, total):
        with pytest.raises(PolicyError, match=repr(total)):
            FrameBudgetLedger(total_epsilon=total)

    def test_a_nan_budget_camera_is_refused_at_registration(self):
        # It used to admit 20 of 20 ε=1 queries, budget_remaining nan.
        system = PrividSystem(seed=1)
        with pytest.raises(PolicyError, match="nan"):
            system.register_camera("cam", make_simple_video(duration=60.0),
                                   policy=PrivacyPolicy(rho=1.0),
                                   epsilon_budget=float("nan"))
        assert "cam" not in system.cameras
        with pytest.raises(PolicyError, match="nan"):
            ServiceLedger().register("cam", float("nan"))

    def test_a_nan_margin_is_refused(self):
        # Every expanded interval was NaN, so the check saw no frame: 5 of 5
        # ε=1 requests over one interval were admitted on a 1.0 budget.
        ledger = _camera(1.0)
        for margin in (float("nan"), float("inf"), -1.0):
            with pytest.raises(PolicyError, match="margin"):
                _admit(ledger, [BudgetRequest(TimeInterval(0, 10), 1.0)], margin=margin)
        assert ledger.ledger("cam").charges == []

    @pytest.mark.parametrize("ends", [(float("nan"), float("nan")), (0.0, float("inf")),
                                      (float("-inf"), 0.0)])
    def test_a_request_needs_finite_endpoints(self, ends):
        # TimeInterval(nan, nan) used to pass its own ordering check and was
        # admitted 5 of 5 times on a 1.0 budget; the interval now refuses
        # it, so no request can be built around it.
        with pytest.raises(ValueError, match="finite"):
            TimeInterval(*ends)

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=1000),
                              st.floats(min_value=1, max_value=500),
                              st.floats(min_value=0.01, max_value=0.3)),
                    min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_remaining_never_negative(self, raw_requests):
        ledger = _camera(1.0)
        for start, duration, epsilon in raw_requests:
            request = BudgetRequest(TimeInterval(start, start + duration), epsilon)
            try:
                _admit(ledger, [request], margin=15.0)
            except BudgetExceededError:
                pass
        probes = [start for start, _, _ in raw_requests] + [0.0, 500.0, 1500.0]
        for probe in probes:
            assert _remaining(ledger, probe) >= -1e-9


class TestDegradation:
    def test_detection_probability_at_epsilon_zero_is_alpha(self):
        assert detection_probability_bound(0.0, 0.05) == pytest.approx(0.05)

    def test_detection_probability_monotone_in_epsilon(self):
        values = [detection_probability_bound(eps, 0.01) for eps in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert values == sorted(values)
        assert values[-1] <= 1.0

    def test_invalid_alpha_rejected(self):
        with pytest.raises(PolicyError):
            detection_probability_bound(1.0, 0.0)

    def test_effective_epsilon_scales_with_k(self):
        base = effective_epsilon(1.0, actual_rho=30.0, bounded_rho=30.0, chunk_duration=5.0,
                                 actual_k=2, bounded_k=1)
        assert base == pytest.approx(2.0)

    def test_effective_epsilon_scales_with_rho(self):
        doubled = effective_epsilon(1.0, actual_rho=60.0, bounded_rho=30.0, chunk_duration=5.0)
        assert doubled > 1.0

    def test_effective_epsilon_never_below_nominal(self):
        within = effective_epsilon(1.0, actual_rho=10.0, bounded_rho=30.0, chunk_duration=5.0)
        assert within == pytest.approx(1.0)

    def test_degradation_curve_monotone(self):
        points = degradation_curve(epsilon=0.2, bounded_rho=30.0, chunk_duration=5.0,
                                   alpha=0.01, ratios=[0.5, 1.0, 2.0, 4.0, 8.0])
        probabilities = [point.detection_probability for point in points]
        assert probabilities == sorted(probabilities)
        assert all(0.0 <= p <= 1.0 for p in probabilities)
