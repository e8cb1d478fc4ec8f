"""Determinism and distribution tests for the serving workload generator.

Two contracts:

* **Replay.**  A schedule is a pure function of its config: generating twice
  yields byte-identical events (digest equality is necessary but the tests
  compare the event tuples too, so a digest bug cannot mask a generator
  bug).  ``benchmarks/system`` builds its ``serve_open`` arrivals from a
  schedule, so identical schedules are what make identical inputs possible.
* **Shape.**  Different seeds produce *different* schedules whose empirical
  camera/tenant frequencies still follow the configured zipf weights.  The
  check is a chi-square statistic over a FIXED set of seeds — fully
  deterministic, so the bound cannot flake: the observed statistics are
  pinned well below a threshold that uniform-by-mistake sampling exceeds by
  an order of magnitude.

A config that is not a finite, in-range workload is rejected at construction
with a ``ValueError`` naming the field and the value, never turned into a
silent 100,000-event schedule.
"""

from collections import Counter

import pytest

from repro.bench.serving.workload import (
    ArrivalEvent,
    WorkloadConfig,
    WorkloadSchedule,
    generate_schedule,
    zipf_weights,
)

CAMERAS = ("cam-a", "cam-b", "cam-c", "cam-d", "cam-e")


def _config(seed: int, **overrides) -> WorkloadConfig:
    settings = dict(seed=seed, num_tenants=50, cameras=CAMERAS, mode="open",
                    duration_s=50.0, arrival_rate_per_s=40.0)
    settings.update(overrides)
    return WorkloadConfig(**settings)


def _chi_square(counts: dict, weights, total: int, categories) -> float:
    statistic = 0.0
    for index, category in enumerate(categories):
        expected = weights[index] * total
        observed = counts.get(category, 0)
        statistic += (observed - expected) ** 2 / expected
    return statistic


class TestReplayDeterminism:
    def test_same_seed_is_byte_identical(self):
        config = _config(31)
        first = generate_schedule(config)
        second = generate_schedule(config)
        assert first.events == second.events
        assert first.digest() == second.digest()
        assert len(first.events) > 100

    def test_golden_digest(self):
        # The bytes of a valid config's schedule are a compatibility
        # surface: benchmarks/system's inputs_digest is built on them.
        schedule = generate_schedule(_config(31))
        assert len(schedule.events) == 2015
        assert schedule.digest() == ("4ae8fbd1c1469607edb0ab4f5ea0013e"
                                     "69d723cfb094a660dd22175c3888071a")

    def test_different_seeds_differ(self):
        assert generate_schedule(_config(1)).digest() \
            != generate_schedule(_config(2)).digest()

    def test_digest_covers_every_field(self):
        # Flip each field of one event; the digest must move every time.
        schedule = generate_schedule(_config(31))
        base = schedule.digest()
        event = schedule.events[10]
        for change in (dict(tenant=event.tenant + 1),
                       dict(tenant_seq=event.tenant_seq + 1),
                       dict(offset_s=event.offset_s + 1e-12),
                       dict(camera="other"),
                       dict(kind="other")):
            fields = dict(seq=event.seq, tenant=event.tenant,
                          tenant_seq=event.tenant_seq, offset_s=event.offset_s,
                          camera=event.camera, kind=event.kind)
            fields.update(change)
            mutated = list(schedule.events)
            mutated[10] = ArrivalEvent(**fields)
            assert WorkloadSchedule(config=schedule.config,
                                    events=tuple(mutated)).digest() != base

    def test_events_are_sorted_and_densely_numbered(self):
        schedule = generate_schedule(_config(7))
        offsets = [event.offset_s for event in schedule.events]
        assert offsets == sorted(offsets)
        assert [event.seq for event in schedule.events] \
            == list(range(len(schedule.events)))
        # tenant_seq densely numbers each tenant's own events, in order.
        per_tenant: dict[int, int] = {}
        for event in schedule.events:
            assert event.tenant_seq == per_tenant.get(event.tenant, 0)
            per_tenant[event.tenant] = event.tenant_seq + 1

    def test_open_loop_respects_duration_and_guard(self):
        schedule = generate_schedule(_config(3))
        assert schedule.duration_s <= 50.0
        capped = generate_schedule(_config(3, max_events=10))
        assert len(capped.events) == 10


class TestZipfShape:
    # Fixed seeds -> fixed schedules -> fixed statistics: nothing here can
    # flake.  df = 4 for five categories; the bound 25 sits far above the
    # observed values (< ~10) and far below the >100 a wrongly-uniform
    # sampler scores against these skewed expectations.
    SEEDS = (11, 23, 47, 101, 4099)
    CHI_SQUARE_BOUND = 25.0

    def test_camera_frequencies_match_zipf_weights(self):
        weights = zipf_weights(len(CAMERAS), 0.8)
        for seed in self.SEEDS:
            schedule = generate_schedule(_config(seed))
            cameras = Counter(event.camera for event in schedule.events)
            statistic = _chi_square(cameras, weights, len(schedule.events), CAMERAS)
            assert statistic < self.CHI_SQUARE_BOUND, \
                f"seed {seed}: chi^2 {statistic:.1f} against zipf(0.8)"

    def test_uniform_would_fail_the_same_bound(self):
        # Sanity of the sanity check: score the observed (zipf) counts
        # against flat expectations — the statistic must blow past the
        # bound, or the test above is vacuous.
        flat = [1.0 / len(CAMERAS)] * len(CAMERAS)
        schedule = generate_schedule(_config(self.SEEDS[0]))
        cameras = Counter(event.camera for event in schedule.events)
        statistic = _chi_square(cameras, flat, len(schedule.events), CAMERAS)
        assert statistic > self.CHI_SQUARE_BOUND * 4

    def test_tenant_skew_concentrates_load(self):
        schedule = generate_schedule(_config(11))
        counts = Counter(event.tenant for event in schedule.events)
        heaviest = max(counts.values())
        uniform_share = len(schedule.events) / 50
        assert heaviest > 3 * uniform_share  # rank 1 of zipf(1.0) over 50

    def test_query_mix_frequencies(self):
        schedule = generate_schedule(_config(23))
        counts = Counter(event.kind for event in schedule.events)
        total = len(schedule.events)
        for kind, weight in schedule.config.query_mix:
            share = counts.get(kind, 0) / total
            assert abs(share - weight / 6.0) < 0.08, (kind, share)


class TestConfigValidation:
    def test_rejects_bad_configs(self):
        with pytest.raises(ValueError):
            WorkloadConfig(seed=1, num_tenants=0, cameras=CAMERAS)
        with pytest.raises(ValueError):
            WorkloadConfig(seed=1, num_tenants=1, cameras=())
        for mode in ("sideways", "closed"):
            with pytest.raises(ValueError, match="mode"):
                WorkloadConfig(seed=1, num_tenants=1, cameras=CAMERAS,
                               mode=mode)
        with pytest.raises(ValueError):
            WorkloadConfig(seed=1, num_tenants=1, cameras=CAMERAS,
                           query_mix=())

    @pytest.mark.parametrize("field,value", [
        ("arrival_rate_per_s", float("nan")),
        ("arrival_rate_per_s", float("inf")),
        ("arrival_rate_per_s", 0.0),
        ("arrival_rate_per_s", -2.0),
        ("duration_s", float("nan")),
        ("duration_s", float("inf")),
        ("duration_s", -1.0),
        ("tenant_skew", float("nan")),
        ("tenant_skew", -0.5),
        ("camera_skew", float("nan")),
        ("camera_skew", float("-inf")),
        ("num_tenants", float("nan")),
        ("num_tenants", 2.5),
        ("max_events", 0),
        ("max_events", float("inf")),
    ])
    def test_rejects_non_finite_and_out_of_range_numbers(self, field, value):
        # Most of these used to construct, then generate a silent runaway
        # schedule (100,000 events), an empty one, a one-camera one, or fail
        # later with a TypeError.
        settings = dict(seed=1, num_tenants=4, cameras=CAMERAS)
        settings[field] = value
        with pytest.raises(ValueError) as raised:
            WorkloadConfig(**settings)
        assert field in str(raised.value)
        assert repr(value) in str(raised.value)

    @pytest.mark.parametrize("mix,shown", [
        ((("count", 0.0), ("sum", 0.0)), "(('count', 0.0), ('sum', 0.0))"),
        ((("count", 2.0), ("sum", -1.0)), "'sum' must be finite and >= 0, not -1.0"),
        ((("count", float("nan")),), "not nan"),
        ((("count", float("inf")),), "not inf"),
    ], ids=["all-zero", "negative", "nan", "inf"])
    def test_rejects_bad_query_mix_weights(self, mix, shown):
        # An all-zero mix raised ZeroDivisionError; a negative weight
        # silently dropped its kind.
        with pytest.raises(ValueError, match="query_mix") as raised:
            WorkloadConfig(seed=1, num_tenants=4, cameras=CAMERAS,
                           query_mix=mix)
        assert shown in str(raised.value)

    def test_edge_values_stay_valid(self):
        # Zero duration and zero skew are legitimate workloads: an empty
        # schedule and uniform popularity.
        assert generate_schedule(_config(3, duration_s=0.0)).events == ()
        uniform = generate_schedule(_config(3, tenant_skew=0.0,
                                            camera_skew=0.0))
        assert len(uniform.events) > 100

    def test_zipf_weights_normalize_and_reject_empty(self):
        weights = zipf_weights(8, 1.0)
        assert sum(weights) == pytest.approx(1.0)
        assert weights == tuple(sorted(weights, reverse=True))
        assert zipf_weights(3, 0.0) == pytest.approx((1 / 3,) * 3)
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
