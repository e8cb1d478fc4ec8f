"""Tests for the end-to-end query executor (Algorithm 1)."""

import pytest

from repro.core import PrividSystem
from repro.core.policy import MaskPolicyMap, PrivacyPolicy
from repro.errors import (
    BudgetExceededError,
    PolicyError,
    QueryValidationError,
    UnboundSensitivityError,
    UnknownCameraError,
)
from repro.evaluation.runner import register_scenario_camera
from repro.query.builder import QueryBuilder
from repro.query.parser import parse_query
from repro.sandbox.executables import ConstantExecutable
from repro.scene.scenarios import build_scenario
from repro.utils.timebase import TimeInterval
from repro.video.chunking import ChunkSpec, iter_chunks

from tests.conftest import make_crossing_object, make_simple_video


def _constant_system(*, rows_per_chunk: int = 2, epsilon_budget: float = 10.0,
                     rho: float = 30.0, k: int = 1, cache: str | None = None) -> PrividSystem:
    """A system with one camera and a constant executable (fully predictable)."""
    system = PrividSystem(seed=9, cache=cache)
    video = make_simple_video(duration=600.0,
                              objects=[make_crossing_object("w", start=10, duration=30)])
    system.register_camera("cam", video, policy=PrivacyPolicy(rho=rho, k_segments=k),
                           epsilon_budget=epsilon_budget)
    system.register_executable(
        "constant.py", ConstantExecutable(rows=[{"value": 1.0}] * rows_per_chunk))
    return system


def _count_query(*, chunk_duration: float = 60.0, max_rows: int = 5, epsilon: float = 1.0,
                 window: float = 600.0, bucket: float | None = None):
    builder = (QueryBuilder("count")
               .split("cam", begin=0, end=window, chunk_duration=chunk_duration, into="chunks")
               .process("chunks", executable="constant.py", max_rows=max_rows,
                        schema=[("value", "NUMBER", 0.0)], into="t"))
    builder.select_count(table="t", bucket_seconds=bucket, epsilon=epsilon)
    return builder.build()


class TestExecutorBasics:
    def test_raw_value_matches_deterministic_pipeline(self):
        system = _constant_system(rows_per_chunk=2)
        result = system.execute(_count_query())
        # 10 chunks x 2 rows each.
        assert result.releases[0].raw_value_unsafe == 20.0

    def test_noise_calibration_matches_policy(self):
        system = _constant_system(rows_per_chunk=2, rho=30.0, k=1)
        result = system.execute(_count_query(max_rows=5, chunk_duration=60.0))
        release = result.releases[0]
        # Delta = max_rows * K * (1 + ceil(30/60)) = 5 * 1 * 2 = 10.
        assert release.sensitivity == 10.0
        assert release.noise_scale == 10.0
        assert release.noisy_value != release.raw_value_unsafe

    def test_noisy_output_differs_across_resamples(self):
        system = _constant_system()
        result = system.execute(_count_query())
        resampled = system.resample_noise(result)
        assert resampled.releases[0].noisy_value != result.releases[0].noisy_value
        assert resampled.releases[0].raw_value_unsafe == result.releases[0].raw_value_unsafe

    def test_grouped_query_releases_every_bin(self):
        system = _constant_system()
        result = system.execute(_count_query(bucket=120.0))
        assert result.num_releases == 5
        assert [release.group_key for release in result.releases] == \
            [0.0, 120.0, 240.0, 360.0, 480.0]
        assert all(release.raw_value_unsafe == pytest.approx(4.0)
                   for release in result.releases)  # 2 chunks per 120s bin, 2 rows each

    def test_unknown_camera_rejected(self):
        system = _constant_system()
        query = _count_query()
        query.splits[0].camera = "nope"
        with pytest.raises(UnknownCameraError):
            system.execute(query)

    def test_unknown_chunk_set_rejected(self):
        system = _constant_system()
        query = _count_query()
        query.processes[0].chunks = "nope"
        with pytest.raises(QueryValidationError):
            system.execute(query)

    def test_duplicate_camera_registration_rejected(self):
        system = _constant_system()
        with pytest.raises(PolicyError):
            system.register_camera("cam", make_simple_video(),
                                   policy=PrivacyPolicy(rho=1.0))

    def test_epsilon_consumed_reported(self):
        system = _constant_system()
        result = system.execute(_count_query(epsilon=0.5))
        assert result.epsilon_consumed == pytest.approx(0.5)


class TestBudgetEnforcement:
    def test_budget_depletes_and_denies(self):
        system = _constant_system(epsilon_budget=1.0)
        system.execute(_count_query(epsilon=0.6))
        with pytest.raises(BudgetExceededError):
            system.execute(_count_query(epsilon=0.6))

    def test_remaining_budget_query(self):
        system = _constant_system(epsilon_budget=2.0)
        system.execute(_count_query(epsilon=0.5))
        remaining = system.remaining_budget("cam", TimeInterval(0, 600))
        assert remaining == pytest.approx(1.5)

    def test_charge_budget_false_does_not_consume(self):
        system = _constant_system(epsilon_budget=1.0)
        for _ in range(5):
            system.execute(_count_query(epsilon=0.9), charge_budget=False)
        assert system.remaining_budget("cam", TimeInterval(0, 600)) == pytest.approx(1.0)

    def test_grouped_releases_draw_from_their_own_bins(self):
        # Releases over disjoint bins mostly compose in parallel over frames:
        # only frames within rho of a bin boundary see both neighbouring
        # releases, so per-release budgets just below half the total fit.
        system = _constant_system(epsilon_budget=1.0, rho=30.0)
        result = system.execute(_count_query(bucket=120.0, epsilon=0.45))
        assert result.num_releases == 5
        # Each frame was charged by exactly one bin's release, so a follow-up
        # query fitting in the remaining 0.55 is admitted...
        system.execute(_count_query(epsilon=0.5))
        # ...and one that would push any frame past the total is denied.
        with pytest.raises(BudgetExceededError):
            system.execute(_count_query(epsilon=0.5))

    def test_grouped_releases_exceeding_budget_at_boundaries_denied(self):
        # Adjacent bins are not rho-disjoint, so asking for the full budget
        # per release is denied at the bin boundaries (sequential composition
        # applies there), exactly as Algorithm 1's margin check dictates.
        system = _constant_system(epsilon_budget=1.0, rho=30.0)
        with pytest.raises(BudgetExceededError):
            system.execute(_count_query(bucket=120.0, epsilon=1.0))

    def test_denied_query_charges_nothing(self):
        system = _constant_system(epsilon_budget=1.0)
        with pytest.raises(BudgetExceededError):
            system.execute(_count_query(epsilon=2.0))
        assert system.remaining_budget("cam", TimeInterval(0, 600)) == pytest.approx(1.0)


class TestMasksAndRegions:
    def test_mask_policy_lowers_noise(self, campus_small):
        system = PrividSystem(seed=4)
        policy_map = MaskPolicyMap.unmasked(PrivacyPolicy(rho=240.0, k_segments=1))
        policy_map.add("owner", campus_small.owner_mask, PrivacyPolicy(rho=50.0, k_segments=1))
        system.register_camera("campus", campus_small.video, policy_map=policy_map,
                               epsilon_budget=50.0,
                               detector_config=campus_small.detector_config,
                               tracker_config=campus_small.tracker_config,
                               default_sample_period=1.0)

        def query(mask):
            return (QueryBuilder(f"masked-{mask}")
                    .split("campus", begin=0, end=600, chunk_duration=60, mask=mask,
                           into="chunks")
                    .process("chunks", executable="count_entering_people.py", max_rows=5,
                             schema=[("kind", "STRING", "")], into="t")
                    .select_count(table="t", epsilon=1.0)
                    .build())

        unmasked = system.execute(query(None), charge_budget=False)
        masked = system.execute(query("owner"), charge_budget=False)
        assert masked.releases[0].noise_scale < unmasked.releases[0].noise_scale

    def test_unknown_mask_rejected(self):
        system = _constant_system()
        query = _count_query()
        query.splits[0].mask = "missing-mask"
        with pytest.raises(Exception):
            system.execute(query)

    def test_region_scheme_used(self, registered_system):
        query = (QueryBuilder("regions")
                 .split("campus", begin=0, end=10, chunk_duration=0.5,
                        region_scheme="default", into="chunks")
                 .process("chunks", executable="count_entering_people.py", max_rows=5,
                          schema=[("kind", "STRING", "")], into="t")
                 .select_count(table="t", epsilon=0.1)
                 .build())
        result = registered_system.execute(query, charge_budget=False)
        assert result.metadata["num_chunks"]["t"] == 40  # 20 temporal chunks x 2 regions

    def test_unknown_region_scheme_rejected(self, registered_system):
        query = (QueryBuilder("regions")
                 .split("campus", begin=0, end=10, chunk_duration=0.5,
                        region_scheme="nope", into="chunks")
                 .process("chunks", executable="count_entering_people.py", max_rows=5,
                          schema=[("kind", "STRING", "")], into="t")
                 .select_count(table="t", epsilon=0.1)
                 .build())
        with pytest.raises(QueryValidationError):
            registered_system.execute(query, charge_budget=False)


class TestRhoZero:
    def test_rho_zero_policy_means_no_noise(self):
        system = PrividSystem(seed=1)
        video = make_simple_video(duration=600.0)
        system.register_camera("cam", video, policy=PrivacyPolicy(rho=0.0, k_segments=1),
                               epsilon_budget=10.0)
        system.register_executable("constant.py", ConstantExecutable(rows=[{"value": 1.0}]))
        result = system.execute(_count_query())
        assert result.releases[0].sensitivity == 0.0
        assert result.releases[0].noisy_value == result.releases[0].raw_value_unsafe


def _constant_text(select: str, *, begin: float = 0.0, end: float = 600.0,
                   into: str = "t") -> str:
    return (f"SPLIT cam BEGIN {begin:g} END {end:g} BY TIME 60sec STRIDE 0sec INTO chunks;\n"
            "PROCESS chunks USING constant.py TIMEOUT 1sec PRODUCING 5 ROWS "
            f"WITH SCHEMA (value:NUMBER=0) INTO {into};\n" + select)


class TestPlanBeforeChunks:
    """A query's releases, sensitivities and charges come from the query, so
    every refusal happens before any chunk runs."""

    @staticmethod
    def _refused_without_chunk_work(system, query, error, match=None, **options):
        completed = []
        before = (system.cache_stats(), system.engine_stats())
        with pytest.raises(error, match=match):
            system.execute(query, on_chunk=completed.append, **options)
        assert completed == []
        assert (system.cache_stats(), system.engine_stats()) == before

    def test_denied_count_runs_no_chunk(self):
        system = _constant_system(epsilon_budget=1.0, cache="memory")
        system.execute(_count_query(epsilon=1.0))
        self._refused_without_chunk_work(system, _count_query(epsilon=1.0),
                                         BudgetExceededError)
        assert system.ledger.contention_stats()["denied"] == 1

    def test_unbound_average_runs_no_chunk(self):
        system = _constant_system(cache="memory")
        query = parse_query(_constant_text("SELECT AVG(value) FROM t;"))
        self._refused_without_chunk_work(system, query, UnboundSensitivityError,
                                         charge_budget=False)

    @pytest.mark.parametrize("group_by", ["value", "hour(chunk), region"])
    def test_grouping_the_plan_cannot_enumerate_runs_no_chunk(self, group_by):
        system = _constant_system(cache="memory")
        query = parse_query(_constant_text(f"SELECT COUNT(*) FROM t GROUP BY {group_by};"))
        self._refused_without_chunk_work(system, query, QueryValidationError,
                                         match="WITH KEYS", charge_budget=False)

    def test_duplicate_table_refused_with_the_validators_message(self):
        system = _constant_system(cache="memory")
        text = _constant_text("", into="t").replace(
            "INTO chunks;", "INTO chunks;\nSPLIT cam BEGIN 0 END 600 BY TIME 60sec "
            "STRIDE 0sec INTO more;\nPROCESS more USING constant.py TIMEOUT 1sec "
            "PRODUCING 5 ROWS WITH SCHEMA (value:NUMBER=0) INTO t;")
        query = parse_query(text + "SELECT COUNT(*) FROM t;")
        self._refused_without_chunk_work(system, query, QueryValidationError,
                                         match="duplicate table name 't'")

    def test_bare_chunk_grouping_releases_every_chunk_of_the_split(self):
        # BEGIN is not a multiple of the chunk duration: the keys are the
        # chunks' own start stamps (not floor(start / d) * d), each release is
        # charged its own chunk, and every chunk's rows land under its key.
        system = _constant_system(rows_per_chunk=2)
        query = parse_query(_constant_text("SELECT COUNT(*) FROM t GROUP BY chunk;",
                                           begin=25.0, end=600.0))
        camera = system.camera("cam")
        chunks = list(iter_chunks(camera.video, ChunkSpec(
            window=TimeInterval(25.0, 600.0), chunk_duration=60.0)))
        result = system.execute(query, charge_budget=False)
        assert [release.group_key for release in result.releases] == \
            [chunk.start_timestamp for chunk in chunks]
        assert [release.source_intervals for release in result.releases] == \
            [{"cam": (chunk.interval,)} for chunk in chunks]
        assert all(release.raw_value_unsafe == 2.0 for release in result.releases)

    @pytest.mark.parametrize("source, own_chunk", [
        ("t", True),
        ("(SELECT value, chunk FROM t)", True),
        ("(SELECT value, hour(chunk) AS chunk FROM t)", False),
        ("(SELECT value, chunk FROM t GROUP BY value WITH KEYS [1])", False),
        ("(SELECT value, chunk FROM t LIMIT 3)", False),
    ])
    def test_a_chunk_key_is_charged_its_chunk_only_while_rows_keep_its_stamp(
            self, source, own_chunk):
        # A re-keyed chunk, a deduplicated group (it keeps its first member's
        # chunk) or a LIMIT's survivors can put one chunk's key on rows that
        # other chunks decide: such a release is charged the whole window.
        system = _constant_system()
        query = parse_query(_constant_text(f"SELECT COUNT(*) FROM {source} GROUP BY chunk;"))
        result = system.execute(query, charge_budget=False)
        assert len(result.releases) == 10
        for position, release in enumerate(result.releases):
            charged = TimeInterval(60.0 * position, 60.0 * (position + 1)) if own_chunk \
                else TimeInterval(0.0, 600.0)
            assert release.source_intervals == {"cam": (charged,)}

    def test_a_bin_over_a_join_is_charged_the_whole_window(self):
        # A join row carries its left row's chunk but exists because of right
        # rows from any chunk, so a bin cannot bound what it depends on.
        text = _constant_text("", into="t").replace(
            "INTO t;", "INTO t;\nPROCESS chunks USING constant.py TIMEOUT 1sec "
            "PRODUCING 5 ROWS WITH SCHEMA (value:NUMBER=0) INTO u;")
        query = parse_query(text + "SELECT COUNT(*) FROM (t JOIN u ON value) "
                                   "GROUP BY bin(chunk, 120);")
        result = _constant_system().execute(query, charge_budget=False)
        assert [release.group_key for release in result.releases] == \
            [0.0, 120.0, 240.0, 360.0, 480.0]
        whole = TimeInterval(0.0, 600.0)
        assert all(release.source_intervals == {"cam": (whole, whole)}
                   for release in result.releases)

    def test_bare_chunk_keys_and_denial_do_not_depend_on_the_rows(self):
        # Three campus scenes put rows in different chunks; the releases, their
        # charges and the denial text are the same, because they are the
        # query's.
        query = parse_query(
            "SPLIT campus BEGIN 0 END 1800 BY TIME 60sec STRIDE 0sec WITH MASK owner "
            "INTO chunks;\nPROCESS chunks USING count_entering_people.py TIMEOUT 5sec "
            'PRODUCING 5 ROWS WITH SCHEMA (kind:STRING="") INTO rows;\n'
            "SELECT COUNT(*) FROM rows GROUP BY chunk CONSUMING 1.0;")
        seen = []
        for seed in (7, 8, 9):
            scenario = build_scenario("campus", scale=0.1, duration_hours=0.5, seed=seed)
            system = PrividSystem(seed=1)
            # One owner policy for all three, so only the rows differ.
            policy_map = MaskPolicyMap.unmasked(PrivacyPolicy(rho=30.0, k_segments=1))
            policy_map.add("owner", scenario.owner_mask, PrivacyPolicy(rho=20.0, k_segments=1))
            register_scenario_camera(system, scenario, epsilon_budget=1.0,
                                     policy_map=policy_map)
            result = system.execute(query, charge_budget=False)
            with pytest.raises(BudgetExceededError) as denial:
                system.execute(query)
            seen.append(([(release.group_key, release.source_intervals)
                          for release in result.releases], str(denial.value),
                         [release.raw_value_unsafe for release in result.releases]))
        assert len(seen[0][0]) == 30
        assert seen[0][:2] == seen[1][:2] == seen[2][:2]
        assert len({tuple(values) for _, _, values in seen}) > 1  # the rows did differ

    def test_bare_region_grouping_releases_every_region(self, registered_system):
        query = parse_query(
            "SPLIT campus BEGIN 0 END 10 BY TIME 0.5sec STRIDE 0sec BY REGION default "
            "INTO c;\nPROCESS c USING count_entering_people.py TIMEOUT 1sec PRODUCING 5 ROWS "
            'WITH SCHEMA (kind:STRING="") INTO t;\n'
            "SELECT COUNT(*) FROM t GROUP BY region CONSUMING 0.1;")
        result = registered_system.execute(query, charge_budget=False)
        scheme = registered_system.camera("campus").region_schemes["default"]
        assert [release.group_key for release in result.releases] == \
            [region.name for region in scheme.regions]


class TestNonFiniteBinKeys:
    """A row value whose bin is not finite is no key, so an analyst's row
    cannot fail a query that its keys would otherwise admit."""

    @staticmethod
    def _run(dy: float, width: float):
        system = _constant_system()
        system.register_executable(
            "dy.py", ConstantExecutable(rows=[{"dy": dy}, {"dy": 30.0}]))
        result = system.execute(parse_query(
            "SPLIT cam BEGIN 0 END 600 BY TIME 60sec STRIDE 0sec INTO chunks;\n"
            "PROCESS chunks USING dy.py TIMEOUT 1sec PRODUCING 5 ROWS "
            "WITH SCHEMA (dy:NUMBER=0) INTO t;\n"
            f"SELECT COUNT(*) FROM t GROUP BY bin(dy, {width}) WITH KEYS [0, 60];"))
        return ([(release.group_key, release.raw_value_unsafe, release.noisy_value)
                 for release in result.releases], result.budget_remaining)

    @pytest.mark.parametrize("dy, width", [(float("inf"), 60), (float("nan"), 60),
                                           (1e308, 0.001)])
    def test_the_query_is_admitted_and_releases_as_for_a_far_finite_value(self, dy, width):
        # inf and NaN fail math.floor; 1e308 / 0.001 overflows to inf.
        releases, remaining = self._run(dy, width)
        assert remaining == {"cam": 8.0}  # two keys at 1.0 over every frame, charged
        assert (releases, remaining) == self._run(1e6, width)
