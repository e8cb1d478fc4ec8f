"""Tests for the chunk execution engines and the chunk result cache."""

from dataclasses import fields

import pytest

from repro.core import (
    ChunkResultCache,
    DiskChunkStore,
    PrividSystem,
    SerialEngine,
    ShardedEngine,
    SocketTransport,
    create_cache,
    create_engine,
)
from repro.core.policy import MaskPolicyMap, PrivacyPolicy
from repro.core.result import QueryResult, ReleaseResult
from repro.cv.detector import DetectorConfig
from repro.cv.tracker import TrackerConfig
from repro.errors import BudgetExceededError
from repro.evaluation import queries
from repro.query.builder import QueryBuilder
from repro.query.parser import parse_query
from repro.relational.aggregates import Aggregation, GroupSpec
from repro.relational.expressions import Column
from repro.relational.plan import GroupBy, TableScan, Union
from repro.relational.table import ColumnSpec, DataType, Schema
from repro.sandbox.environment import ExecutionContext, SandboxRunner
from repro.sandbox.executables import ConstantExecutable, EnteringObjectCounter
from repro.utils.timebase import TimeInterval
from repro.video.chunking import ChunkSpec
from repro.video.masking import Mask
from repro.video.geometry import BoundingBox

from benchmarks.system.inputs import SELECT_SHAPES, query_input
from tests.conftest import flat_rows, make_crossing_object, make_simple_video, split_interval

PERSON_SCHEMA = Schema(columns=(ColumnSpec("kind", DataType.STRING, ""),
                                ColumnSpec("dy", DataType.NUMBER, 0.0)))


def _walker_video(num_walkers: int = 6, duration: float = 600.0):
    objects = [make_crossing_object(f"w{i}", start=20.0 + 80.0 * i, duration=35.0,
                                    x=450.0 + 40.0 * i)
               for i in range(num_walkers)]
    return make_simple_video(duration=duration, objects=objects)


def _runner(max_rows: int = 5) -> SandboxRunner:
    return SandboxRunner(EnteringObjectCounter(category="person"), PERSON_SCHEMA,
                         max_rows=max_rows, timeout_seconds=5.0)


def _context(video) -> ExecutionContext:
    return ExecutionContext(camera=video.name, fps=video.fps,
                            detector_config=DetectorConfig(),
                            tracker_config=TrackerConfig(max_age=8, min_hits=2,
                                                         iou_threshold=0.1))


class TestEngines:
    @pytest.mark.parametrize("spec", ["thread:2", "process:2"])
    def test_parallel_engines_byte_identical_to_serial(self, spec):
        video = _walker_video()
        chunks = split_interval(video, ChunkSpec(window=TimeInterval(0, 600),
                                                 chunk_duration=60.0))
        runner, context = _runner(), _context(video)
        serial_rows = flat_rows(runner.iter_chunk_rows(chunks, context,
                                                       engine=SerialEngine()))
        with create_engine(spec) as engine:
            parallel_rows = flat_rows(runner.iter_chunk_rows(chunks, context,
                                                             engine=engine))
        assert repr(parallel_rows) == repr(serial_rows)

    def test_single_chunk_short_circuits_shards(self):
        video = _walker_video(num_walkers=1, duration=60.0)
        chunks = split_interval(video, ChunkSpec(window=TimeInterval(0, 60),
                                                 chunk_duration=60.0))
        with ShardedEngine(2) as engine:
            rows = flat_rows(_runner().iter_chunk_rows(chunks, _context(video),
                                                       engine=engine))
            assert engine.dispatch_stats.dispatches == 0
        assert rows == flat_rows(_runner().iter_chunk_rows(chunks, _context(video)))

    def test_system_level_results_engine_independent(self):
        def build(engine):
            system = PrividSystem(seed=5, engine=engine)
            system.register_camera("cam", _walker_video(),
                                   policy=PrivacyPolicy(rho=30.0, k_segments=1),
                                   epsilon_budget=100.0)
            return system

        query = (QueryBuilder("q")
                 .split("cam", begin=0, end=600, chunk_duration=60, into="chunks")
                 .process("chunks", executable="count_entering_people.py", max_rows=5,
                          schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0)], into="t")
                 .select_count(table="t", bucket_seconds=120.0, epsilon=1.0)
                 .build())
        serial = build("serial").execute(query)
        for spec in ("thread:2", "process:2"):
            with build(spec) as system:
                result = system.execute(query)
            # Same seed, same pipeline: raw AND noisy values must match exactly.
            assert result.raw_series_unsafe() == serial.raw_series_unsafe()
            assert result.series() == serial.series()

    def test_create_engine_specs(self):
        assert isinstance(create_engine(None), SerialEngine)
        assert isinstance(create_engine("serial"), SerialEngine)
        # ``thread`` and ``process`` are older names of local shards.
        for kind in ("thread", "process"):
            engine = create_engine(f"{kind}:2")
            assert isinstance(engine, ShardedEngine) and engine.num_shards == 2
            assert engine._factories == [SocketTransport.spawn] * 2
            assert create_engine(kind).num_shards == create_engine("sharded").num_shards
            for suffix in ("0", "lots", "tcp", "tcp:2"):
                with pytest.raises(ValueError):
                    create_engine(f"{kind}:{suffix}")
        engine = SerialEngine()
        assert create_engine(engine) is engine
        with pytest.raises(ValueError):
            create_engine("gpu")


class TestChunkResultCache:
    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), 2.5, True, 0, -1, "10"])
    def test_only_a_whole_count_bounds_the_tier(self, bound):
        # NaN and inf never evicted: every ``len > bound`` comparison is false.
        with pytest.raises(ValueError, match="max_entries"):
            ChunkResultCache(max_entries=bound)

    def test_repeat_run_is_served_from_cache(self):
        video = _walker_video()
        chunks = split_interval(video, ChunkSpec(window=TimeInterval(0, 600),
                                                 chunk_duration=60.0))
        runner, context = _runner(), _context(video)
        cache = ChunkResultCache()
        first = flat_rows(runner.iter_chunk_rows(chunks, context, cache=cache))
        assert cache.stats.misses == len(chunks) and cache.stats.hits == 0
        second = flat_rows(runner.iter_chunk_rows(chunks, context, cache=cache))
        assert cache.stats.hits == len(chunks)
        assert second == first

    def test_key_discriminates_configuration(self):
        video = _walker_video()
        chunk = split_interval(video, ChunkSpec(window=TimeInterval(0, 60),
                                                chunk_duration=60.0))[0]
        context = _context(video)
        cache = ChunkResultCache()
        base = cache.key_for(_runner(max_rows=5), chunk, context)
        assert cache.key_for(_runner(max_rows=5), chunk, context) == base
        # Output cap, mask, sample period and executable config all change rows.
        assert cache.key_for(_runner(max_rows=6), chunk, context) != base
        masked = chunk.__class__(video=video, index=0, interval=chunk.interval,
                                 mask=Mask(name="m", regions=(BoundingBox(0, 0, 100, 100),)))
        assert cache.key_for(_runner(max_rows=5), masked, context) != base
        subsampled = chunk.__class__(video=video, index=0, interval=chunk.interval,
                                     sample_period=2.0)
        assert cache.key_for(_runner(max_rows=5), subsampled, context) != base
        other_exe = SandboxRunner(EnteringObjectCounter(category="car"), PERSON_SCHEMA,
                                  max_rows=5, timeout_seconds=5.0)
        assert cache.key_for(other_exe, chunk, context) != base

    def test_failure_fallback_rows_are_never_cached(self):
        from repro.sandbox.executables import CrashingExecutable

        video = _walker_video()
        chunks = split_interval(video, ChunkSpec(window=TimeInterval(0, 120),
                                                 chunk_duration=60.0))
        runner = SandboxRunner(CrashingExecutable(), PERSON_SCHEMA, max_rows=5,
                               timeout_seconds=5.0)
        cache = ChunkResultCache()
        rows = flat_rows(runner.iter_chunk_rows(chunks, _context(video), cache=cache))
        # Default rows were substituted, but a (possibly transient) failure
        # must not poison the cache for later queries over the same chunks.
        assert [row["kind"] for row in rows] == ["", ""]
        assert len(cache) == 0
        assert cache.stats.misses == 2

    def test_same_named_distinct_footage_does_not_collide(self):
        # Two cameras built from equal-looking but different footage (same
        # default video name, fps, duration) must never share cache entries,
        # even when the caller shares one cache across systems.
        cache = ChunkResultCache()
        busy = _walker_video(num_walkers=6)
        empty = make_simple_video(duration=600.0)  # same name "test-cam"
        runner, context = _runner(), _context(busy)
        busy_chunks = split_interval(busy, ChunkSpec(window=TimeInterval(0, 600),
                                                     chunk_duration=60.0))
        empty_chunks = split_interval(empty, ChunkSpec(window=TimeInterval(0, 600),
                                                       chunk_duration=60.0))
        busy_rows = flat_rows(runner.iter_chunk_rows(busy_chunks, context,
                                                     cache=cache))
        empty_rows = flat_rows(runner.iter_chunk_rows(empty_chunks, context,
                                                      cache=cache))
        assert cache.stats.hits == 0
        assert len([row for row in busy_rows if row["kind"] == "person"]) > 0
        assert all(row["kind"] != "person" for row in empty_rows)

    def test_cached_rows_are_isolated_from_mutation(self):
        cache = ChunkResultCache()
        cache.put("k", [{"value": 1.0}])
        first = cache.get("k")
        first[0]["value"] = 99.0
        assert cache.get("k") == [{"value": 1.0}]

    def test_lru_eviction(self):
        cache = ChunkResultCache(max_entries=2)
        cache.put("a", [])
        cache.put("b", [])
        assert cache.get("a") == []  # refresh 'a', making 'b' least recent
        cache.put("c", [])
        assert cache.stats.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") == [] and cache.get("c") == []

    def test_hot_key_survives_max_entries_of_cold_inserts(self):
        # True LRU: a get refreshes recency, so a key read between every
        # insert outlives max_entries worth of cold, never-read entries.
        cache = ChunkResultCache(max_entries=4)
        cache.put("hot", [{"value": 1.0}])
        for index in range(cache.max_entries):
            cache.put(f"cold-{index}", [])
            assert cache.get("hot") == [{"value": 1.0}]
        assert cache.stats.evictions == 1  # only cold entries were evicted
        assert cache.get("cold-0") is None

    def test_system_level_cache_reuses_chunks_across_queries(self):
        cache = ChunkResultCache()
        system = PrividSystem(seed=3, cache=cache)
        system.register_camera("cam", _walker_video(),
                               policy=PrivacyPolicy(rho=30.0, k_segments=1),
                               epsilon_budget=100.0)

        def query(window):
            return (QueryBuilder("q")
                    .split("cam", begin=0, end=window, chunk_duration=60, into="chunks")
                    .process("chunks", executable="count_entering_people.py", max_rows=5,
                             schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0)],
                             into="t")
                    .select_count(table="t", epsilon=1.0)
                    .build())

        system.execute(query(300.0), charge_budget=False)
        assert system.cache_stats() == {"enabled": True, "hits": 0, "misses": 5,
                                        "evictions": 0, "hit_rate": 0.0,
                                        "read_errors": 0, "entries": 5}
        # The wider window shares its first five chunks with the narrower one.
        wide = system.execute(query(600.0), charge_budget=False)
        assert system.cache_stats()["hits"] == 5
        assert system.cache_stats()["misses"] == 10
        uncached = PrividSystem(seed=3)
        uncached.register_camera("cam", _walker_video(),
                                 policy=PrivacyPolicy(rho=30.0, k_segments=1),
                                 epsilon_budget=100.0)
        reference = uncached.execute(query(600.0), charge_budget=False)
        assert wide.raw_series_unsafe() == reference.raw_series_unsafe()
        # cache_stats is always a dict; disabled caching reports enabled=False.
        assert uncached.cache_stats() == {"enabled": False}

    def test_no_store_changes_the_rows_an_executable_returned(self, tmp_path):
        # A lone surrogate is a legal Python str that utf-8 cannot encode; an
        # (untrusted) executable may emit one, and whether a store is
        # configured must not decide whether the query survives it.
        video = make_simple_video(duration=240.0)
        chunks = split_interval(video, ChunkSpec(window=TimeInterval(0, 240),
                                                 chunk_duration=60.0))
        runner = SandboxRunner(ConstantExecutable(rows=[{"plate": "\ud800"}]),
                               Schema(columns=(ColumnSpec("plate", DataType.STRING, ""),)),
                               max_rows=2, timeout_seconds=5.0)
        context = _context(video)
        reference = flat_rows(runner.iter_chunk_rows(chunks, context))
        assert [row["plate"] for row in reference] == ["\ud800"] * len(chunks)
        stores = {"memory": lambda: create_cache("memory"),
                  "disk": lambda: DiskChunkStore(tmp_path / "d"),
                  "tiered": lambda: create_cache(f"tiered:{tmp_path / 't'}")}
        for name, store in stores.items():
            cold = flat_rows(runner.iter_chunk_rows(chunks, context, cache=store()))
            assert repr(cold) == repr(reference), name
        for name in ("disk", "tiered"):
            store = stores[name]()  # a fresh handle: served from the files
            rows = flat_rows(runner.iter_chunk_rows(chunks, context, cache=store))
            assert repr(rows) == repr(reference), name
            assert store.stats_dict()["hits"] == len(chunks)
        shared = create_cache(f"tiered:{tmp_path / 's'}")
        with create_engine("sharded:2") as engine:  # the coordinator does the puts
            sharded = flat_rows(runner.iter_chunk_rows(chunks, context, engine=engine,
                                                       cache=shared))
        assert repr(sharded) == repr(reference)
        assert shared.disk.writes == len(shared.disk) == len(chunks)
        warm = create_cache(f"tiered:{tmp_path / 's'}")
        rows = flat_rows(runner.iter_chunk_rows(chunks, context, cache=warm))
        assert repr(rows) == repr(reference)
        assert warm.stats_dict()["hits"] == len(chunks)


class TestMultiCameraAccounting:
    def _two_camera_system(self, *, budget_b: float = 100.0) -> PrividSystem:
        system = PrividSystem(seed=11)
        system.register_executable("constant.py", ConstantExecutable(rows=[{"value": 1.0}]))
        system.register_camera("cam_a", make_simple_video(duration=600.0, name="cam-a"),
                               policy=PrivacyPolicy(rho=30.0, k_segments=1),
                               epsilon_budget=100.0)
        system.register_camera("cam_b", make_simple_video(duration=1200.0, name="cam-b"),
                               policy=PrivacyPolicy(rho=30.0, k_segments=1),
                               epsilon_budget=budget_b)
        return system

    def _union_query(self, epsilon: float = 1.0):
        builder = (QueryBuilder("union")
                   .split("cam_a", begin=0, end=600, chunk_duration=60, into="chunks_a")
                   .split("cam_b", begin=0, end=1200, chunk_duration=60, into="chunks_b")
                   .process("chunks_a", executable="constant.py", max_rows=2,
                            schema=[("value", "NUMBER", 0.0)], into="ta")
                   .process("chunks_b", executable="constant.py", max_rows=2,
                            schema=[("value", "NUMBER", 0.0)], into="tb"))
        union = Union(children=(TableScan("ta"), TableScan("tb")))
        return builder.select_count(source=union, epsilon=epsilon).build()

    def test_release_interval_covers_every_charged_camera(self):
        system = self._two_camera_system()
        result = system.execute(self._union_query())
        release = result.releases[0]
        # The ledger charged cam_a over [0, 600) and cam_b over [0, 1200); the
        # reported intervals must match those charges, not just one source's.
        assert release.source_intervals == {"cam_a": (TimeInterval(0.0, 600.0),),
                                            "cam_b": (TimeInterval(0.0, 1200.0),)}
        assert release.interval == TimeInterval(0.0, 1200.0)

    def test_ledger_charges_are_the_releases_source_intervals(self):
        # Bins of 400 s over cam_a's [0, 600) and cam_b's [0, 1200): the
        # [800, 1200) bin clips to zero length on cam_a, so it charges cam_b
        # alone.  Each ledger's charges are the releases' source intervals,
        # in release order and at the SELECT's epsilon — not merely as many.
        system = self._two_camera_system()
        union = Union(children=(TableScan("ta"), TableScan("tb")))
        query = (QueryBuilder("binned")
                 .split("cam_a", begin=0, end=600, chunk_duration=60, into="chunks_a")
                 .split("cam_b", begin=0, end=1200, chunk_duration=60, into="chunks_b")
                 .process("chunks_a", executable="constant.py", max_rows=2,
                          schema=[("value", "NUMBER", 0.0)], into="ta")
                 .process("chunks_b", executable="constant.py", max_rows=2,
                          schema=[("value", "NUMBER", 0.0)], into="tb")
                 .select_count(source=union, bucket_seconds=400.0, epsilon=0.5)
                 .build())
        result = system.execute(query)
        assert [release.group_key for release in result.releases] == [0.0, 400.0, 800.0]
        assert result.releases[2].source_intervals == {
            "cam_b": (TimeInterval(800.0, 1200.0),)}
        for camera, expected in (("cam_a", [(0.0, 400.0), (400.0, 600.0)]),
                                 ("cam_b", [(0.0, 400.0), (400.0, 800.0),
                                            (800.0, 1200.0)])):
            reported = [(interval, release.epsilon) for release in result.releases
                        for interval in release.source_intervals.get(camera, ())]
            assert system.camera(camera).ledger.charges == reported
            assert reported == [(TimeInterval(start, end), 0.5) for start, end in expected]

    #: Every query shape the project ships: each query builder of
    #: ``repro.evaluation.queries`` (which the Porto and mask examples run),
    #: the traffic example's AVG plus WITH KEYS query, and the system
    #: benchmark's three SELECT shapes (the other examples' hourly COUNT).
    SHIPPED = {
        "case1 hourly": lambda: queries.case1_counting_query(
            "campus", window_seconds=7200.0, begin=30.0),
        "case2 working hours": lambda: queries.case2_porto_working_hours_query(
            ["cam_a", "cam_b"], ["T1", "T2"], num_days=1, chunk_duration=3600.0),
        "case2 intersection": lambda: queries.case2_porto_intersection_query(
            "cam_a", "cam_b", ["T1", "T2"], num_days=1, chunk_duration=3600.0),
        "case2 argmax": lambda: queries.case2_porto_argmax_query(
            ["cam_a", "cam_b"], num_days=1, chunk_duration=3600.0),
        "case3 trees": lambda: queries.case3_tree_query("campus", window_seconds=60.0),
        "case4 red light": lambda: queries.case4_red_light_query("highway",
                                                                window_seconds=7200.0),
        "case5 northbound": lambda: queries.case5_directional_query("campus",
                                                                   window_seconds=7200.0),
        "traffic analytics": lambda: (
            QueryBuilder("traffic")
            .split("highway", begin=0, end=7200.0, chunk_duration=30.0, mask="owner",
                   into="chunks")
            .process("chunks", executable="vehicle_reporter.py", max_rows=15,
                     schema=[("plate", "STRING", ""), ("color", "STRING", ""),
                             ("speed", "NUMBER", 0.0)], into="cars")
            .select_average("speed", 30.0, 120.0, table="cars", epsilon=0.5)
            .select(Aggregation(function="COUNT"),
                    GroupBy(TableScan("cars"), keys=("plate",), explicit_keys=("P1", "P2")),
                    group_by=GroupSpec(expressions=(("color", Column("color")),),
                                       expected_keys=("RED", "WHITE")), epsilon=0.15)
            .build()),
        **{f"benchmark shape {shape}": (lambda shape=shape: parse_query(
            query_input("campus", 30.0, 4000.0, shape, 0.5).text))
           for shape in range(len(SELECT_SHAPES))},
    }

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_the_plan_is_the_execution_for_every_shipped_query(self, name):
        # The plan, made before any chunk runs, names every release and its
        # charge; the execution releases exactly those, and the ledgers
        # charge exactly those.  Rows are constants: no charge reads them.
        system = PrividSystem(seed=11)
        for executable in ("count_entering_people.py", "vehicle_reporter.py",
                           "taxi_sightings.py", "tree_leaf_classifier.py",
                           "red_light_observer.py", "northbound_people.py"):
            system.register_executable(executable, ConstantExecutable(rows=[{}, {}]),
                                       replace=True)
        policy_map = MaskPolicyMap.unmasked(PrivacyPolicy(rho=30.0, k_segments=1))
        policy_map.add("owner", Mask("owner"), PrivacyPolicy(rho=20.0, k_segments=1))
        policy_map.add("traffic-light-only", Mask("lights"), PrivacyPolicy(rho=0.0, k_segments=1))
        for camera in ("campus", "highway", "cam_a", "cam_b"):
            system.register_camera(camera, make_simple_video(duration=86400.0, name=camera),
                                   policy_map=policy_map, epsilon_budget=1000.0)
        query = self.SHIPPED[name]()
        plan = system.plan(query)
        planned = [charge or None for select in plan.selects
                   for charge in select.source_intervals]
        result = system.execute(query)
        assert [release.source_intervals for release in result.releases] == planned
        assert [release.label for release in result.releases] == \
            [release.label for select in plan.selects for release in select.releases]
        for camera, requests in plan.requests.items():
            assert system.camera(camera).ledger.charges == \
                [(request.interval, request.epsilon) for request in requests]
        assert set(plan.requests) <= {"campus", "highway", "cam_a", "cam_b"}

    def test_disjoint_windows_of_one_camera_reported_unmerged(self):
        # Two SPLITs of the same camera over disjoint windows charge two
        # separate intervals; reporting their union span would claim the gap
        # in between was charged when it was not.
        system = PrividSystem(seed=11)
        system.register_executable("constant.py", ConstantExecutable(rows=[{"value": 1.0}]))
        system.register_camera("cam", make_simple_video(duration=1200.0),
                               policy=PrivacyPolicy(rho=30.0, k_segments=1),
                               epsilon_budget=100.0)
        builder = (QueryBuilder("disjoint")
                   .split("cam", begin=0, end=300, chunk_duration=60, into="early")
                   .split("cam", begin=900, end=1200, chunk_duration=60, into="late")
                   .process("early", executable="constant.py", max_rows=2,
                            schema=[("value", "NUMBER", 0.0)], into="ta")
                   .process("late", executable="constant.py", max_rows=2,
                            schema=[("value", "NUMBER", 0.0)], into="tb"))
        union = Union(children=(TableScan("ta"), TableScan("tb")))
        result = system.execute(builder.select_count(source=union, epsilon=1.0).build())
        release = result.releases[0]
        assert release.source_intervals == {"cam": (TimeInterval(0.0, 300.0),
                                                    TimeInterval(900.0, 1200.0))}
        assert release.interval == TimeInterval(0.0, 1200.0)
        # The gap was genuinely left uncharged.
        assert system.remaining_budget("cam", TimeInterval(300, 900)) == pytest.approx(100.0)

    def test_multi_camera_admission_is_all_or_nothing(self):
        system = self._two_camera_system(budget_b=0.5)
        with pytest.raises(BudgetExceededError):
            system.execute(self._union_query(epsilon=0.8))
        # cam_a passed its own pre-check but must not have been charged.
        assert system.remaining_budget("cam_a", TimeInterval(0, 600)) == pytest.approx(100.0)
        assert system.remaining_budget("cam_b", TimeInterval(0, 1200)) == pytest.approx(0.5)


class TestResampleArgmax:
    def _argmax_result(self, *, epsilon: float):
        system = PrividSystem(seed=21)
        system.register_executable("labels.py", ConstantExecutable(
            rows=[{"label": "a"}, {"label": "b"}]))
        video = make_simple_video(duration=600.0)
        system.register_camera("cam", video, policy=PrivacyPolicy(rho=30.0, k_segments=1),
                               epsilon_budget=1000.0)
        query = (QueryBuilder("argmax")
                 .split("cam", begin=0, end=600, chunk_duration=60, into="chunks")
                 .process("chunks", executable="labels.py", max_rows=4,
                          schema=[("label", "STRING", "")], into="t")
                 .select(Aggregation(function="ARGMAX"), TableScan("t"),
                         group_by=GroupSpec(expressions=(("label", Column("label")),),
                                            expected_keys=("a", "b")),
                         epsilon=epsilon)
                 .build())
        return system, system.execute(query)

    def test_resample_redraws_argmax_winner(self):
        # Equal candidate counts and large noise: the report-noisy-max winner
        # must vary across resamples instead of repeating the stored one.
        system, result = self._argmax_result(epsilon=0.05)
        release = result.releases[0]
        assert release.kind == "argmax"
        assert release.candidates == {"a": 10.0, "b": 10.0}
        winners = {system.resample_noise(result).releases[0].noisy_value
                   for _ in range(50)}
        assert winners == {"a", "b"}

    def _grouped_count_result(self):
        system = PrividSystem(seed=21)
        system.register_executable("constant.py", ConstantExecutable(rows=[{"value": 1.0}]))
        system.register_camera("cam", make_simple_video(duration=600.0),
                               policy=PrivacyPolicy(rho=30.0, k_segments=1),
                               epsilon_budget=1000.0)
        query = (QueryBuilder("binned")
                 .split("cam", begin=0, end=600, chunk_duration=60, into="chunks")
                 .process("chunks", executable="constant.py", max_rows=2,
                          schema=[("value", "NUMBER", 0.0)], into="t")
                 .select_count(table="t", bucket_seconds=200.0, epsilon=0.5)
                 .build())
        return system, system.execute(query)

    @pytest.mark.parametrize("kind", ["numeric", "argmax"])
    def test_resample_changes_nothing_but_the_noisy_value(self, kind):
        system, result = self._argmax_result(epsilon=0.05) if kind == "argmax" \
            else self._grouped_count_result()
        fresh = system.resample_noise(result)
        for field in fields(QueryResult):
            if field.name != "releases":
                assert getattr(fresh, field.name) == getattr(result, field.name), field.name
        assert result.budget_remaining is not None
        assert len(fresh.releases) == len(result.releases) >= 1
        for before, after in zip(result.releases, fresh.releases):
            assert before.kind == kind
            assert before.source_intervals is not None
            for field in fields(ReleaseResult):
                if field.name != "noisy_value":
                    assert getattr(after, field.name) == getattr(before, field.name), \
                        field.name
        if kind == "numeric":
            assert [release.noisy_value for release in fresh.releases] != \
                [release.noisy_value for release in result.releases]

    def test_resample_preserves_argmax_metadata(self):
        system, result = self._argmax_result(epsilon=0.05)
        fresh = system.resample_noise(result)
        release = fresh.releases[0]
        assert release.candidates == result.releases[0].candidates
        assert release.raw_value_unsafe == result.releases[0].raw_value_unsafe
        assert release.noisy_value in ("a", "b")
