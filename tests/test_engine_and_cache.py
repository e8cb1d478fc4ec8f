"""Tests for the chunk execution engines and the chunk result cache."""

import pytest

from repro.core import (
    ChunkResultCache,
    PrividSystem,
    SerialEngine,
    ShardedEngine,
    ThreadPoolEngine,
    create_cache,
    create_engine,
)
from repro.core.policy import PrivacyPolicy
from repro.cv.detector import DetectorConfig
from repro.cv.tracker import TrackerConfig
from repro.errors import BudgetExceededError
from repro.query.builder import QueryBuilder
from repro.relational.plan import TableScan, Union
from repro.relational.table import ColumnSpec, DataType, Schema
from repro.sandbox.environment import ExecutionContext, SandboxRunner
from repro.sandbox.executables import ConstantExecutable, EnteringObjectCounter
from repro.utils.timebase import TimeInterval
from repro.video.chunking import ChunkSpec, split_interval
from repro.video.masking import Mask
from repro.video.geometry import BoundingBox

from tests.conftest import make_crossing_object, make_simple_video

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
    @pytest.mark.parametrize("spec", ["thread:4", "process:2"])
    def test_parallel_engines_byte_identical_to_serial(self, spec):
        video = _walker_video()
        chunks = split_interval(video, ChunkSpec(window=TimeInterval(0, 600),
                                                 chunk_duration=60.0))
        runner, context = _runner(), _context(video)
        serial_rows = runner.run_chunks(chunks, context, engine=SerialEngine())
        with create_engine(spec) as engine:
            parallel_rows = runner.run_chunks(chunks, context, engine=engine)
        assert repr(parallel_rows) == repr(serial_rows)

    def test_single_chunk_short_circuits_pools(self):
        video = _walker_video(num_walkers=1, duration=60.0)
        chunks = split_interval(video, ChunkSpec(window=TimeInterval(0, 60),
                                                 chunk_duration=60.0))
        rows = _runner().run_chunks(chunks, _context(video),
                                    engine=ThreadPoolEngine(max_workers=4))
        assert rows == _runner().run_chunks(chunks, _context(video))

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
        threaded = build("thread:4").execute(query)
        with build("process:2") as system:
            process = system.execute(query)
        # Same seed, same pipeline: raw AND noisy values must match exactly.
        for result in (threaded, process):
            assert result.raw_series_unsafe() == serial.raw_series_unsafe()
            assert result.series() == serial.series()

    def test_create_engine_specs(self):
        assert isinstance(create_engine(None), SerialEngine)
        assert isinstance(create_engine("serial"), SerialEngine)
        thread = create_engine("thread:8")
        assert isinstance(thread, ThreadPoolEngine) and thread.max_workers == 8
        # ``process`` is the older name of pipe shards.
        process = create_engine("process:2")
        assert isinstance(process, ShardedEngine) and process.num_shards == 2
        assert process._transport_factories is None
        assert create_engine("process").num_shards == create_engine("sharded").num_shards
        engine = SerialEngine()
        assert create_engine(engine) is engine
        with pytest.raises(ValueError):
            create_engine("gpu")
        with pytest.raises(ValueError):
            create_engine("thread:0")
        with pytest.raises(ValueError):
            create_engine("thread:lots")


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
        first = runner.run_chunks(chunks, context, cache=cache)
        assert cache.stats.misses == len(chunks) and cache.stats.hits == 0
        second = runner.run_chunks(chunks, context, cache=cache)
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
        rows = runner.run_chunks(chunks, _context(video), cache=cache)
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
        busy_rows = runner.run_chunks(busy_chunks, context, cache=cache)
        empty_rows = runner.run_chunks(empty_chunks, context, cache=cache)
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
                                        "evictions": 0, "hit_rate": 0.0, "entries": 5}
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
        reference = runner.run_chunks(chunks, context)
        assert [row["plate"] for row in reference] == ["\ud800"] * len(chunks)
        for spec in ("memory", f"disk:{tmp_path / 'd'}", f"tiered:{tmp_path / 't'}"):
            cold = runner.run_chunks(chunks, context, cache=create_cache(spec))
            assert repr(cold) == repr(reference), spec
        for spec in (f"disk:{tmp_path / 'd'}", f"tiered:{tmp_path / 't'}"):
            store = create_cache(spec)  # a fresh handle: served from the files
            assert repr(runner.run_chunks(chunks, context, cache=store)) \
                == repr(reference), spec
            assert store.stats_dict()["hits"] == len(chunks)
        shared = create_cache(f"tiered:{tmp_path / 's'}")
        with create_engine("sharded:2") as engine:
            engine.share_store(shared)  # the shards do the puts
            sharded = runner.run_chunks(chunks, context, engine=engine, cache=shared)
        assert repr(sharded) == repr(reference)
        assert shared.disk.writes == 0 and len(shared.disk) == len(chunks)
        warm = create_cache(f"tiered:{tmp_path / 's'}")
        assert repr(runner.run_chunks(chunks, context, cache=warm)) == repr(reference)
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
                 .select_argmax("label", keys=("a", "b"), table="t", epsilon=epsilon)
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

    def test_resample_preserves_argmax_metadata(self):
        system, result = self._argmax_result(epsilon=0.05)
        fresh = system.resample_noise(result)
        release = fresh.releases[0]
        assert release.candidates == result.releases[0].candidates
        assert release.raw_value_unsafe == result.releases[0].raw_value_unsafe
        assert release.noisy_value in ("a", "b")
