"""Tests for the streaming split→process→aggregate dataflow and tiered store.

The refactor's contract: SPLIT produces chunks lazily (``iter_chunks``),
engines stream outcomes through a bounded in-flight window (``imap_chunks``),
the executor appends rows per chunk as they arrive, and none of it changes a
single byte of any result — chunk outputs are order-independent by the
hashing determinism contract, so streamed and batch dataflows must agree
exactly, across engines and across cache tiers (memory / disk / tiered).
"""

import json
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ChunkResultCache,
    DiskChunkStore,
    PrividSystem,
    SerialEngine,
    ShardedEngine,
    TieredChunkCache,
    create_cache,
    create_engine,
)
from repro.core.policy import PrivacyPolicy
from repro.cv.detector import DetectorConfig
from repro.cv.tracker import TrackerConfig
from repro.query.builder import QueryBuilder
from repro.sandbox.environment import ExecutionContext, SandboxRunner
from repro.sandbox.executables import EnteringObjectCounter
from repro.relational.table import ColumnSpec, DataType, Schema
from repro.scene.objects import SceneObject
from repro.scene.schedules import CyclicSchedule
from repro.utils.timebase import TimeInterval
from repro.video.chunking import Chunk, ChunkSpec, count_chunks, iter_chunks
from repro.video.geometry import BoundingBox
from repro.video.masking import EMPTY_MASK, Mask
from repro.video.regions import BoundaryType

from tests.conftest import (
    flat_rows,
    grid_region_scheme,
    make_crossing_object,
    make_simple_video,
    split_interval,
)

PERSON_SCHEMA = Schema(columns=(ColumnSpec("kind", DataType.STRING, ""),
                                ColumnSpec("dy", DataType.NUMBER, 0.0)))


def _walker_video(num_walkers: int = 6, duration: float = 600.0, fps: float = 2.0):
    objects = [make_crossing_object(f"w{i}", start=20.0 + 80.0 * i, duration=35.0,
                                    x=450.0 + 40.0 * i)
               for i in range(num_walkers)]
    return make_simple_video(duration=duration, objects=objects, fps=fps)


#: At 20 fps every chunk duration and stride the SPLIT property draws is a
#: whole number of frames (-0.05 s is one frame back).
_SPLIT_VIDEO = _walker_video(num_walkers=2, duration=12.0, fps=20.0)
_SPLIT_MASK = Mask("corner", (BoundingBox(0.0, 0.0, 200.0, 150.0),))


def _runner() -> SandboxRunner:
    return SandboxRunner(EnteringObjectCounter(category="person"), PERSON_SCHEMA,
                         max_rows=5, timeout_seconds=5.0)


def _context(video) -> ExecutionContext:
    return ExecutionContext(camera=video.name, fps=video.fps,
                            detector_config=DetectorConfig(),
                            tracker_config=TrackerConfig(max_age=8, min_hits=2,
                                                         iou_threshold=0.1))


def _count_query(window: float = 600.0, chunk: float = 60.0):
    return (QueryBuilder("stream")
            .split("cam", begin=0, end=window, chunk_duration=chunk, into="chunks")
            .process("chunks", executable="count_entering_people.py", max_rows=5,
                     schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0)], into="t")
            .select_count(table="t", bucket_seconds=120.0, epsilon=1.0)
            .build())


def _build_system(video, *, engine=None, cache=None, seed: int = 5) -> PrividSystem:
    system = PrividSystem(seed=seed, engine=engine, cache=cache)
    system.register_camera("cam", video, policy=PrivacyPolicy(rho=30.0, k_segments=1),
                           epsilon_budget=100.0)
    return system


class TestLazyChunking:
    def test_iter_chunks_matches_split_interval(self):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        lazy = list(iter_chunks(video, spec))
        assert lazy == split_interval(video, spec)
        assert count_chunks(video, spec) == len(lazy) == 10

    def test_iter_chunks_is_lazy_but_validates_eagerly(self):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        stream = iter_chunks(video, spec)
        assert next(stream).index == 0  # only the head was materialized
        # Misaligned chunking must fail at call time, before any pull.
        bad = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.3)
        with pytest.raises(ValueError):
            iter_chunks(video, bad)

    def test_count_chunks_clamps_and_multiplies_regions(self):
        video = _walker_video(duration=600.0)
        oversized = ChunkSpec(window=TimeInterval(0, 1e6), chunk_duration=60.0)
        assert count_chunks(video, oversized) == 10  # clamped to the footage

    def test_count_matches_iteration_under_float_accumulation(self):
        # A running float accumulator can land a hair under the window end
        # after the last chunk (ten 0.1s steps sum to 0.9999...) and emit a
        # spurious sliver chunk that the O(1) count — which sensitivity
        # accounting uses — would never predict.  Split derives boundaries
        # from index arithmetic, so count and iteration always agree.
        window = TimeInterval(0.0, 1.0)
        assert window.num_chunks(0.1) == len(list(window.split(0.1))) == 10
        for duration in (0.7, 1.1, 3.3, 36000.0):
            for chunk in (0.1, 0.3, 0.7):
                interval = TimeInterval(0.0, duration)
                chunks = list(interval.split(chunk))
                assert len(chunks) == interval.num_chunks(chunk), (duration, chunk)
                assert chunks[-1].end == duration

    @settings(max_examples=150, deadline=None)
    @given(start=st.one_of(st.sampled_from([0.0, 0, 0.1, 5.9]), st.floats(0.0, 15.0)),
           length=st.one_of(st.sampled_from([1.0, 0.0, 0.3, 1e6]), st.floats(0.0, 15.0)),
           duration=st.sampled_from([0.1, 0.3, 0.7, 1.0, 2.5, 7, 30.0]),
           stride=st.sampled_from([0.0, 0.05, 0.1, 0.5, 3]),
           scheme=st.sampled_from([None, (1, 1), (2, 2)]),
           sample_period=st.sampled_from([None, 1.0]))
    def test_one_step_chunks_equal_the_validated_constructors(
            self, start, length, duration, stride, scheme, sample_period):
        """SPLIT builds each interval and chunk without the constructors'
        checks; what it builds is what they build: ``==``, ``repr`` and pickle
        bytes (and ``hash`` for intervals), and as many as ``count_chunks``."""
        video = _SPLIT_VIDEO
        spec = ChunkSpec(window=TimeInterval(start, start + length), chunk_duration=duration,
                         stride=stride, sample_period=sample_period)
        regions = None if scheme is None else grid_region_scheme(
            video.width, video.height, *scheme, boundary=BoundaryType.HARD)
        built = list(iter_chunks(video, spec, mask=_SPLIT_MASK, region_scheme=regions))
        window = spec.window.clamp(video.interval)
        step = duration + stride
        expected = []
        for index in range(window.num_chunks(duration, stride)):
            position = min(window.start + index * step, window.end)
            interval = TimeInterval(position, min(position + duration, window.end))
            for region in (None,) if regions is None else regions.regions:
                expected.append(Chunk(video=video, index=index, interval=interval,
                                      mask=_SPLIT_MASK, region=region,
                                      sample_period=sample_period))
        assert len(built) == len(expected) == count_chunks(video, spec, region_scheme=regions)
        for got, want in zip(built, expected):
            assert got == want and repr(got) == repr(want)
            assert pickle.dumps(got) == pickle.dumps(want)
            assert got.interval == want.interval and hash(got.interval) == hash(want.interval)
            assert pickle.dumps(got.interval) == pickle.dumps(want.interval)
        # Frozen as ever.
        for chunk in built[:1]:
            with pytest.raises(FrozenInstanceError):
                chunk.mask = EMPTY_MASK


class TestStreamingEngines:
    @pytest.mark.parametrize("engine", [SerialEngine(), ShardedEngine(2, chunksize=3)])
    def test_imap_streamed_equals_batch(self, engine):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        batch = list(SerialEngine().imap_chunks(runner, split_interval(video, spec),
                                                context))
        streamed = list(engine.imap_chunks(runner, iter_chunks(video, spec), context))
        assert repr([outcome.rows for outcome in streamed]) \
            == repr([outcome.rows for outcome in batch])
        shutdown = getattr(engine, "shutdown", None)
        if shutdown:
            shutdown()

    @pytest.mark.parametrize("shards, chunksize", [(2, 1), (3, 1), (2, 2)])
    def test_in_flight_window_bounds_materialized_chunks(self, shards, chunksize):
        engine = ShardedEngine(shards, chunksize=chunksize)
        window = 2 * shards * chunksize
        video = _walker_video(num_walkers=3)
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=30.0)
        runner, context = _runner(), _context(video)
        state = {"pulled": 0, "consumed": 0, "peak": 0}

        def instrumented():
            for chunk in iter_chunks(video, spec):
                state["pulled"] += 1
                state["peak"] = max(state["peak"],
                                    state["pulled"] - state["consumed"])
                yield chunk

        with engine:
            for _ in engine.imap_chunks(runner, instrumented(), context):
                state["consumed"] += 1
        assert state["pulled"] == count_chunks(video, spec) == 20
        assert state["peak"] <= window, \
            f"materialized {state['peak']} chunks, window is {window}"

    def test_context_manager_shuts_down_shards(self):
        engine = ShardedEngine(2)
        video = _walker_video(num_walkers=2)
        spec = ChunkSpec(window=TimeInterval(0, 120), chunk_duration=60.0)
        with engine as entered:
            assert entered is engine
            list(entered.imap_chunks(_runner(), iter_chunks(video, spec), _context(video)))
            assert engine._shards
        assert engine._shards == {}

    def test_empty_and_single_chunk_streams(self):
        video = _walker_video(num_walkers=1, duration=60.0)
        runner, context = _runner(), _context(video)
        with ShardedEngine(2) as engine:
            assert list(engine.imap_chunks(runner, iter(()), context)) == []
            single = iter_chunks(video, ChunkSpec(window=TimeInterval(0, 60),
                                                  chunk_duration=60.0))
            outcomes = list(engine.imap_chunks(runner, single, context))
            assert len(outcomes) == 1
            # A single-chunk stream never needed a shard.
            assert engine._shards == {}


class TestStreamedSystemParity:
    def test_query_identical_across_engines_and_tiers(self, tmp_path):
        video = _walker_video()
        query = _count_query()
        reference_system = _build_system(video)
        reference = reference_system.execute(query)
        reference_remaining = reference_system.camera("cam").ledger \
            .remaining_over(TimeInterval(0, 600))
        assert reference_remaining < 100.0  # the query genuinely charged
        configs = [
            ("sharded", "sharded:2", None),
            ("memory-cache", None, "memory"),
            ("tiered-cold", None, f"tiered:{tmp_path / 'store'}"),
            ("tiered-warm", None, f"tiered:{tmp_path / 'store'}"),
        ]
        for label, engine, cache in configs:
            system = _build_system(video, engine=engine, cache=cache)
            result = system.execute(query)
            assert result.raw_series_unsafe() == reference.raw_series_unsafe(), label
            assert result.series() == reference.series(), label
            # Budget charges are identical regardless of engine or cache tier.
            assert system.camera("cam").ledger.remaining_over(TimeInterval(0, 600)) \
                == pytest.approx(reference_remaining)
            system.close()

    def test_two_processes_share_one_split_stream(self):
        # Two PROCESS statements over the same SPLIT output: the lazy chunk
        # factory must produce a fresh stream per consumer.
        video = _walker_video()
        system = _build_system(video)
        query = (QueryBuilder("shared-split")
                 .split("cam", begin=0, end=600, chunk_duration=60, into="chunks")
                 .process("chunks", executable="count_entering_people.py", max_rows=5,
                          schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0)],
                          into="first")
                 .process("chunks", executable="count_entering_people.py", max_rows=5,
                          schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0)],
                          into="second")
                 .select_count(table="first", epsilon=1.0)
                 .select_count(table="second", epsilon=1.0)
                 .build())
        result = system.execute(query, charge_budget=False)
        raw = result.raw_series_unsafe()
        assert raw[0][1] == raw[1][1] > 0


class TestTieredStore:
    def test_warm_disk_rerun_skips_every_execution(self, tmp_path):
        # The acceptance scenario: a fresh system (cold memory tier) over a
        # warm disk directory serves every chunk from disk — zero sandbox
        # executions — and releases are byte-identical.
        video = _walker_video()
        query = _count_query()
        num_chunks = 10
        cold = _build_system(video, cache=f"tiered:{tmp_path / 'store'}")
        first = cold.execute(query)
        stats = cold.cache_stats()
        assert stats["misses"] == num_chunks and stats["disk"]["writes"] == num_chunks
        warm = _build_system(video, cache=f"tiered:{tmp_path / 'store'}")
        second = warm.execute(query)
        stats = warm.cache_stats()
        assert stats["disk"]["hits"] == num_chunks  # disk hit count == chunk count
        assert stats["disk"]["writes"] == 0
        assert stats["hits"] == num_chunks and stats["misses"] == 0
        assert repr(second.raw_series_unsafe()) == repr(first.raw_series_unsafe())
        assert repr(second.series()) == repr(first.series())

    def test_disk_store_shared_across_runner_calls(self, tmp_path):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        first_store = DiskChunkStore(tmp_path / "store")
        rows = flat_rows(runner.iter_chunk_rows(iter_chunks(video, spec), context,
                                                cache=first_store))
        assert first_store.stats.misses == 10 and first_store.writes == 10
        second_store = DiskChunkStore(tmp_path / "store")
        again = flat_rows(runner.iter_chunk_rows(iter_chunks(video, spec), context,
                                                 cache=second_store))
        assert second_store.stats.hits == 10 and second_store.writes == 0
        assert repr(again) == repr(rows)

    def test_footage_mutation_invalidates_disk_entries(self, tmp_path):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        store = DiskChunkStore(tmp_path / "store")
        flat_rows(runner.iter_chunk_rows(iter_chunks(video, spec), context,
                                         cache=store))
        before = store.stats.hits
        # Mutating the footage changes its content fingerprint, so every key
        # changes and no stale entry can be returned.
        video.add_objects([make_crossing_object("late", start=500.0, duration=30.0)])
        flat_rows(runner.iter_chunk_rows(iter_chunks(video, spec), context,
                                         cache=store))
        assert store.stats.hits == before
        assert store.stats.misses == 20

    def test_corrupt_disk_entry_reads_as_miss_and_is_removed(self, tmp_path):
        store = DiskChunkStore(tmp_path / "store")
        key = "ab" + "0" * 62
        store.put(key, [{"kind": "person", "dy": -1.5}])
        assert store.get(key) == [{"kind": "person", "dy": -1.5}]
        path = tmp_path / "store" / f"{key}.json"
        corruptions = [
            "{not json",                                # torn write
            json.dumps({"format": 999, "rows": []}),    # foreign version
            json.dumps([1, 2, 3]),                      # non-dict payload
            json.dumps({"format": 1, "rows": [5]}),     # non-dict rows
            json.dumps({"format": 1}),                  # missing rows
        ]
        for text in corruptions:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            assert store.get(key) is None, text
            assert not path.exists(), text

    def test_a_callable_dynamic_attribute_is_refused(self):
        # A closure hashes by qualified name, so two closures with different
        # captured state would fingerprint alike; only schedules are taken.
        walker = make_crossing_object("w0", start=20.0, duration=35.0)
        with pytest.raises(TypeError, match="'light' of 'w0'"):
            SceneObject(walker.object_id, walker.category, walker.appearances,
                        dynamic_attributes={"light": lambda t: int(t // 5.0) % 2})

        # Schedules are content-addressed: equal content, equal key.
        def make_video(period):
            return make_simple_video(duration=120.0, objects=[SceneObject(
                "w0", walker.category, walker.appearances,
                dynamic_attributes={"light": CyclicSchedule(((1, period), (0, period)))})])

        fast, slow = make_video(5.0), make_video(60.0)
        assert fast.content_fingerprint() != slow.content_fingerprint()
        assert make_video(5.0).content_fingerprint() == fast.content_fingerprint()
        a, b = _walker_video(), _walker_video()
        assert a.content_fingerprint() == b.content_fingerprint()

    def test_fallback_rows_never_reach_any_tier(self, tmp_path):
        from repro.sandbox.executables import CrashingExecutable

        video = _walker_video()
        chunks = iter_chunks(video, ChunkSpec(window=TimeInterval(0, 120),
                                              chunk_duration=60.0))
        runner = SandboxRunner(CrashingExecutable(), PERSON_SCHEMA, max_rows=5,
                               timeout_seconds=5.0)
        tiered = TieredChunkCache(disk=tmp_path / "store")
        rows = flat_rows(runner.iter_chunk_rows(chunks, _context(video),
                                                cache=tiered))
        assert [row["kind"] for row in rows] == ["", ""]
        assert len(tiered.memory) == 0 and tiered.disk.writes == 0

    def test_create_cache_specs(self, tmp_path, monkeypatch):
        assert create_cache(None) is None
        assert create_cache("off") is None
        assert create_cache("none") is None
        assert isinstance(create_cache("memory"), ChunkResultCache)
        disk = DiskChunkStore(tmp_path / "d")
        assert create_cache(disk) is disk
        tiered = create_cache(f"tiered:{tmp_path / 't'}")
        assert isinstance(tiered, TieredChunkCache)
        existing = ChunkResultCache()
        assert create_cache(existing) is existing
        with pytest.raises(ValueError):
            create_cache("disk")
        with pytest.raises(ValueError, match="needs a directory"):
            create_cache("tiered:   ")
        with pytest.raises(ValueError):
            create_cache("sqlite:/tmp/x")
        # The blank after the colon is not part of the path: the store lands
        # in the named directory, not under a directory called " ".
        monkeypatch.chdir(tmp_path)
        spaced = create_cache(f"tiered: {tmp_path / 's'}")
        spaced.put("1" * 16, [{"kind": "person"}])
        assert spaced.disk.directory == tmp_path / "s"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["d", "s", "t"]

    def test_tiered_promotes_disk_hits_into_memory(self, tmp_path):
        store = DiskChunkStore(tmp_path / "store")
        store.put("k" * 64, [{"value": 1.0}])
        tiered = TieredChunkCache(memory=ChunkResultCache(), disk=store)
        assert tiered.get("k" * 64) == [{"value": 1.0}]
        assert tiered.memory.stats.misses == 1 and tiered.disk.stats.hits == 1
        # Second lookup is served by the hot tier without touching disk.
        assert tiered.get("k" * 64) == [{"value": 1.0}]
        assert tiered.disk.stats.lookups == 1
        stats = tiered.stats_dict()
        assert stats["hits"] == 2 and stats["misses"] == 0


class TestHitClassification:
    """Cache hits are classified in the outer loop of ``iter_chunk_rows``."""

    class _ForbiddenEngine:
        """An engine that fails the test if it is ever asked to execute."""

        name = "forbidden"

        def imap_chunks(self, runner, chunks, context, *, count_hint=None):
            for _ in chunks:
                raise AssertionError("the engine was driven on an all-warm window")
                yield  # pragma: no cover - marks this as a generator

    def _warm_setup(self, num_chunks=10):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 60.0 * num_chunks),
                         chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        cache = ChunkResultCache()
        expected = list(runner.iter_chunk_rows(iter_chunks(video, spec), context,
                                               cache=cache))
        assert cache.stats.misses == num_chunks
        return video, spec, runner, context, cache, expected

    def test_all_warm_window_yields_first_row_after_one_lookup(self):
        # The ROADMAP "streaming refinement": time-to-first-row on a fully
        # warm store must scale with one chunk's lookup, not with the engine
        # window (or, before the fix, the whole hit run).
        video, spec, runner, context, cache, expected = self._warm_setup()
        state = {"pulled": 0}

        def instrumented():
            for chunk in iter_chunks(video, spec):
                state["pulled"] += 1
                yield chunk

        stream = runner.iter_chunk_rows(instrumented(), context,
                                        engine=self._ForbiddenEngine(),
                                        cache=cache)
        first = next(stream)
        assert state["pulled"] == 1  # exactly one chunk classified
        assert repr(first) == repr(expected[0])
        rest = list(stream)
        assert repr([first] + rest) == repr(expected)

    def test_only_genuine_misses_reach_the_engine(self):
        video, spec, runner, context, cache, expected = self._warm_setup()
        # Evict three entries: exactly those chunks must reach the engine.
        keys = [cache.key_for(runner, chunk, context)
                for chunk in iter_chunks(video, spec)]
        for index in (2, 3, 7):
            cache._entries.pop(keys[index])
        executed = []

        class CountingEngine(SerialEngine):
            def imap_chunks(self, engine_runner, chunks, engine_context, *,
                            count_hint=None):
                def traced():
                    for chunk in chunks:
                        executed.append(chunk.index)
                        yield chunk
                return super().imap_chunks(engine_runner, traced(), engine_context,
                                           count_hint=count_hint)

        rows = list(runner.iter_chunk_rows(iter_chunks(video, spec), context,
                                           engine=CountingEngine(), cache=cache))
        assert executed == [2, 3, 7]
        assert repr(rows) == repr(expected)

    def test_interleaved_hits_and_misses_stay_in_chunk_order(self):
        video, spec, runner, context, cache, expected = self._warm_setup()
        keys = [cache.key_for(runner, chunk, context)
                for chunk in iter_chunks(video, spec)]
        for index in (0, 4, 5, 9):  # misses at the head, middle and tail
            cache._entries.pop(keys[index])
        rows = list(runner.iter_chunk_rows(iter_chunks(video, spec), context,
                                           cache=cache))
        assert repr(rows) == repr(expected)
        assert cache.stats.misses == 10 + 4  # warmup misses + the evicted four

    @pytest.mark.parametrize("engine_spec", ["serial", "sharded:2"])
    def test_hit_runs_and_misses_interleaved_store_only_the_misses(self, engine_spec):
        # H H M H M M H: the hit runs yield from the classifying loop, the
        # misses go through the engine, and the rows come out in chunk order.
        video, spec, runner, context, cache, expected = self._warm_setup(num_chunks=7)
        keys = [cache.key_for(runner, chunk, context) for chunk in iter_chunks(video, spec)]
        misses = (2, 4, 5)
        for index in misses:
            cache._entries.pop(keys[index])
        stored = []
        real_put = cache.put

        def recording(key, rows):
            stored.append(key)
            real_put(key, rows)
        cache.put = recording
        engine = create_engine(engine_spec)
        try:
            rows = list(runner.iter_chunk_rows(iter_chunks(video, spec), context,
                                               engine=engine, cache=cache))
        finally:
            getattr(engine, "shutdown", lambda: None)()
        assert repr(rows) == repr(expected)
        assert stored == [keys[index] for index in misses]
        assert (cache.stats.hits, cache.stats.misses) == (4, 7 + 3)


class TestSystemLifecycle:
    def test_close_shuts_down_spec_string_engine(self):
        system = _build_system(_walker_video(num_walkers=2), engine="sharded:2")
        system.execute(_count_query(), charge_budget=False)
        assert system.engine._shards
        system.close()
        assert system.engine._shards == {}

    def test_close_leaves_caller_owned_engine_running(self):
        engine = ShardedEngine(2)
        try:
            system = _build_system(_walker_video(num_walkers=2), engine=engine)
            system.execute(_count_query(), charge_budget=False)
            system.close()
            assert engine._shards  # shared property, not ours to kill
        finally:
            engine.shutdown()

    def test_system_context_manager(self):
        with _build_system(_walker_video(num_walkers=2), engine="sharded:2") as system:
            system.execute(_count_query(), charge_budget=False)
        assert system.engine._shards == {}


class TestLongWindowStreaming:
    def test_long_window_resident_chunks_bounded_by_window(self):
        # A 10x-fig7-default window (10h at 60s chunks = 600 chunks): the
        # peak number of concurrently materialized chunks must track the
        # engine's in-flight window, not the total chunk count.
        duration = 10 * 3600.0
        objects = [make_crossing_object(f"w{i}", start=600.0 + 1700.0 * i,
                                        duration=35.0, x=400.0 + 10.0 * i)
                   for i in range(20)]
        video = make_simple_video(duration=duration, objects=objects)
        spec = ChunkSpec(window=TimeInterval(0, duration), chunk_duration=60.0,
                         sample_period=2.0)
        runner, context = _runner(), _context(video)
        state = {"pulled": 0, "consumed": 0, "peak": 0}

        def instrumented():
            for chunk in iter_chunks(video, spec):
                state["pulled"] += 1
                state["peak"] = max(state["peak"],
                                    state["pulled"] - state["consumed"])
                yield chunk

        with ShardedEngine(2, chunksize=1) as engine:
            for _ in engine.imap_chunks(runner, instrumented(), context):
                state["consumed"] += 1
        assert state["pulled"] == 600
        assert state["peak"] <= 4, \
            f"peak resident chunks {state['peak']} not bounded by the window"
