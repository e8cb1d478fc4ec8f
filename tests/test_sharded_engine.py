"""Tests for sharded multi-host chunk execution (`repro.core.remote`).

The contract under test: ``ShardedEngine`` partitions a chunk stream across
N executor shard subprocesses and merges ordered results back through the
``imap_chunks`` seam, byte-identical to the serial engine — including when a
shard is killed or goes silent mid-sweep (its work is reassigned, and
at-most-once result application drops the duplicates a slow-but-alive shard
may still deliver).
"""

import io
import json
import os
import pickle
import signal
import struct
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core import (
    DiskChunkStore,
    PrividSystem,
    SerialEngine,
    ShardedEngine,
    create_engine,
    engine_kinds,
    register_engine,
    shared_spec,
)
import repro.core.engine as engine_module
from repro.core.cache import ChunkResultCache, TieredChunkCache
from repro.core.engine import DispatchStats, SerialEngine as _Serial, _StreamBroadcast
from repro.core.policy import PrivacyPolicy
from repro.core.remote import (
    MAX_FRAME_BYTES,
    _handle_task,
    _ShardTask,
    _worker_env,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.errors import RemoteShardError
from repro.query.builder import QueryBuilder
from repro.sandbox.environment import ExecutionContext, SandboxRunner
from repro.sandbox.executables import EnteringObjectCounter, SlowExecutable
from repro.scene.scenarios import SCENARIO_NAMES, build_scenario
from repro.evaluation.runner import register_scenario_camera, scenario_policy_map
from repro.relational.table import ColumnSpec, DataType, Schema
from repro.utils.timebase import TimeInterval
from repro.video.chunking import ChunkSpec, count_chunks, iter_chunks
from repro.video.geometry import BoundingBox
from repro.video.masking import Mask

from tests.conftest import make_crossing_object, make_simple_video

PERSON_SCHEMA = Schema(columns=(ColumnSpec("kind", DataType.STRING, ""),
                                ColumnSpec("dy", DataType.NUMBER, 0.0)))


def _walker_video(num_walkers: int = 6, duration: float = 600.0):
    objects = [make_crossing_object(f"w{i}", start=20.0 + 80.0 * i, duration=35.0,
                                    x=450.0 + 40.0 * i)
               for i in range(num_walkers)]
    return make_simple_video(duration=duration, objects=objects)


def _runner() -> SandboxRunner:
    return SandboxRunner(EnteringObjectCounter(category="person"), PERSON_SCHEMA,
                         max_rows=5, timeout_seconds=5.0)


def _context(video) -> ExecutionContext:
    return ExecutionContext(camera=video.name, fps=video.fps)


def _rows_of(outcomes) -> list:
    """Normalize outcome rows (ColumnarRows or dict lists) for comparison."""
    return [[dict(row) for row in outcome.rows] for outcome in outcomes]


def _count_query(window: float = 600.0, chunk: float = 60.0):
    return (QueryBuilder("sharded")
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


class TestWireProtocol:
    def test_frame_roundtrip(self):
        message = {"type": "task", "seq": 7, "payload": "/tmp/p.pkl",
                   "specs": [[0, 3, 0.0, 30.0, 1, None, None, None]]}
        stream = io.BytesIO(encode_frame(message))
        assert read_frame(stream) == {"type": "task", "seq": 7,
                                      "payload": "/tmp/p.pkl",
                                      "specs": [[0, 3, 0.0, 30.0, 1, None, None, None]]}
        assert read_frame(stream) is None  # clean EOF after the frame

    def test_write_frame_reports_wire_bytes(self):
        stream = io.BytesIO()
        sent = write_frame(stream, {"type": "ping", "token": 1})
        assert sent == len(stream.getvalue()) == 4 + len(
            json.dumps({"type": "ping", "token": 1}, separators=(",", ":")))

    def test_torn_frames_read_as_eof(self):
        whole = encode_frame({"type": "pong", "token": 2})
        assert read_frame(io.BytesIO(whole[:2])) is None      # torn header
        assert read_frame(io.BytesIO(whole[:-1])) is None     # torn body
        assert read_frame(io.BytesIO(b"")) is None            # empty stream

    def test_oversized_length_prefix_rejected(self):
        corrupt = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(RemoteShardError):
            read_frame(io.BytesIO(corrupt + b"x"))

    def test_float_values_roundtrip_exactly(self):
        values = [0.1, 1e-17, 12345.6789, 2.0 ** -40, 600.0]
        frame = encode_frame({"type": "result", "rows": values})
        assert read_frame(io.BytesIO(frame))["rows"] == values


class TestEngineRegistry:
    def test_sharded_spec_strings(self):
        engine = create_engine("sharded:4")
        assert isinstance(engine, ShardedEngine) and engine.num_shards == 4
        default = create_engine("sharded")
        assert isinstance(default, ShardedEngine) and default.num_shards >= 2
        assert "sharded" in engine_kinds()

    def test_invalid_specs(self):
        with pytest.raises(ValueError, match="sharded"):
            create_engine("bogus:2")  # error message lists registered kinds
        with pytest.raises(ValueError):
            create_engine("sharded:0")
        with pytest.raises(ValueError):
            create_engine("serial:2")  # serial takes no worker count

    def test_register_engine_duplicate_and_custom(self):
        with pytest.raises(ValueError):
            register_engine("serial", lambda workers: SerialEngine())
        register_engine("test-custom", lambda workers: SerialEngine())
        try:
            assert isinstance(create_engine("test-custom"), SerialEngine)
            register_engine("test-custom", lambda workers: SerialEngine(),
                            replace=True)
        finally:
            from repro.core.engine import _ENGINE_FACTORIES
            _ENGINE_FACTORIES.pop("test-custom", None)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ShardedEngine(0)
        with pytest.raises(ValueError):
            ShardedEngine(2, chunksize=0)
        with pytest.raises(ValueError):
            ShardedEngine(2, in_flight_window=-1)
        with pytest.raises(ValueError):
            ShardedEngine(2, heartbeat_interval=0.0)


class TestShardedStreaming:
    def test_imap_matches_serial_byte_for_byte(self):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        reference = _rows_of(SerialEngine().map_chunks(
            runner, list(iter_chunks(video, spec)), context))
        with ShardedEngine(2) as engine:
            sharded = _rows_of(engine.imap_chunks(runner, iter_chunks(video, spec),
                                                  context))
        assert repr(sharded) == repr(reference)

    def test_single_chunk_runs_inline_without_shards(self):
        video = _walker_video(num_walkers=1, duration=60.0)
        single = iter_chunks(video, ChunkSpec(window=TimeInterval(0, 60),
                                              chunk_duration=60.0))
        with ShardedEngine(2) as engine:
            outcomes = list(engine.imap_chunks(_runner(), single, _context(video)))
            assert len(outcomes) == 1
            assert engine._shards == {}  # never spawned a worker
            assert list(engine.imap_chunks(_runner(), iter(()), _context(video))) == []

    def test_in_flight_window_bounds_materialized_chunks(self):
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

        with ShardedEngine(2, chunksize=2, in_flight_window=4) as engine:
            for _ in engine.imap_chunks(runner, instrumented(), context):
                state["consumed"] += 1
        assert state["pulled"] == count_chunks(video, spec) == 20
        assert state["peak"] <= 4

    def test_interleaved_streams_share_the_shard_pool(self, footage_pickles):
        # The executor round-robins PROCESS statements through one engine;
        # frames arriving while the "wrong" stream pumps must be parked for
        # their owner, not dropped.
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        reference = _rows_of(SerialEngine().map_chunks(
            runner, list(iter_chunks(video, spec)), context))
        with ShardedEngine(2) as engine:
            first = engine.imap_chunks(runner, iter_chunks(video, spec), context)
            second = engine.imap_chunks(runner, iter_chunks(video, spec), context)
            collected = {"a": [], "b": []}
            streams = [("a", first), ("b", second)]
            while streams:
                label, stream = streams.pop(0)
                outcome = next(stream, None)
                if outcome is None:
                    continue
                collected[label].append(outcome)
                streams.append((label, stream))
            stats = engine.dispatch_stats_dict()
        assert repr(_rows_of(collected["a"])) == repr(reference)
        assert repr(_rows_of(collected["b"])) == repr(reference)
        # Two open streams, one footage part and one manifest between them.
        assert footage_pickles == [video.name]
        assert (stats["broadcasts"], stats["broadcast_reuses"]) == (2, 2)

    def test_per_shard_dispatch_bytes_recorded(self):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        with ShardedEngine(2, chunksize=1) as engine:
            list(engine.imap_chunks(_runner(), iter_chunks(video, spec),
                                    _context(video)))
            stats = engine.dispatch_stats_dict()
        assert stats["dispatches"] == stats["chunks"] == 10
        # One footage part and one manifest, each published once.
        assert stats["broadcasts"] == 2 and stats["broadcast_bytes"] > 0
        # Per-dispatch messages are the payload path plus a few numbers —
        # scene size must never leak into them (same budget as the process
        # engine's spec dispatch).
        assert 0 < stats["payload_bytes_max"] < 4096
        per_shard = stats["per_shard"]
        assert len(per_shard) == 2
        assert sum(entry["chunks"] for entry in per_shard.values()) == 10
        assert all(entry["payload_bytes_total"] > 0 for entry in per_shard.values())


THIRTY_CHUNKS = ChunkSpec(window=TimeInterval(0, 900), chunk_duration=30.0)


def _task_sizes(engine) -> dict:
    """Record ``seq -> chunks`` of every task ``engine`` first dispatches."""
    sizes: dict[int, int] = {}
    dispatch = engine._dispatch

    def recording(task, **kwargs):
        sizes.setdefault(task.seq, task.num_chunks)
        dispatch(task, **kwargs)

    engine._dispatch = recording
    return sizes


def _in_seq_order(sizes: dict) -> list:
    return [sizes[seq] for seq in sorted(sizes)]


class _RecordingEngine:
    """Engine proxy keeping the hint it was given and the outcomes it yields."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.hints: list = []
        self.outcomes: list = []

    def imap_chunks(self, runner, chunks, context, *, count_hint=None):
        self.hints.append(count_hint)
        for outcome in self.engine.imap_chunks(runner, chunks, context,
                                               count_hint=count_hint):
            self.outcomes.append(outcome)
            yield outcome


class TestUnhintedRamp:
    """A stream with no count hint ramps its batch: a pure function of how
    many tasks went out, so every count below repeats exactly."""

    def test_thirty_unhinted_chunks_go_out_in_eight_doubling_tasks(self):
        video = _walker_video(duration=900.0)
        runner, context = _runner(), _context(video)
        reference = _rows_of(SerialEngine().map_chunks(
            runner, list(iter_chunks(video, THIRTY_CHUNKS)), context))
        with ShardedEngine(2) as engine:
            sizes = _task_sizes(engine)
            # The second stream ramps from one again; a hinted one on the
            # same engine is cut as it always was.
            for hint, expected in ((None, [1, 1, 2, 2, 4, 4, 8, 8]),
                                   (None, [1, 1, 2, 2, 4, 4, 8, 8]),
                                   (30, [3] * 10)):
                engine.reset_dispatch_stats()
                sizes.clear()
                rows = _rows_of(engine.imap_chunks(
                    runner, iter_chunks(video, THIRTY_CHUNKS), context,
                    count_hint=hint))
                stats = engine.dispatch_stats_dict()
                assert repr(rows) == repr(reference)
                assert _in_seq_order(sizes) == expected
                assert (stats["dispatches"], stats["chunks"]) == (len(expected), 30)
                if hint is None:
                    # The whole ramp goes out before the first result is
                    # read, so least-loaded placement simply alternates.
                    assert [shard["chunks"]
                            for shard in stats["per_shard"].values()] == [15, 15]

    def test_a_cold_store_backed_stream_is_the_same_eight_frames(self, tmp_path):
        video = _walker_video(duration=900.0)
        runner, context = _runner(), _context(video)
        reference = [list(rows) for rows in runner.iter_chunk_rows(
            iter_chunks(video, THIRTY_CHUNKS), context)]
        store = TieredChunkCache(disk=tmp_path / "store")
        with ShardedEngine(2) as engine:
            engine.share_store(store)
            sizes = _task_sizes(engine)
            recorder = _RecordingEngine(engine)
            rows = [list(rows) for rows in runner.iter_chunk_rows(
                iter_chunks(video, THIRTY_CHUNKS), context, engine=recorder,
                cache=store, count_hint=30)]
        assert repr(rows) == repr(reference)
        # The miss count behind a store is unknowable: no hint is forwarded.
        assert recorder.hints == [None]
        assert _in_seq_order(sizes) == [1, 1, 2, 2, 4, 4, 8, 8]
        assert len(recorder.outcomes) == 30
        assert all(outcome.stored and not outcome.cache_hit
                   for outcome in recorder.outcomes)
        assert store.disk.writes == 0 and len(store.disk) == 30

    def test_scattered_misses_stay_single_chunk_tasks_over_both_shards(self, tmp_path):
        video = _walker_video(duration=900.0)
        runner, context = _runner(), _context(video)
        chunks = list(iter_chunks(video, THIRTY_CHUNKS))
        warm = TieredChunkCache(disk=tmp_path / "store")
        reference = [list(rows) for rows in runner.iter_chunk_rows(
            chunks, context, cache=warm)]
        for index in (4, 15, 27):
            warm.disk._path_for(warm.key_for(runner, chunks[index], context)).unlink()
        store = TieredChunkCache(disk=tmp_path / "store")  # cold memory tier
        with ShardedEngine(2) as engine:
            engine.share_store(store)
            sizes = _task_sizes(engine)
            rows = [list(rows) for rows in runner.iter_chunk_rows(
                iter(chunks), context, engine=engine, cache=store)]
            stats = engine.dispatch_stats_dict()
        assert repr(rows) == repr(reference)
        assert _in_seq_order(sizes) == [1, 1, 1]
        assert sorted(shard["dispatches"] for shard in stats["per_shard"].values()) \
            == [1, 2]
        assert len(store.disk) == 30

    def test_an_explicit_chunksize_is_never_ramped(self):
        video = _walker_video(duration=900.0)
        with ShardedEngine(2, chunksize=1) as engine:
            sizes = _task_sizes(engine)
            outcomes = list(engine.imap_chunks(
                _runner(), iter_chunks(video, THIRTY_CHUNKS), _context(video)))
            assert len(outcomes) == 30
            assert _in_seq_order(sizes) == [1] * 30
            assert engine.dispatch_stats.dispatches == 30

    @pytest.mark.parametrize("window, bound, expected", [
        (4, 4, [1] * 60),                                   # 2 x shards tasks of one
        (16, 16, [1, 1, 2, 2] + [4] * 13 + [2]),            # ... of four
        (None, 32, [1, 1, 2, 2, 4, 4, 8, 8, 8, 8, 8, 6]),   # what an 8-batch holds
    ])
    def test_a_ramp_never_exceeds_the_window(self, window, bound, expected):
        video = _walker_video(duration=900.0)
        spec = ChunkSpec(window=TimeInterval(0, 900), chunk_duration=15.0)
        runner, context = _runner(), _context(video)
        state = {"pulled": 0, "consumed": 0, "peak": 0}

        def instrumented():
            for chunk in iter_chunks(video, spec):
                state["pulled"] += 1
                state["peak"] = max(state["peak"],
                                    state["pulled"] - state["consumed"])
                yield chunk

        with ShardedEngine(2, in_flight_window=window) as engine:
            sizes = _task_sizes(engine)
            for _ in engine.imap_chunks(runner, instrumented(), context):
                state["consumed"] += 1
        assert state["pulled"] == 60
        assert state["peak"] <= bound
        assert _in_seq_order(sizes) == expected

    def test_shard_crashed_mid_ramp_yields_the_serial_bytes(self):
        from repro.core.faults import FaultKind, FaultPlan, FaultRule

        video = _walker_video(duration=900.0)
        runner, context = _runner(), _context(video)
        reference = _rows_of(SerialEngine().map_chunks(
            runner, list(iter_chunks(video, THIRTY_CHUNKS)), context))
        plan = FaultPlan(rules=(FaultRule(site="transport.*.task",
                                          kind=FaultKind.CRASH, after_seq=3),),
                         seed=3, name="crash-mid-ramp")
        injector = plan.injector()
        with ShardedEngine(2, fault_injector=injector,
                           heartbeat_interval=0.2) as engine:
            sizes = _task_sizes(engine)
            rows = _rows_of(engine.imap_chunks(
                runner, iter_chunks(video, THIRTY_CHUNKS), context))
            redispatched = engine.dispatch_stats.chunks - 30
        assert repr(rows) == repr(reference)
        assert [(event.kind, event.seq) for event in injector.fired] \
            == [(FaultKind.CRASH, 3)]
        # The ramp is a function of dispatch order: a death changes who runs
        # a task, never how the stream was cut.
        assert _in_seq_order(sizes) == [1, 1, 2, 2, 4, 4, 8, 8]
        assert redispatched > 0


#: Both multi-process engines publish through the same ``_BroadcastPublisher``.
MULTIPROCESS_SPECS = ("sharded:2", "process:2")

TEN_CHUNKS = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)


def _serial_rows(runner, chunks, context) -> list:
    return _rows_of(SerialEngine().imap_chunks(runner, chunks, context))


def _published(engine, video=None) -> list[str]:
    """Where ``engine``'s publications (or only ``video``'s parts) live on disk."""
    return [entry.ref.replace("shm:", "/dev/shm/")
            for entry in engine._publisher._entries.values()
            if video is None or entry.keep is video]


def _published_bytes(engine) -> int:
    return sum(entry.size for entry in engine._publisher._entries.values())


class TestBroadcastLifetime:
    """Footage is published once per state for the engine's lifetime; a
    stream's other constants ride in a small manifest deduplicated by digest."""

    @pytest.mark.parametrize("spec", MULTIPROCESS_SPECS)
    def test_identical_queries_publish_once(self, spec, footage_pickles):
        video = _walker_video()
        query = _count_query()
        reference = _build_system(video).execute(query, charge_budget=False)
        published = []
        with _build_system(video, engine=spec) as system:
            for _ in range(10):
                result = system.execute(query, charge_budget=False)
                assert result.raw_series_unsafe() == reference.raw_series_unsafe()
                published.append(system.engine_stats()["dispatch"]["broadcast_bytes"])
            stats = system.engine_stats()["dispatch"]
            carriers = _published(system.engine)
            assert len(carriers) == 2 and all(map(os.path.exists, carriers))
        assert footage_pickles == [video.name]
        assert published[0] > 0 and published == published[:1] * 10
        assert (stats["broadcasts"], stats["broadcast_reuses"]) == (2, 2 * 9)
        if spec.startswith("sharded"):
            # The count guard: each shard decoded once, not once per query —
            # and after that loading costs a dict lookup.
            assert stats["stages"]["loads"] == len(stats["per_shard"]) == 2
            assert stats["stages"]["load_s"] < 0.5
        # shutdown() (via close()) unlinked both.
        assert not any(map(os.path.exists, carriers))

    @pytest.mark.parametrize("spec", MULTIPROCESS_SPECS)
    def test_new_stream_constants_cost_one_small_manifest(self, spec, footage_pickles):
        video = _walker_video()
        context = _context(video)
        one_column = Schema(columns=(ColumnSpec("kind", DataType.STRING, "?"),))
        corner = Mask("corner", (BoundingBox(400.0, 0.0, 200.0, 720.0),))
        variants = [
            (_runner(), {}),
            (SandboxRunner(EnteringObjectCounter(category="car"), PERSON_SCHEMA,
                           max_rows=5, timeout_seconds=5.0), {}),      # executable
            (SandboxRunner(EnteringObjectCounter(category="person"), one_column,
                           max_rows=5, timeout_seconds=5.0), {}),      # schema
            (_runner(), {"mask": corner}),                             # mask
        ]
        with create_engine(spec) as engine:
            for position, (runner, masked) in enumerate(variants):
                before = engine.dispatch_stats.as_dict()
                rows = _rows_of(engine.imap_chunks(
                    runner, iter_chunks(video, TEN_CHUNKS, **masked), context))
                assert repr(rows) == repr(_serial_rows(
                    runner, iter_chunks(video, TEN_CHUNKS, **masked), context))
                after = engine.dispatch_stats.as_dict()
                if position:
                    # A new manifest of a few KB; the footage part is reused.
                    assert after["broadcasts"] - before["broadcasts"] == 1
                    assert 0 < after["broadcast_bytes"] - before["broadcast_bytes"] < 4096
                    assert after["broadcast_reuses"] - before["broadcast_reuses"] == 1
        assert footage_pickles == [video.name]

    @pytest.mark.parametrize("spec", MULTIPROCESS_SPECS)
    def test_add_objects_publishes_a_new_footage_state(self, spec, footage_pickles):
        def late(index: int):
            # Crosses chunks 2-3 (specced before the mid-stream mutation
            # below) and, again, chunk 7 (specced after it).
            return [make_crossing_object(f"late-{index}-{start}", start=float(start),
                                         duration=35.0, x=300.0 + 20.0 * index)
                    for start in (130, 440)]

        def mutating(video):
            for chunk in iter_chunks(video, TEN_CHUNKS):
                if chunk.index == 5:
                    video.add_objects(late(1))
                yield chunk

        runner = _runner()
        # Footage mutates in place, so the serial reference runs on a twin.
        twin, video = _walker_video(num_walkers=3), _walker_video(num_walkers=3)
        context = _context(video)
        with create_engine(spec) as engine:
            def run(chunks):
                return _rows_of(engine.imap_chunks(runner, chunks, context))

            first = run(iter_chunks(video, TEN_CHUNKS))
            assert repr(first) == repr(_serial_rows(
                runner, iter_chunks(twin, TEN_CHUNKS), context))
            # Between two queries.
            for footage in (twin, video):
                footage.add_objects(late(0))
            second = run(iter_chunks(video, TEN_CHUNKS))
            assert repr(second) == repr(_serial_rows(
                runner, iter_chunks(twin, TEN_CHUNKS), context)) != repr(first)
            # Between two chunks of one open stream: chunks specced before
            # the mutation run on the old state, later ones on the new.
            third = run(mutating(video))
            assert repr(third) == repr(_serial_rows(runner, mutating(twin), context))
            assert repr(third) != repr(second)
            assert repr(third) != repr(run(iter_chunks(video, TEN_CHUNKS)))
        assert footage_pickles == [video.name] * 3

    def test_second_camera_is_published_without_reshipping_the_first(
            self, footage_pickles):
        video_a = _walker_video()
        video_b = make_simple_video(name="other-cam", objects=[
            make_crossing_object("b0", start=50.0, duration=35.0)])
        runner, context = _runner(), _context(video_a)

        def chunks():
            return [*iter_chunks(video_a, TEN_CHUNKS), *iter_chunks(video_b, TEN_CHUNKS)]

        with ShardedEngine(2, chunksize=3) as engine:
            rows = _rows_of(engine.imap_chunks(runner, iter(chunks()), context))
            stats = engine.dispatch_stats_dict()
        assert repr(rows) == repr(_serial_rows(runner, chunks(), context))
        # Two parts and two manifests (the second naming both parts).
        assert footage_pickles == [video_a.name, video_b.name]
        assert stats["broadcasts"] == 4

    def test_respawned_shard_loads_what_an_open_stream_pinned(self):
        video = _walker_video(num_walkers=8, duration=1200.0)
        spec = ChunkSpec(window=TimeInterval(0, 1200), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        other = SandboxRunner(EnteringObjectCounter(category="car"), PERSON_SCHEMA,
                              max_rows=5, timeout_seconds=5.0)
        with ShardedEngine(2, chunksize=1) as engine:
            stream = engine.imap_chunks(runner, iter_chunks(video, spec), context)
            outcomes = [next(stream)]
            originals = engine._live_shards()
            originals[0].process.kill()
            originals[0].process.wait()
            # Another stream's start replaces the dead shard mid-stream ...
            second = engine.imap_chunks(other, iter_chunks(video, spec), context)
            seconds = [next(second)]
            # ... and with the other original gone too, the open stream's
            # remaining tasks can only run on a worker that has never seen
            # its manifest or its footage part.
            originals[1].process.kill()
            originals[1].process.wait()
            outcomes.extend(stream)
            seconds.extend(second)
            assert {shard.id for shard in engine._live_shards()} \
                .isdisjoint(shard.id for shard in originals)
        assert repr(_rows_of(outcomes)) == repr(_serial_rows(
            runner, iter_chunks(video, spec), context))
        assert repr(_rows_of(seconds)) == repr(_serial_rows(
            other, iter_chunks(video, spec), context))

    def test_eviction_spares_pinned_refs_and_republishes_under_a_new_ref(
            self, monkeypatch, footage_pickles):
        video_a = _walker_video()
        video_b = make_simple_video(name="other-cam", objects=[
            make_crossing_object(f"b{i}", start=30.0 + 70.0 * i, duration=35.0)
            for i in range(6)])
        # Room for one footage state and its manifest, not for two.
        limit = len(pickle.dumps(video_a)) + 3072
        monkeypatch.setattr(engine_module, "_PUBLISHED_BYTES_LIMIT", limit)
        footage_pickles.clear()
        runner = _runner()
        with ShardedEngine(2) as engine:
            def open_stream(video):
                stream = engine.imap_chunks(runner, iter_chunks(video, TEN_CHUNKS),
                                            _context(video))
                return [next(stream)], stream

            rows_a, stream_a = open_stream(video_a)
            pinned_a = _published(engine)
            rows_b, stream_b = open_stream(video_b)
            # Two open streams pin more than the bound: nothing may go.
            assert _published_bytes(engine) > limit
            assert all(map(os.path.exists, _published(engine)))
            (old_part_b,) = _published(engine, video_b)
            rows_b.extend(stream_b)
            # B released: its footage goes, what A still pins stays.
            assert _published_bytes(engine) <= limit
            assert not os.path.exists(old_part_b)
            assert _published(engine, video_b) == []
            assert all(map(os.path.exists, pinned_a))
            rows_a.extend(stream_a)
            again_b, stream_b = open_stream(video_b)
            again_b.extend(stream_b)
            assert _published_bytes(engine) <= limit
            (new_part_b,) = _published(engine, video_b)
            assert new_part_b != old_part_b
        assert repr(_rows_of(rows_a)) == repr(_serial_rows(
            runner, iter_chunks(video_a, TEN_CHUNKS), _context(video_a)))
        assert repr(_rows_of(rows_b)) == repr(_rows_of(again_b)) == repr(_serial_rows(
            runner, iter_chunks(video_b, TEN_CHUNKS), _context(video_b)))
        assert footage_pickles == [video_a.name, video_b.name, video_b.name]

    def test_concurrent_streams_share_one_part(self, footage_pickles):
        video = _walker_video()
        runner, context = _runner(), _context(video)
        reference = _serial_rows(runner, iter_chunks(video, TEN_CHUNKS), context)
        results: dict[int, list] = {}
        barrier = threading.Barrier(4)

        def one_stream(index: int) -> None:
            barrier.wait(timeout=30.0)
            results[index] = _rows_of(engine.imap_chunks(
                runner, iter_chunks(video, TEN_CHUNKS), context))

        with ShardedEngine(2) as engine:
            threads = [threading.Thread(target=one_stream, args=(index,))
                       for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            stats = engine.dispatch_stats_dict()
        assert [repr(results[index]) for index in range(4)] == [repr(reference)] * 4
        assert footage_pickles == [video.name]
        assert (stats["broadcasts"], stats["broadcast_reuses"]) == (2, 2 * 3)

    def test_segment_creation_failure_downgrades_that_payload_to_a_file(
            self, monkeypatch):
        video = _walker_video()
        runner, context = _runner(), _context(video)
        created = []

        class FailingOnce(engine_module.shared_memory.SharedMemory):
            def __init__(self, name=None, create=False, size=0):
                if create:
                    created.append(name)
                    if len(created) == 1:
                        raise OSError(28, "No space left on device")
                super().__init__(name=name, create=create, size=size)

        monkeypatch.setattr(engine_module.shared_memory, "SharedMemory", FailingOnce)
        with ShardedEngine(2) as engine:
            rows = _rows_of(engine.imap_chunks(
                runner, iter_chunks(video, TEN_CHUNKS), context))
            stats = engine.dispatch_stats_dict()
            carriers = _published(engine)
            directory = engine._publisher._directory
            # The footage part fell back to the tempdir; the manifest naming
            # it still got its segment.
            assert sorted(path.startswith("/dev/shm/") for path in carriers) \
                == [False, True]
            assert all(map(os.path.exists, carriers))
        assert repr(rows) == repr(_serial_rows(
            runner, iter_chunks(video, TEN_CHUNKS), context))
        assert (stats["broadcasts"], stats["shm_segments"]) == (2, 1)
        assert not any(map(os.path.exists, carriers))
        assert not os.path.exists(directory)

    #: One sharded stream, then the process ends without ``shutdown()``.
    _UNCLOSED = """
import os, signal, sys
from repro.core import ShardedEngine
from repro.sandbox.environment import ExecutionContext, SandboxRunner
from repro.sandbox.executables import EnteringObjectCounter
from repro.relational.table import ColumnSpec, DataType, Schema
from repro.utils.timebase import TimeInterval
from repro.video.chunking import ChunkSpec, iter_chunks
from repro.video.video import SyntheticVideo

video = SyntheticVideo(name="cam", fps=2.0, width=1280.0, height=720.0, duration=240.0)
runner = SandboxRunner(EnteringObjectCounter(),
                       Schema(columns=(ColumnSpec("kind", DataType.STRING, ""),)),
                       max_rows=5, timeout_seconds=5.0)
engine = ShardedEngine(2)
chunks = iter_chunks(video, ChunkSpec(window=TimeInterval(0, 240), chunk_duration=60.0))
assert len(list(engine.imap_chunks(runner, chunks,
                                   ExecutionContext(camera="cam", fps=2.0)))) == 4
for entry in engine._publisher._entries.values():
    print("/dev/shm/" + entry.ref[len("shm:"):], flush=True)
if sys.argv[1] == "sigkill":
    os.kill(os.getpid(), signal.SIGKILL)
"""

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm to inspect")
    @pytest.mark.parametrize("ending", ["exit", "sigkill"])
    def test_unclosed_coordinator_leaves_no_segments(self, ending):
        done = subprocess.run([sys.executable, "-c", self._UNCLOSED, ending],
                              capture_output=True, text=True, timeout=120,
                              env=_worker_env())
        segments = done.stdout.split()
        assert len(segments) == 2 and all(
            os.path.basename(path).startswith("privid-bc-") for path in segments)
        deadline = time.monotonic() + 5.0
        while any(map(os.path.exists, segments)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(os.path.exists, segments))
        if ending == "exit":
            # The finalizer unlinked them: nothing was left for the
            # resource tracker to find (a SIGKILL leaves it exactly that job).
            assert done.returncode == 0, done.stderr
            assert "resource_tracker" not in done.stderr
        else:
            assert done.returncode == -signal.SIGKILL


class TestWorkerPayloadCache:
    def test_connection_threads_share_the_cache_without_tearing_it(
            self, tmp_path, monkeypatch):
        # A TCP daemon runs one executor thread per connection over one
        # module-level LRU: more refs than it holds, so every thread evicts
        # under the others' reads.
        import random
        from collections import OrderedDict

        limit = engine_module._PAYLOAD_CACHE_LIMIT
        cache: OrderedDict = OrderedDict()
        monkeypatch.setattr(engine_module, "_PAYLOAD_CACHE", cache)
        refs = {}
        for index in range(limit + 8):
            path = tmp_path / f"payload-{index}.pkl"
            path.write_bytes(pickle.dumps({"index": index, "pad": "x" * 64}))
            refs[str(path)] = {"index": index, "pad": "x" * 64}
        failures: list = []
        oversize: list = []

        def load(seed: int) -> None:
            order = list(refs)
            rng = random.Random(seed)
            try:
                for _ in range(200):
                    rng.shuffle(order)
                    for ref in order:
                        if engine_module._load_payload(ref) != refs[ref]:
                            failures.append(("wrong payload", ref))
                        with engine_module._PAYLOAD_CACHE_LOCK:
                            if len(cache) > limit:
                                oversize.append(len(cache))
            except Exception as exc:  # a torn LRU raises KeyError here
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=load, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == [] and oversize == []
        assert 0 < len(cache) <= limit

    def test_fetch_reports_whether_it_decoded(self, tmp_path, monkeypatch):
        from collections import OrderedDict

        monkeypatch.setattr(engine_module, "_PAYLOAD_CACHE", OrderedDict())
        path = tmp_path / "payload.pkl"
        path.write_bytes(pickle.dumps({"objects": []}))
        assert engine_module._fetch_payload(str(path)) == ({"objects": []}, True)
        assert engine_module._fetch_payload(str(path)) == ({"objects": []}, False)


class TestShardStageTimes:
    def test_stage_times_fit_inside_the_task_and_a_repeat_loads_nothing(self, tmp_path):
        video = _walker_video()
        runner, context = _runner(), _context(video)
        store = DiskChunkStore(tmp_path / "store")
        publisher = engine_module._BroadcastPublisher()
        try:
            broadcast = _StreamBroadcast(publisher, runner, context, DispatchStats())
            specs = [list(broadcast.chunk_spec(chunk))
                     for chunk in iter_chunks(video, TEN_CHUNKS)]
            message = {"type": "task", "seq": 1, "specs": specs,
                       "payload": broadcast.payload_ref()}
            frames = []
            for _ in range(2):
                started = time.perf_counter()
                frames.append(_handle_task(message, store))
                wall = time.perf_counter() - started
                stages = frames[-1]["stages"]
                assert set(stages) == {"loads", "load_s", "store_get_s",
                                       "execute_s", "store_put_s"}
                assert 0.0 <= sum(value for name, value in stages.items()
                                  if name != "loads") <= wall
        finally:
            publisher.close()
        cold, warm = (frame["stages"] for frame in frames)
        assert cold["loads"] == 1 and cold["execute_s"] > 0 and cold["store_put_s"] > 0
        # The repeat: payload already decoded, every chunk served by the store.
        assert warm["loads"] == 0 and warm["load_s"] < cold["load_s"]
        assert warm["execute_s"] == warm["store_put_s"] == 0.0
        assert [outcome["rows"] for outcome in frames[0]["outcomes"]] \
            == [outcome["rows"] for outcome in frames[1]["outcomes"]]

    def test_coordinator_sums_stage_times_per_shard(self):
        video = _walker_video()
        with ShardedEngine(2, chunksize=1) as engine:
            started = time.perf_counter()
            list(engine.imap_chunks(_runner(), iter_chunks(video, TEN_CHUNKS),
                                    _context(video)))
            wall = time.perf_counter() - started
            stats = engine.dispatch_stats_dict()
        names = ("load_s", "store_get_s", "execute_s", "store_put_s")
        per_shard = list(stats["per_shard"].values())
        for name in (*names, "loads"):
            assert stats["stages"][name] == pytest.approx(
                sum(shard["stages"][name] for shard in per_shard))
        # Two shards, each busy for no longer than the stream took.
        assert 0 < sum(stats["stages"][name] for name in names) <= 2 * wall
        assert stats["stages"]["execute_s"] > 0


class TestShardedSystemParity:
    def test_query_byte_identical_to_serial(self):
        video = _walker_video()
        query = _count_query()
        reference = _build_system(video).execute(query)
        with _build_system(video, engine="sharded:4") as system:
            result = system.execute(query)
            stats = system.engine_stats()
        assert result.raw_series_unsafe() == reference.raw_series_unsafe()
        assert result.series() == reference.series()
        assert stats["engine"] == "sharded"
        assert stats["dispatch"]["chunks"] == 10

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_scenario_scene_byte_identical_to_serial(self, name, sharded_pool):
        """Every scenario scene: sharded releases == serial releases, exactly."""
        if name in ("campus", "highway", "urban"):
            scenario = build_scenario(name, scale=0.2, duration_hours=0.1)
        else:
            scenario = build_scenario(name, duration_hours=0.1)
        policy_map = scenario_policy_map(scenario, k_segments=1)
        window = min(scenario.video.duration, 360.0)
        query = (QueryBuilder(f"sharded-{name}")
                 .split(scenario.name, begin=0, end=window,
                        chunk_duration=30.0, mask="owner", into="chunks")
                 .process("chunks", executable="count_entering_people.py",
                          max_rows=5,
                          schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0)],
                          into="t")
                 .select_count(table="t", bucket_seconds=120.0, epsilon=1.0)
                 .build())
        results = {}
        for label, engine in (("serial", None), ("sharded", sharded_pool)):
            system = PrividSystem(seed=11, engine=engine)
            register_scenario_camera(system, scenario, policy_map=policy_map,
                                     epsilon_budget=100.0, sample_period=1.0)
            results[label] = system.execute(query, charge_budget=False)
        assert repr(results["sharded"].raw_series_unsafe()) \
            == repr(results["serial"].raw_series_unsafe())
        assert repr(results["sharded"].series()) == repr(results["serial"].series())


@pytest.fixture(scope="module")
def sharded_pool():
    """One persistent sharded engine reused across the scenario sweep."""
    with ShardedEngine(2) as engine:
        yield engine


class TestFaultInjection:
    def test_shard_killed_mid_sweep_is_byte_identical(self):
        video = _walker_video(num_walkers=8, duration=1200.0)
        spec = ChunkSpec(window=TimeInterval(0, 1200), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        reference = _rows_of(SerialEngine().map_chunks(
            runner, list(iter_chunks(video, spec)), context))
        with ShardedEngine(3, chunksize=1) as engine:
            outcomes = []
            stream = engine.imap_chunks(runner, iter_chunks(video, spec), context)
            outcomes.append(next(stream))
            # Kill a shard that still holds assigned work if one exists
            # (otherwise any live shard): the stream must finish regardless.
            victim = next((shard for shard in engine._live_shards() if shard.pending),
                          engine._live_shards()[0])
            victim.process.kill()
            outcomes.extend(stream)
        assert repr(_rows_of(outcomes)) == repr(reference)
        assert len(outcomes) == 20

    def test_unresponsive_shard_times_out_and_work_is_reassigned(self):
        video = _walker_video(num_walkers=8, duration=1200.0)
        spec = ChunkSpec(window=TimeInterval(0, 1200), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        reference = _rows_of(SerialEngine().map_chunks(
            runner, list(iter_chunks(video, spec)), context))
        # The victim is frozen before it ever speaks, so it is judged
        # against startup_grace; the survivor is protected by the same
        # grace while it imports, then by answering pings.
        engine = ShardedEngine(2, chunksize=2, heartbeat_interval=0.05,
                               heartbeat_timeout=0.3, startup_grace=2.0)
        stopped = {}

        def instrumented():
            for chunk in iter_chunks(video, spec):
                if chunk.index == 3 and not stopped:
                    # By the fourth pull at least one task is dispatched but
                    # the worker (still starting up) cannot have answered;
                    # SIGSTOP freezes it mid-assignment.
                    victim = next(shard for shard in engine._live_shards()
                                  if shard.pending)
                    os.kill(victim.process.pid, signal.SIGSTOP)
                    stopped["id"] = victim.id
                yield chunk

        with engine:
            outcomes = list(engine.imap_chunks(runner, instrumented(), context))
            assert repr(_rows_of(outcomes)) == repr(reference)
            # The frozen shard was declared dead and its chunks redispatched.
            assert stopped["id"] not in {shard.id for shard in engine._live_shards()}
            assert engine.dispatch_stats.chunks > 20

    def test_busy_shard_answers_heartbeats_and_is_not_killed(self):
        # A task that outlives heartbeat_timeout must read as *busy*, not
        # *dead*: the worker answers pings from its read loop while the
        # task executes on a separate thread, so nothing is killed and
        # nothing is redispatched.
        video = _walker_video(num_walkers=2, duration=360.0)
        spec = ChunkSpec(window=TimeInterval(0, 360), chunk_duration=60.0)
        schema = Schema(columns=(ColumnSpec("value", DataType.NUMBER, 0.0),))
        runner = SandboxRunner(SlowExecutable(simulated_runtime=0.0, real_sleep=0.4),
                               schema, max_rows=5, timeout_seconds=30.0)
        with ShardedEngine(2, chunksize=1, heartbeat_interval=0.05,
                           heartbeat_timeout=0.2) as engine:
            outcomes = list(engine.imap_chunks(runner, iter_chunks(video, spec),
                                               _context(video)))
            assert len(outcomes) == 6
            assert not any(outcome.fallback for outcome in outcomes)
            assert len(engine._live_shards()) == 2   # nobody was declared dead
            assert engine.dispatch_stats.chunks == 6  # nothing was redispatched

    def test_dead_shards_are_replaced_on_the_next_stream(self):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        with ShardedEngine(2) as engine:
            first = _rows_of(engine.imap_chunks(runner, iter_chunks(video, spec),
                                                context))
            for shard in engine._live_shards():
                shard.process.kill()
            for shard in engine._shards.values():
                shard.process.wait()
            second = _rows_of(engine.imap_chunks(runner, iter_chunks(video, spec),
                                                 context))
            assert repr(second) == repr(first)
            assert len(engine._live_shards()) == 2

    def test_all_shards_lost_raises_remote_shard_error(self):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        engine = ShardedEngine(2, max_task_retries=1)

        def killing():
            for chunk in iter_chunks(video, spec):
                for shard in engine._live_shards():
                    shard.process.kill()
                yield chunk

        with engine, pytest.raises(RemoteShardError):
            list(engine.imap_chunks(runner, killing(), context))

    def test_result_application_is_at_most_once(self):
        # Pure coordinator-state test: the first result frame for a seq is
        # applied, any later frame for the same seq (a reassigned task whose
        # original shard was merely slow) is dropped.
        engine = ShardedEngine(2)
        shard = SimpleNamespace(id=0, alive=True, pending={}, last_seen=0.0,
                                stats=DispatchStats(), process=None)
        engine._shards[0] = shard
        task = _ShardTask(seq=9, specs=[[0, 0, 0.0, 30.0, 1, None, None, None]],
                          payload_ref="unused", num_chunks=1)
        engine._tasks[9] = task
        shard.pending[9] = task
        first = {"type": "result", "seq": 9,
                 "outcomes": [{"rows": [{"kind": "a", "dy": 1.0}], "fallback": False,
                               "cached": False}]}
        duplicate = {"type": "result", "seq": 9,
                     "outcomes": [{"rows": [{"kind": "b", "dy": 2.0}],
                                   "fallback": False, "cached": False}]}
        engine._handle_message(0, first)
        engine._handle_message(0, duplicate)
        assert [dict(row) for row in engine._ready[9][0].rows] \
            == [{"kind": "a", "dy": 1.0}]
        assert engine._tasks == {} and shard.pending == {}
        # A result for a seq nobody is waiting on is ignored outright.
        engine._handle_message(0, {"type": "result", "seq": 99, "outcomes": []})
        assert 99 not in engine._ready


class TestSharedStore:
    def test_shared_spec_reduces_stores_to_their_disk_portion(self, tmp_path):
        disk = DiskChunkStore(tmp_path / "d")
        tiered = TieredChunkCache(disk=tmp_path / "t")
        assert shared_spec(disk) == f"disk:{tmp_path / 'd'}"
        assert shared_spec(tiered) == f"tiered:{tmp_path / 't'}"
        assert shared_spec(ChunkResultCache()) is None
        assert shared_spec(None) is None

    def test_shards_write_through_to_the_shared_store(self, tmp_path):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        store_dir = tmp_path / "shared"
        with ShardedEngine(2) as engine:
            engine.share_store(DiskChunkStore(store_dir))
            first = _rows_of(engine.imap_chunks(runner, iter_chunks(video, spec),
                                                context))
            # Every successful chunk result landed in the shared directory.
            assert len(DiskChunkStore(store_dir)) == 10
            # A second sweep is served from the store, byte-identically.
            second = _rows_of(engine.imap_chunks(runner, iter_chunks(video, spec),
                                                 context))
        assert repr(second) == repr(first)

    def test_system_wires_its_store_into_a_sharded_engine(self, tmp_path):
        video = _walker_video()
        store_dir = tmp_path / "store"
        reference = _build_system(video, cache="memory").execute(_count_query())
        with _build_system(video, engine="sharded:2",
                           cache=f"tiered:{store_dir}") as system:
            assert system.engine._store_spec == f"tiered:{store_dir}"
            result = system.execute(_count_query())
            stats = system.cache_stats()
        assert result.raw_series_unsafe() == reference.raw_series_unsafe()
        assert stats["misses"] == 10  # coordinator-side lookups all missed cold
        # The shards wrote every entry through; the coordinator only
        # promoted the rows into its memory tier (no second disk write),
        # yet the shared directory holds the full result set.
        assert stats["disk"]["writes"] == 0
        assert stats["memory"]["entries"] == 10
        assert len(DiskChunkStore(store_dir)) == 10

    def test_caller_owned_engine_store_is_not_repointed(self, tmp_path):
        # An engine instance may be shared between systems with different
        # stores; only spec-string-built engines are auto-wired (the same
        # ownership rule close() follows), so a system must never divert a
        # caller-owned engine's write-through to its own directory.
        with ShardedEngine(2) as engine:
            engine.share_store(f"disk:{tmp_path / 'mine'}")
            system = _build_system(_walker_video(num_walkers=2), engine=engine,
                                   cache=f"tiered:{tmp_path / 'other'}")
            assert engine._store_spec == f"disk:{tmp_path / 'mine'}"
            system.close()

    def test_memory_only_cache_is_not_shared(self):
        with ShardedEngine(2) as engine:
            engine.share_store(ChunkResultCache())
            assert engine._store_spec is None


class TestResilienceControls:
    def test_health_reflects_pool_lifecycle(self):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        with ShardedEngine(2) as engine:
            health = engine.health()
            # A lazy pool that has never spawned is empty but NOT degraded.
            assert health == {"engine": "sharded", "num_shards": 2,
                              "live_shards": 0, "pending_tasks": 0,
                              "started": False, "degraded": False,
                              "breakers": {}}
            list(engine.imap_chunks(runner, iter_chunks(video, spec), context))
            health = engine.health()
            assert health["started"] and health["live_shards"] == 2
            assert not health["degraded"]
            for shard in engine._live_shards():
                shard.process.kill()
            for shard in engine._shards.values():
                shard.process.wait()
            assert engine.health()["degraded"]

    def test_refusing_endpoints_trip_the_breaker(self):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        calls = []

        def refusing():
            calls.append(1)
            raise ConnectionRefusedError("daemon down")

        engine = ShardedEngine(transports=[refusing], breaker_threshold=2,
                               breaker_reset=60.0)
        with engine:
            for _ in range(2):  # two real dial failures reach the threshold
                with pytest.warns(RuntimeWarning, match="unreachable"), \
                        pytest.raises(RemoteShardError):
                    list(engine.imap_chunks(runner, iter_chunks(video, spec),
                                            context))
            assert len(calls) == 2
            # The breaker is now open: the endpoint is skipped WITHOUT
            # dialing until the reset timeout passes.
            with pytest.warns(RuntimeWarning, match="circuit breaker open"), \
                    pytest.raises(RemoteShardError):
                list(engine.imap_chunks(runner, iter_chunks(video, spec),
                                        context))
            assert len(calls) == 2  # no third dial absorbed
            health = engine.health()
            assert health["degraded"]
            assert health["breakers"]["slot0"]["state"] == "open"
            assert health["breakers"]["slot0"]["opens"] == 1

    def test_heartbeat_timing_is_env_configurable(self, monkeypatch):
        monkeypatch.setenv("PRIVID_HEARTBEAT_TIMEOUT", "3.5")
        monkeypatch.setenv("PRIVID_STARTUP_GRACE", "7.0")
        engine = ShardedEngine(2)
        assert engine.heartbeat_timeout == 3.5
        assert engine.startup_grace == 7.0
        # An explicit argument always beats the environment.
        assert ShardedEngine(2, heartbeat_timeout=1.25).heartbeat_timeout == 1.25
        monkeypatch.setenv("PRIVID_HEARTBEAT_TIMEOUT", "not-a-number")
        with pytest.warns(RuntimeWarning, match="PRIVID_HEARTBEAT_TIMEOUT"):
            assert ShardedEngine(2).heartbeat_timeout == 10.0
        engine.shutdown()

    def test_dropped_task_frame_recovers_via_task_timeout(self):
        # A DROP_FRAME on the task path is the pure stall: the shard is
        # healthy and answers pings, but the seq would park forever.  Only
        # the task_timeout sweep redispatches it — and at-most-once result
        # application keeps the recovery byte-identical.
        from repro.core.faults import FaultKind, FaultPlan, FaultRule

        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        reference = _rows_of(SerialEngine().map_chunks(
            runner, list(iter_chunks(video, spec)), context))
        plan = FaultPlan(rules=(FaultRule(site="transport.*.task",
                                          kind=FaultKind.DROP_FRAME, at=(1,)),),
                         seed=3, name="stall")
        injector = plan.injector()
        with ShardedEngine(2, chunksize=1, fault_injector=injector,
                           task_timeout=1.0, heartbeat_interval=0.2) as engine:
            rows = _rows_of(engine.imap_chunks(runner, iter_chunks(video, spec),
                                               context))
        assert repr(rows) == repr(reference)
        assert any(event.kind is FaultKind.DROP_FRAME for event in injector.fired)

    def test_crash_at_seq_replays_deterministically(self):
        # Same plan + same seed: the crash fires at the same protocol seq on
        # every run, and the stream stays byte-identical to serial.
        from repro.core.faults import FaultKind, FaultPlan, FaultRule

        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        reference = _rows_of(SerialEngine().map_chunks(
            runner, list(iter_chunks(video, spec)), context))
        plan = FaultPlan(rules=(FaultRule(site="transport.*.task",
                                          kind=FaultKind.CRASH, after_seq=5),),
                         seed=3, name="crash-at-5")
        fired = []
        for _ in range(2):
            injector = plan.injector()
            with ShardedEngine(2, chunksize=1, fault_injector=injector,
                               heartbeat_interval=0.2) as engine:
                rows = _rows_of(engine.imap_chunks(
                    runner, iter_chunks(video, spec), context))
            assert repr(rows) == repr(reference)
            fired.append([(event.kind, event.seq) for event in injector.fired])
        assert fired[0] == fired[1] == [(FaultKind.CRASH, 5)]
