"""Tests for sharded chunk execution (`repro.core.remote`).

The contract under test: ``ShardedEngine`` partitions a chunk stream across
N local executor shards (each a subprocess at the far end of a socketpair)
and merges ordered results back through the ``imap_chunks`` seam,
byte-identical to the serial engine — including when a shard is killed,
exits at start-up or goes silent mid-sweep (its work is reassigned, and
at-most-once result application drops the duplicates a slow-but-alive shard
may still deliver).  No shard is ever dialed: a ``HOST:PORT`` spec and the
old ``--listen`` worker mode are both refused.

Where a chunk runs never changes its result, so what the plane adds to
serial is scheduling, and the scheduling rules are tested where they live:
``_Dispatch`` and ``_next_batch``, driven with explicit ``now`` values and no
process, socket or clock.  The shell's own rules (slot refills, the one
wait, pushes, health) run on shards that live in this process, a thread per
worker at the far end of a socketpair (``threaded``).  Spawned workers are
kept for what only a process shows: byte parity, a kill, a frozen shard,
payload pushes, release of the socket and process, and the command line.
"""

import base64
import contextlib
import functools
import io
import json
import os
import pickle
import re
import select
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    DiskChunkStore,
    PrividSystem,
    SerialEngine,
    ShardedEngine,
    create_engine,
)
import repro.core.engine as engine_module
from repro.core.cache import TieredChunkCache
from repro.core.engine import DispatchStats, _StreamBroadcast
from repro.core.policy import PrivacyPolicy
from repro.core import remote
from repro.core.remote import (
    MAX_FRAME_BYTES,
    SocketTransport,
    _Dispatch,
    _handle_task,
    _worker_env,
    encode_frame,
    read_frame,
    serve,
    write_frame,
)
from repro.errors import RemoteShardError
from repro.query.builder import QueryBuilder
from repro.sandbox.environment import ExecutionContext, SandboxRunner
from repro.sandbox.executables import (
    ConstantExecutable,
    EnteringObjectCounter,
    SlowExecutable,
)
from repro.scene.scenarios import SCENARIO_NAMES, build_scenario
from repro.evaluation.runner import register_scenario_camera, scenario_policy_map
from repro.relational.table import ColumnSpec, DataType, Schema
from repro.utils.timebase import TimeInterval
from repro.video.chunking import ChunkSpec, iter_chunks
from repro.video.geometry import BoundingBox
from repro.video.masking import Mask

from tests.conftest import make_crossing_object, make_simple_video
from tests.printing_executable import PrintingExecutable

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
    """Each outcome's rows as plain dicts, for comparison."""
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

    def test_a_worker_ignores_a_store_frame(self, tmp_path):
        # Shards never open a store: a ``store`` frame (an older
        # coordinator's, or a stranger's) is an unknown type, so it creates
        # no directory and draws no reply.
        target = tmp_path / "made-by-a-peer"
        frames = b"".join(encode_frame(message) for message in (
            {"type": "store", "spec": f"tiered:{target}"},
            {"type": "ping", "token": 3}, {"type": "shutdown"}))
        replies = io.BytesIO()
        serve(io.BytesIO(frames), replies)
        replies.seek(0)
        assert read_frame(replies) == {"type": "pong", "token": 3}
        assert read_frame(replies) is None
        assert not target.exists()


    @pytest.mark.parametrize("stranger", [
        {"type": "listen", "address": "0.0.0.0:9101"},
        {"type": "connect", "host": "127.0.0.1", "port": 9101},
        {"type": 5},
        {"token": 1},
    ], ids=["listen", "connect", "numeric_type", "no_type"])
    def test_a_worker_ignores_a_frame_it_does_not_know(self, stranger):
        # Anything that is not ping/task/shutdown draws no reply and does
        # not end the loop: the next ping is still answered.
        frames = b"".join(encode_frame(message) for message in (
            stranger, {"type": "ping", "token": 8}, {"type": "shutdown"}))
        replies = io.BytesIO()
        serve(io.BytesIO(frames), replies)
        replies.seek(0)
        assert read_frame(replies) == {"type": "pong", "token": 8}
        assert read_frame(replies) is None

    def test_a_worker_answers_pings_while_a_task_executes(self, in_process_shard):
        # A task that outlives heartbeat_timeout must read as *busy*, not
        # *dead*: the read loop answers a ping queued behind a task that is
        # still executing on the worker's executor thread.
        video = _walker_video(num_walkers=1, duration=60.0)
        schema = Schema(columns=(ColumnSpec("value", DataType.NUMBER, 0.0),))
        runner = SandboxRunner(SlowExecutable(simulated_runtime=0.0, real_sleep=0.05),
                               schema, max_rows=5, timeout_seconds=30.0)
        publisher = engine_module._BroadcastPublisher()
        try:
            broadcast = _StreamBroadcast(publisher, runner, _context(video), DispatchStats())
            specs = [list(broadcast.chunk_spec(chunk)) for chunk in iter_chunks(
                video, ChunkSpec(window=TimeInterval(0, 60), chunk_duration=60.0))]
            ref = broadcast.payload_ref()
            frames = [{"type": "payload", "ref": need, "drop": [],
                       "data": base64.b64encode(publisher.data(need)).decode("ascii")}
                      for need in publisher.needs(ref)]
        finally:
            publisher.close()
        frames += [{"type": "task", "seq": 0, "payload": ref, "specs": specs},
                   {"type": "ping", "token": 4}, {"type": "shutdown"}]
        replies = io.BytesIO()
        serve(io.BytesIO(b"".join(map(encode_frame, frames))), replies)
        replies.seek(0)
        assert read_frame(replies) == {"type": "pong", "token": 4}
        result = read_frame(replies)
        assert (result["type"], result["seq"]) == ("result", 0)
        assert [outcome["fallback"] for outcome in result["outcomes"]] == [False]
        assert read_frame(replies) is None


def _scripted_transport(script) -> tuple[SocketTransport, threading.Thread]:
    """A transport over a socketpair whose far end plays ``script`` —
    ``("send", bytes)`` and ``("sleep", seconds)`` steps — then closes."""
    ours, theirs = socket.socketpair()

    def play() -> None:
        with theirs:
            for action, payload in script:
                if action == "send":
                    theirs.sendall(payload)
                else:
                    time.sleep(payload)

    peer = threading.Thread(target=play, daemon=True)
    peer.start()
    return SocketTransport(ours, "scripted"), peer


def _next_read(transport, timeout: float = 5.0):
    """The transport's next non-empty read (a list of frames, or None at
    EOF), waiting on its descriptor as the coordinator's wait does."""
    deadline = time.monotonic() + timeout
    while True:
        frames = transport.read()
        if frames is None or frames:
            return frames
        remaining = deadline - time.monotonic()
        assert remaining > 0, "no frame arrived"
        select.select([transport.fileno()], [], [], remaining)


class TestSocketFraming:
    def test_frame_torn_across_socket_reads_is_reassembled(self):
        # One frame dribbled over three sends with pauses: the transport
        # buffers the pieces, returning no frame until the length prefix's
        # promise is fulfilled, then one whole message.
        frame = encode_frame({"type": "pong", "token": 42})
        transport, peer = _scripted_transport([
            ("send", frame[:2]), ("sleep", 0.05),
            ("send", frame[2:7]), ("sleep", 0.05),
            ("send", frame[7:]),
        ])
        try:
            assert _next_read(transport) == [{"type": "pong", "token": 42}]
        finally:
            transport.kill()
            peer.join(timeout=5.0)

    def test_torn_frame_at_disconnect_reads_as_eof(self):
        # The peer dies mid-frame: a torn header or torn body must read as
        # clean EOF (None) — the coordinator's death signal — never as a
        # partial message or an exception.
        frame = encode_frame({"type": "pong", "token": 7})
        transport, peer = _scripted_transport([("send", frame[: len(frame) - 3])])
        try:
            peer.join(timeout=5.0)  # the peer sent its fragment and closed
            assert not peer.is_alive()
            assert _next_read(transport) is None
        finally:
            transport.kill()

    def test_mid_stream_disconnect_reads_as_eof(self):
        frame = encode_frame({"type": "pong", "token": 1})
        transport, peer = _scripted_transport([("send", frame)])
        try:
            assert _next_read(transport) == [{"type": "pong", "token": 1}]
            peer.join(timeout=5.0)
            assert not peer.is_alive()
            assert _next_read(transport) is None  # clean EOF after the peer left
        finally:
            transport.kill()


    def test_frames_sent_in_one_write_come_back_from_one_read(self):
        # Every complete frame already received is returned at once: a
        # reader handing back one frame per readiness would strand the rest
        # in its buffer, where select never reports them.
        frames = [encode_frame({"type": "pong", "token": token}) for token in range(3)]
        transport, peer = _scripted_transport([("send", b"".join(frames))])
        try:
            peer.join(timeout=5.0)
            assert transport.read() == [{"type": "pong", "token": token}
                                        for token in range(3)]
            assert transport.read() is None
        finally:
            transport.kill()
            peer.join(timeout=5.0)

    def test_text_and_nesting_survive_the_socket(self):
        message = {"type": "result", "seq": 3, "camera": "Praça-東京 ✓",
                   "outcomes": [{"rows": [{"kind": "person", "dy": -0.5}],
                                 "fallback": False}, {"rows": [], "fallback": True}]}
        transport, peer = _scripted_transport([("send", encode_frame(message))])
        try:
            assert _next_read(transport) == [message]
        finally:
            transport.kill()
            peer.join(timeout=5.0)

    def test_a_corrupt_length_prefix_on_the_socket_is_refused(self):
        # A prefix past MAX_FRAME_BYTES is corruption, not a frame to wait
        # for: the read fails at once instead of allocating gigabytes.
        corrupt = struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x"
        transport, peer = _scripted_transport([("send", corrupt)])
        try:
            with pytest.raises(RemoteShardError, match="MAX_FRAME_BYTES"):
                _next_read(transport)
        finally:
            transport.kill()
            peer.join(timeout=5.0)

    def test_a_killed_transport_refuses_writes_and_reads_as_eof(self):
        transport, peer = _scripted_transport([("sleep", 0.05)])
        peer.join(timeout=5.0)
        transport.kill()
        assert not transport.is_alive()
        with pytest.raises(OSError):
            transport.write({"type": "ping", "token": 1})
        assert transport.read() is None


class TestEngineRegistry:
    def test_sharded_spec_strings(self):
        engine = create_engine("sharded:4")
        assert isinstance(engine, ShardedEngine) and engine.num_shards == 4
        default = create_engine("sharded")
        assert isinstance(default, ShardedEngine) and default.num_shards >= 2

    def test_invalid_specs(self):
        with pytest.raises(ValueError, match="sharded"):
            create_engine("bogus:2")  # error message lists the kinds
        with pytest.raises(ValueError):
            create_engine("sharded:0")
        with pytest.raises(ValueError):
            create_engine("serial:2")  # serial takes no worker count
        with pytest.raises(ValueError):
            create_engine("process:tcp")  # the alias names local shards only

    @pytest.mark.parametrize("spec", ["sharded:127.0.0.1:9101",
                                      "sharded:hosta:9101,hostb:9101",
                                      "sharded:[::1]:7000", "sharded:justahost",
                                      # ``tcp`` was an older name of local shards.
                                      "sharded:tcp", "sharded:tcp:2"])
    def test_an_address_spec_is_refused_by_name(self, spec):
        # No shard is ever dialed: an address is an error at construction,
        # not a connection attempt at first use.
        with pytest.raises(ValueError, match=re.escape(spec)):
            create_engine(spec)

    def test_the_worker_has_no_listen_mode(self):
        # The network daemon is gone: asking for one is a usage error
        # (argparse's status 2), and nothing is bound or announced.
        done = subprocess.run(
            [sys.executable, "-m", "repro.core.remote", "--listen", "127.0.0.1:0"],
            capture_output=True, text=True, timeout=30, env=_worker_env())
        assert done.returncode == 2
        assert done.stdout == ""
        assert "LISTENING" not in done.stderr

    def test_transport_list_fixes_shard_count(self):
        with pytest.raises(ValueError):
            ShardedEngine(num_shards=3, transports=[SocketTransport.spawn] * 2)
        with pytest.raises(ValueError):
            ShardedEngine(transports=[])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ShardedEngine(0)
        with pytest.raises(ValueError):
            ShardedEngine(2, chunksize=0)
        with pytest.raises(ValueError):
            ShardedEngine(2, heartbeat_interval=0.0)

    @pytest.mark.parametrize("spec, shards", [
        ("sharded:1", 1), ("sharded:3", 3), ("process:2", 2), ("thread:2", 2),
        ("process", None), (" Sharded:2 ", 2),
    ])
    def test_a_local_spec_names_lazily_spawned_shards(self, spec, shards):
        engine = create_engine(spec)
        try:
            assert isinstance(engine, ShardedEngine)
            assert engine.num_shards == (shards or remote._default_workers())
            assert engine._factories == [SocketTransport.spawn] * engine.num_shards
            assert not engine.health()["started"]  # nothing spawned yet
        finally:
            engine.shutdown()

    @pytest.mark.parametrize("spec", [
        "sharded:0", "sharded:-2", "process:0", "thread:-1", "sharded:tcp:0",
        "sharded:tcp:two", "sharded:tcp:2:3", "process:tcp", "thread:tcp:2",
        "sharded:unix:/tmp/privid.sock", "serial:2",
    ])
    def test_a_malformed_spec_is_refused(self, spec, monkeypatch):
        spawned = []
        monkeypatch.setattr(remote, "_worker_command", spawned.append)
        with pytest.raises(ValueError):
            create_engine(spec)
        assert spawned == []


@pytest.fixture
def in_process_shard(monkeypatch) -> None:
    """This process plays a shard: its payload table starts empty and is
    thrown away afterwards."""
    monkeypatch.setattr(engine_module, "_PAYLOAD_CACHE", {})


def _hold(message) -> None:
    """Keep a ``payload`` frame in this process, in the module's own table, as
    a worker's read loop does — but never its drops: every scripted worker
    of a test shares that one table, so one worker's drop must not take a
    ref another still holds."""
    engine_module._hold_payload(message["ref"], base64.b64decode(message["data"]), ())


def _scripted_worker(reply):
    """A transport factory whose far end is a thread standing in for a
    worker: it keeps pushed payloads, answers pings and, after each task
    frame, sends whatever bytes ``reply(tasks so far)`` returns, in one
    ``sendall``.  ``spawn.threads`` keeps every thread it started, so that a
    test can join them (:func:`_join_workers`) once its engine is shut down."""

    def spawn() -> SocketTransport:
        ours, theirs = socket.socketpair()

        def play() -> None:
            tasks = []
            with theirs, theirs.makefile("rb") as rfile:
                try:
                    while (message := read_frame(rfile)) is not None:
                        if message["type"] == "ping":
                            theirs.sendall(encode_frame(
                                {"type": "pong", "token": message["token"]}))
                        elif message["type"] == "payload":
                            _hold(message)
                        elif message["type"] == "task":
                            tasks.append(message)
                            theirs.sendall(reply(tasks))
                        elif message["type"] == "shutdown":
                            return
                except OSError:
                    return  # the coordinator killed the connection

        thread = threading.Thread(target=play, daemon=True)
        spawn.threads.append(thread)
        thread.start()
        return SocketTransport(ours, "scripted")

    spawn.threads = []
    return spawn


def _answering():
    """A scripted worker that runs each task as a shard does, on its thread."""
    return _scripted_worker(lambda tasks: encode_frame(_handle_task(tasks[-1])))


def _join_workers(spawn) -> None:
    """Join every thread a scripted worker started: each must end with the
    engine that used it, not run on into the next test."""
    assert spawn.threads, "no scripted worker was spawned"
    for thread in spawn.threads:
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "a scripted worker outlived its engine"


@pytest.fixture
def threaded(in_process_shard):
    """``threaded(n)``: ``n`` transport factories of shards that live in this
    process (:func:`_answering`), for an engine the test shuts down; the
    test ends by joining every thread they started."""
    made = []

    def factories(count: int) -> list:
        made.extend(_answering() for _ in range(count))
        return made[-count:]

    yield factories
    for spawn in made:
        if spawn.threads:
            _join_workers(spawn)


class TestShardedStreaming:
    def test_imap_matches_serial_byte_for_byte(self):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        reference = _rows_of(SerialEngine().imap_chunks(
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

    def test_interleaved_streams_share_the_shard_pool(self, footage_pickles, threaded):
        # The executor round-robins PROCESS statements through one engine;
        # frames arriving while the "wrong" stream pumps must be parked for
        # their owner, not dropped.
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        reference = _rows_of(SerialEngine().imap_chunks(
            runner, list(iter_chunks(video, spec)), context))
        with ShardedEngine(transports=threaded(2)) as engine:
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

    def test_per_shard_dispatch_bytes_recorded(self, threaded):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        with ShardedEngine(transports=threaded(2), chunksize=1) as engine:
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
    apply = engine._apply

    def recording(actions):
        for action in actions:
            if action[0] == "send" and action[2]["type"] == "task":
                sizes.setdefault(action[2]["seq"], len(action[2]["specs"]))
        apply(actions)

    engine._apply = recording
    return sizes


def _holding_work(engine):
    """A live shard of ``engine`` that holds a task, else None."""
    return next((shard for shard in engine._live_shards()
                 if engine._core.shards[shard.id].pending), None)


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
    many tasks went out, so every count below repeats exactly.  The rule
    itself is ``TestBatchRule``'s; these hold the shell to it."""

    def test_thirty_unhinted_chunks_go_out_in_eight_doubling_tasks(self, threaded):
        video = _walker_video(duration=900.0)
        runner, context = _runner(), _context(video)
        reference = _rows_of(SerialEngine().imap_chunks(
            runner, list(iter_chunks(video, THIRTY_CHUNKS)), context))
        with ShardedEngine(transports=threaded(2)) as engine:
            sizes = _task_sizes(engine)
            # The second stream ramps from one again; a hinted one on the
            # same engine is cut as it always was.
            for hint, expected in ((None, [1, 1, 2, 2, 4, 4, 8, 8]),
                                   (None, [1, 1, 2, 2, 4, 4, 8, 8]),
                                   (30, [3] * 10)):
                before = engine.dispatch_stats_dict()
                sizes.clear()
                rows = _rows_of(engine.imap_chunks(
                    runner, iter_chunks(video, THIRTY_CHUNKS), context,
                    count_hint=hint))
                stats = engine.dispatch_stats_dict()
                assert repr(rows) == repr(reference)
                assert _in_seq_order(sizes) == expected
                assert (stats["dispatches"] - before["dispatches"],
                        stats["chunks"] - before["chunks"]) == (len(expected), 30)
                if hint is None:
                    # The whole ramp goes out before the first result is
                    # read, so least-loaded placement simply alternates.
                    earlier = {shard: counts["chunks"]
                               for shard, counts in before["per_shard"].items()}
                    assert [counts["chunks"] - earlier.get(shard, 0)
                            for shard, counts in stats["per_shard"].items()] == [15, 15]

    def test_a_cold_store_backed_stream_is_the_same_eight_frames(self, tmp_path, threaded):
        video = _walker_video(duration=900.0)
        runner, context = _runner(), _context(video)
        reference = [list(rows) for rows in runner.iter_chunk_rows(
            iter_chunks(video, THIRTY_CHUNKS), context)]
        store = TieredChunkCache(disk=tmp_path / "store")
        with ShardedEngine(transports=threaded(2)) as engine:
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
        assert not any(outcome.fallback for outcome in recorder.outcomes)
        # The coordinator writes every entry; no shard opens the store.
        assert store.disk.writes == 30 and len(store.disk) == 30

    def test_scattered_misses_stay_single_chunk_tasks_over_both_shards(self, tmp_path,
                                                                       threaded):
        video = _walker_video(duration=900.0)
        runner, context = _runner(), _context(video)
        chunks = list(iter_chunks(video, THIRTY_CHUNKS))
        warm = TieredChunkCache(disk=tmp_path / "store")
        reference = [list(rows) for rows in runner.iter_chunk_rows(
            chunks, context, cache=warm)]
        for index in (4, 15, 27):
            key = warm.key_for(runner, chunks[index], context)
            (warm.disk.directory / f"{key}.json").unlink()
        store = TieredChunkCache(disk=tmp_path / "store")  # cold memory tier
        with ShardedEngine(transports=threaded(2)) as engine:
            sizes = _task_sizes(engine)
            rows = [list(rows) for rows in runner.iter_chunk_rows(
                iter(chunks), context, engine=engine, cache=store)]
            stats = engine.dispatch_stats_dict()
        assert repr(rows) == repr(reference)
        assert _in_seq_order(sizes) == [1, 1, 1]
        assert sorted(shard["dispatches"] for shard in stats["per_shard"].values()) \
            == [1, 2]
        assert len(store.disk) == 30


#: The multi-process specs; ``process:N`` is ``sharded:N`` under an older name.
MULTIPROCESS_SPECS = ("sharded:2",)

TEN_CHUNKS = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)


def _serial_rows(runner, chunks, context) -> list:
    return _rows_of(SerialEngine().imap_chunks(runner, chunks, context))


def _published(engine, video=None) -> list[str]:
    """The refs of ``engine``'s publications (or only of ``video``'s parts)."""
    return [entry.ref for entry in engine._publisher._entries.values()
            if video is None or entry.keep is video]


def _published_bytes(engine) -> int:
    return sum(len(entry.data) for entry in engine._publisher._entries.values())


@pytest.fixture
def pushed(monkeypatch) -> list:
    """``(transport, ref)`` of every ``payload`` frame written, in order,
    and ``(transport, "task", payload ref)`` of every task frame."""
    frames: list = []
    write = SocketTransport.write

    def spying(transport, message):
        if message["type"] == "payload":
            frames.append((transport, message["ref"]))
        elif message["type"] == "task":
            frames.append((transport, "task", message["payload"]))
        return write(transport, message)

    monkeypatch.setattr(SocketTransport, "write", spying)
    return frames


class TestBroadcastLifetime:
    """Footage is published once per state for the engine's lifetime; a
    stream's other constants ride in a small manifest deduplicated by digest."""

    @pytest.mark.parametrize("spec", MULTIPROCESS_SPECS)
    def test_identical_queries_publish_once(self, spec, footage_pickles, pushed):
        video = _walker_video()
        query = _count_query()
        reference = _build_system(video).execute(query, charge_budget=False)
        published, pushed_bytes = [], []
        with _build_system(video, engine=spec) as system:
            for _ in range(10):
                result = system.execute(query, charge_budget=False)
                assert result.raw_series_unsafe() == reference.raw_series_unsafe()
                stats = system.engine_stats()["dispatch"]
                published.append(stats["broadcast_bytes"])
                pushed_bytes.append(stats["push_bytes"])
            (part,) = _published(system.engine, video)
            assert len(_published(system.engine)) == 2
        assert footage_pickles == [video.name]
        assert published[0] > 0 and published == published[:1] * 10
        assert (stats["broadcasts"], stats["broadcast_reuses"]) == (2, 2 * 9)
        # Each shard was sent the footage part once, and the nine repeat
        # queries pushed nothing.
        shards = {transport for transport, *_ in pushed}
        assert len(shards) == len(stats["per_shard"]) == 2
        assert sorted(pushed.count((shard, part)) for shard in shards) == [1, 1]
        assert pushed_bytes[0] > 0 and pushed_bytes == pushed_bytes[:1] * 10
        # The count guard: each shard decoded once, not once per query.
        assert stats["stages"]["loads"] == 2
        # shutdown() (via close()) forgot both.
        assert _published(system.engine) == []

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
            assert set(pinned_a) < set(_published(engine))
            (old_part_b,) = _published(engine, video_b)
            rows_b.extend(stream_b)
            # B released: its footage goes, what A still pins stays.
            assert _published_bytes(engine) <= limit
            assert old_part_b not in _published(engine)
            assert _published(engine, video_b) == []
            assert set(pinned_a) <= set(_published(engine))
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

    #: One sharded stream and ``shutdown()``, in a child whose ``TMPDIR``
    #: the test chooses.
    _STREAM_AND_SHUTDOWN = """
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
with ShardedEngine(2) as engine:
    chunks = iter_chunks(video, ChunkSpec(window=TimeInterval(0, 240), chunk_duration=60.0))
    assert len(list(engine.imap_chunks(runner, chunks,
                                       ExecutionContext(camera="cam", fps=2.0)))) == 4
    assert engine.dispatch_stats.pushes >= 2
"""

    def test_a_stream_and_shutdown_leave_no_file_or_segment(self, tmp_path):
        # Payloads ride the shard sockets: neither the coordinator nor a
        # shard creates a file or a shared-memory segment.
        tmpdir = tmp_path / "tmp"
        tmpdir.mkdir()

        def privid_in_shm() -> set:
            return {name for name in os.listdir("/dev/shm") if name.startswith("privid-")} \
                if os.path.isdir("/dev/shm") else set()

        before = privid_in_shm()
        done = subprocess.run([sys.executable, "-c", self._STREAM_AND_SHUTDOWN],
                              capture_output=True, text=True, timeout=120,
                              env={**_worker_env(), "TMPDIR": str(tmpdir)})
        assert done.returncode == 0, done.stderr
        assert list(tmpdir.iterdir()) == []
        assert privid_in_shm() <= before


class TestWorkerPayloadCache:
    def test_fetch_reports_whether_it_decoded(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_PAYLOAD_CACHE", {})
        engine_module._hold_payload("p0", pickle.dumps({"objects": []}), ())
        assert engine_module._fetch_payload("p0") == ({"objects": []}, True)
        assert engine_module._fetch_payload("p0") == ({"objects": []}, False)
        with pytest.raises(LookupError, match="'p1' was never pushed"):
            engine_module._fetch_payload("p1")

    def test_a_payload_frame_drops_before_it_keeps(self, monkeypatch):
        cache = {}
        monkeypatch.setattr(engine_module, "_PAYLOAD_CACHE", cache)
        for ref in ("p0", "p1"):
            engine_module._hold_payload(ref, pickle.dumps(ref), ())
        engine_module._hold_payload("p2", pickle.dumps("p2"), ["p0", "p9"])
        assert sorted(cache) == ["p1", "p2"]

    def test_a_decode_never_brings_back_a_ref_dropped_meanwhile(self, monkeypatch):
        # The read loop applies a drop while the executor thread decodes
        # that very ref: the decoded object must not be put back, or the
        # worker would hold a ref its coordinator thinks it dropped.
        cache = {}
        monkeypatch.setattr(engine_module, "_PAYLOAD_CACHE", cache)
        engine_module._hold_payload("p0", pickle.dumps("footage"), ())
        loads = pickle.loads

        def dropped_while_decoding(data):
            engine_module._hold_payload("p1", pickle.dumps("next"), ["p0"])
            return loads(data)

        monkeypatch.setattr(engine_module.pickle, "loads", dropped_while_decoding)
        assert engine_module._fetch_payload("p0") == ("footage", True)
        assert sorted(cache) == ["p1"]


class TestShardStageTimes:
    def test_stage_times_fit_inside_the_task_and_a_repeat_loads_nothing(
            self, in_process_shard):
        video = _walker_video()
        runner, context = _runner(), _context(video)
        publisher = engine_module._BroadcastPublisher()
        try:
            broadcast = _StreamBroadcast(publisher, runner, context, DispatchStats())
            specs = [list(broadcast.chunk_spec(chunk))
                     for chunk in iter_chunks(video, TEN_CHUNKS)]
            message = {"type": "task", "seq": 1, "specs": specs,
                       "payload": broadcast.payload_ref()}
            for ref in publisher.needs(message["payload"]):
                engine_module._hold_payload(ref, publisher.data(ref), ())
            frames = []
            for _ in range(2):
                started = time.perf_counter()
                frames.append(_handle_task(message))
                wall = time.perf_counter() - started
                stages = frames[-1]["stages"]
                assert set(stages) == {"loads", "load_s", "execute_s"}
                assert 0.0 <= sum(value for name, value in stages.items()
                                  if name.endswith("_s")) <= wall
        finally:
            publisher.close()
        cold, warm = (frame["stages"] for frame in frames)
        assert cold["loads"] == 1 and cold["execute_s"] > 0
        # The repeat: payload already decoded; a shard has no store, so it
        # executes every chunk again, to the same rows.
        assert warm["loads"] == 0 and warm["load_s"] < cold["load_s"]
        assert warm["execute_s"] > 0
        assert [outcome["rows"] for outcome in frames[0]["outcomes"]] \
            == [outcome["rows"] for outcome in frames[1]["outcomes"]]

    def test_coordinator_sums_stage_times_per_shard(self, threaded):
        video = _walker_video()
        with ShardedEngine(transports=threaded(2), chunksize=1) as engine:
            started = time.perf_counter()
            list(engine.imap_chunks(_runner(), iter_chunks(video, TEN_CHUNKS),
                                    _context(video)))
            wall = time.perf_counter() - started
            stats = engine.dispatch_stats_dict()
        names = ("load_s", "execute_s")
        per_shard = list(stats["per_shard"].values())
        for name in (*names, "loads"):
            assert stats["stages"][name] == pytest.approx(
                sum(shard["stages"][name] for shard in per_shard))
        # Two shards, each busy for no longer than the stream took.
        assert 0 < sum(stats["stages"][name] for name in names) <= 2 * wall
        assert stats["stages"]["execute_s"] > 0


    def test_only_the_known_stage_names_are_summed(self):
        # A result frame is outside input: the executable can write to its
        # worker's socket, so a frame naming other stages must add no keys.
        stats = DispatchStats()
        for index in range(3):
            stats.record_stages({"loads": 1, "load_s": 0.5, "execute_s": 0.25,
                                 f"extra_{index}": 1.0, index: 2.0, "rows": [1]})
        stats.record_stages({"execute_s": "0.5", "load_s": None})
        stats.record_stages(["loads", 1])
        assert stats.stages == {"loads": 3, "load_s": 1.5, "execute_s": 0.75}


@functools.lru_cache(maxsize=None)
def _small_scene(name: str):
    """A scenario's small scene, its policy map and its query window, built
    once for the two scenario sweeps below (neither mutates them)."""
    if name in ("campus", "highway", "urban"):
        scenario = build_scenario(name, scale=0.2, duration_hours=0.1)
    else:
        scenario = build_scenario(name, duration_hours=0.1)
    return (scenario, scenario_policy_map(scenario, k_segments=1),
            min(scenario.video.duration, 360.0))


class TestShardedSystemParity:
    def test_query_byte_identical_to_serial(self, threaded):
        video = _walker_video()
        query = _count_query()
        reference = _build_system(video).execute(query)
        engine = ShardedEngine(transports=threaded(4))
        with engine, _build_system(video, engine=engine) as system:
            result = system.execute(query)
            stats = system.engine_stats()
        assert result.raw_series_unsafe() == reference.raw_series_unsafe()
        assert result.series() == reference.series()
        assert stats["engine"] == "sharded"
        assert stats["dispatch"]["chunks"] == 10

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_scenario_scene_byte_identical_to_serial(self, name, sharded_pool):
        """Every scenario scene: sharded releases == serial releases, exactly."""
        scenario, policy_map, window = _small_scene(name)
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
    """One persistent engine on two in-process shards, with their own
    payload table, reused across the scenario sweeps and the transport-seam
    streams."""
    factories = [_answering() for _ in range(2)]
    with pytest.MonkeyPatch.context() as patch, \
            ShardedEngine(transports=factories) as engine:
        patch.setattr(engine_module, "_PAYLOAD_CACHE", {})
        yield engine
    # shutdown() forgot every payload the streams above published.
    assert engine._publisher._entries == {}
    for spawn in factories:
        _join_workers(spawn)


class TestFaultInjection:
    def test_shard_killed_mid_sweep_is_byte_identical(self):
        video = _walker_video(num_walkers=8, duration=1200.0)
        spec = ChunkSpec(window=TimeInterval(0, 1200), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        reference = _rows_of(SerialEngine().imap_chunks(
            runner, list(iter_chunks(video, spec)), context))
        with ShardedEngine(3, chunksize=1) as engine:
            outcomes = []
            stream = engine.imap_chunks(runner, iter_chunks(video, spec), context)
            outcomes.append(next(stream))
            # Kill a shard that still holds assigned work if one exists
            # (otherwise any live shard): the stream must finish regardless.
            victim = _holding_work(engine) or engine._live_shards()[0]
            victim.process.kill()
            outcomes.extend(stream)
        assert repr(_rows_of(outcomes)) == repr(reference)
        assert len(outcomes) == 20

    def test_a_push_to_a_frozen_shard_does_not_stall_the_coordinator(self):
        # A manifest larger than a socket buffer (a 1.8 MB mask) is pushed to
        # a started shard that stopped reading: what the socket does not
        # take waits on the transport, the other shard keeps being served,
        # and the frozen one is declared dead and its task moves.  The
        # executable reads no frame, so the mask costs bytes, not time.
        video = _walker_video()
        context = _context(video)
        dust = Mask("dust", tuple(BoundingBox(float(i % 1000), 700.0, 0.5, 0.5)
                                  for i in range(40000)))
        assert len(pickle.dumps(dust)) > 1_000_000
        constant = SandboxRunner(ConstantExecutable(),
                                 Schema(columns=(ColumnSpec("value", DataType.NUMBER, 0.0),)),
                                 max_rows=5, timeout_seconds=5.0)
        reference = _serial_rows(constant, iter_chunks(video, TEN_CHUNKS, mask=dust),
                                 context)
        result = {}
        with ShardedEngine(2, chunksize=1, heartbeat_interval=0.05,
                           heartbeat_timeout=0.3) as engine:
            list(engine.imap_chunks(constant, iter_chunks(video, TEN_CHUNKS), context))
            frozen = engine._live_shards()[0]  # started: it answered a task
            os.kill(frozen.process.pid, signal.SIGSTOP)

            def drive():
                result["rows"] = _rows_of(engine.imap_chunks(
                    constant, iter_chunks(video, TEN_CHUNKS, mask=dust), context))

            driver = threading.Thread(target=drive, daemon=True)
            driver.start()
            driver.join(timeout=60.0)
            stalled = driver.is_alive()
            with contextlib.suppress(ProcessLookupError):  # already killed
                os.kill(frozen.process.pid, signal.SIGCONT)
            driver.join(timeout=60.0)
            assert not stalled, "a push to a frozen shard stalled the stream"
            assert frozen.id not in {shard.id for shard in engine._live_shards()}
        assert repr(result["rows"]) == repr(reference)

    def test_dead_shards_are_replaced_on_the_next_stream(self, threaded):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        with ShardedEngine(transports=threaded(2)) as engine:
            first = _rows_of(engine.imap_chunks(runner, iter_chunks(video, spec),
                                                context))
            for shard in engine._live_shards():
                shard.transport.kill()
            second = _rows_of(engine.imap_chunks(runner, iter_chunks(video, spec),
                                                 context))
            assert repr(second) == repr(first)
            assert len(engine._live_shards()) == 2


def _core(max_task_retries: int = 3, *, shards: int = 2, **rules) -> _Dispatch:
    """A dispatch core with live shards 0 .. ``shards - 1``, heard from at
    t=0; ``rules`` override the engine's default timings."""
    core = _Dispatch(**{"heartbeat_interval": 0.5, "heartbeat_timeout": 10.0,
                        "startup_grace": 60.0, "max_task_retries": max_task_retries,
                        "task_timeout": None, **rules})
    for shard_id in range(shards):
        core.add_shard(shard_id, 0.0)
    return core


_OUTCOME = {"rows": [{"kind": "a", "dy": 1.0}], "fallback": False}

#: One chunk's spec, as a stream's batch carries it.
_SPEC = [0, 0, 0.0, 30.0, 1, None, None]


def _result(seq: int, chunks: int = 1) -> dict:
    return {"type": "result", "seq": seq, "outcomes": [_OUTCOME] * chunks}


def _tasks_sent(actions) -> list:
    """``(shard, seq)`` of every task frame among ``actions``."""
    return [(action[1], action[2]["seq"]) for action in actions
            if action[0] == "send" and action[2]["type"] == "task"]


def _kills(actions) -> list:
    return [action[1] for action in actions if action[0] == "kill"]


def _answer_pings(core, shard_id: int, actions, now: float) -> None:
    """``shard_id`` answers, at ``now``, every ping among ``actions``."""
    for action in actions:
        if action[0] == "send" and action[1] == shard_id and action[2]["type"] == "ping":
            core.frame(shard_id, {"type": "pong", "token": action[2]["token"]}, now)


class TestDispatchCore:
    """The core's rules, driven with no process, socket or clock."""

    def test_result_application_is_at_most_once(self):
        # The first result frame for a seq is applied; any later frame for
        # the same seq (a reassigned task whose original shard was merely
        # slow) is dropped.
        core = _core()
        stream = core.open_stream()
        core.batch(stream, [[0, 0, 0.0, 30.0, 1, None, None, None]], "unused", 5, 0.0)
        first = {"type": "result", "seq": 0,
                 "outcomes": [{"rows": [{"kind": "a", "dy": 1.0}], "fallback": False}]}
        duplicate = {"type": "result", "seq": 0,
                     "outcomes": [{"rows": [{"kind": "b", "dy": 2.0}], "fallback": False}]}
        assert core.frame(0, first, 1.0) == [("ready", 0, 0, None)]
        assert core.frame(0, duplicate, 1.5) == []
        assert [dict(row) for row in core.ready[0][0].rows] == [{"kind": "a", "dy": 1.0}]
        assert core.tasks == {} and core.shards[0].pending == {}
        # A result for a seq nobody is waiting on is ignored outright.
        assert core.frame(0, {"type": "result", "seq": 99, "outcomes": []}, 2.0) == []
        assert 99 not in core.ready

    def test_a_delayed_frame_lands_at_its_deadline(self):
        core = _core()
        stream = core.open_stream()
        core.batch(stream, [[0, 0, 0.0, 30.0, 1, None, None]], "unused", 5, 0.0)
        result = {"type": "result", "seq": 0, "outcomes": [_OUTCOME]}
        assert core.frame(0, {"type": "delayed", "delay": 2.0, "frame": result}, 1.0) == []
        assert not core.ready and core.deadline() <= 3.0

        def settled(now):
            return [action for action in core.tick(now) if action[0] != "send"]

        assert settled(2.9) == [] and settled(3.0) == [("ready", 0, 0, None)]

    def test_silence_counts_only_while_a_shard_holds_work(self):
        core = _core()
        core.frame(0, {"type": "pong", "token": 0}, 0.0)  # started: a 10 s limit
        stream = core.open_stream()
        # Idle for 100 s, then handed work: its silence starts now.
        core.batch(stream, [[0, 0, 0.0, 30.0, 1, None, None]], "unused", 5, 100.0)
        assert not [action for action in core.tick(109.9) if action[0] == "kill"]
        actions = core.tick(110.0)
        assert ("kill", 0) in actions
        assert [(action[1], action[2]["seq"]) for action in actions
                if action[0] == "send" and action[2]["type"] == "task"] == [(1, 0)]
        assert core.tasks[0].attempts == 1 and 0 not in core.shards

    def test_a_shard_is_judged_against_the_startup_grace_until_its_first_frame(self):
        # Both shards are still importing when they are handed work, so the
        # 2 s grace applies, not the 0.3 s timeout: the survivor's first
        # frame starts it; the one frozen before it ever spoke is killed at
        # the grace and its task moves.
        core = _core(heartbeat_interval=0.05, heartbeat_timeout=0.3, startup_grace=2.0)
        stream = core.open_stream()
        assert _tasks_sent(core.batch(stream, [_SPEC] * 2, "unused", 5, 0.0)) == [(0, 0)]
        assert _tasks_sent(core.batch(stream, [_SPEC] * 2, "unused", 5, 0.0)) == [(1, 1)]
        assert core.frame(1, _result(1, 2), 1.0) == [("ready", 1, 1, None)]
        assert _kills(core.tick(1.99)) == []
        actions = core.tick(2.0)
        assert _kills(actions) == [0] and _tasks_sent(actions) == [(1, 0)]
        assert core.frame(1, _result(0, 2), 2.25) == [("ready", 0, 1, None)]
        done, failure = core.collect(stream)
        assert [len(outcomes) for outcomes in done] == [2, 2] and failure is None
        # Started, the survivor answers to heartbeat_timeout: handed work at
        # 3 s, it is dead at 3.3 s.
        core.batch(stream, [_SPEC], "unused", 5, 3.0)
        assert _kills(core.tick(3.29)) == [] and _kills(core.tick(3.3)) == [1]

    def test_a_busy_shard_answering_pings_lives_and_a_silent_one_dies(self):
        # Both hold a task longer than heartbeat_timeout.  Shard 0 answers
        # every ping, as a worker's read loop does while its task executes:
        # it is busy, never killed.  Shard 1 answers none: it is dead at
        # 0.2 s, and its task moves to the busy one.
        core = _core(heartbeat_interval=0.05, heartbeat_timeout=0.2)
        for shard_id in (0, 1):
            core.frame(shard_id, {"type": "pong", "token": None}, 0.0)
        stream = core.open_stream()
        core.batch(stream, [_SPEC], "unused", 5, 0.0)
        core.batch(stream, [_SPEC], "unused", 5, 0.0)
        kills, moved = {}, []
        for step in range(1, 21):
            now = step / 20
            actions = core.tick(now)
            kills.update((shard_id, now) for shard_id in _kills(actions))
            moved += _tasks_sent(actions)
            _answer_pings(core, 0, actions, now)
        assert kills == {1: 0.2} and moved == [(0, 1)]
        assert core.frame(0, _result(0), 1.0) == [("ready", 0, 0, None)]
        assert core.frame(0, _result(1), 1.0) == [("ready", 1, 0, None)]
        assert [len(outcomes) for outcomes in core.collect(stream)[0]] == [1, 1]

    def test_a_task_is_sent_at_most_one_plus_max_task_retries_times(self):
        core = _core(max_task_retries=1)
        stream = core.open_stream()
        assert _tasks_sent(core.batch(stream, [_SPEC], "unused", 5, 0.0)) == [(0, 0)]
        core.add_shard(2, 0.0)  # a refill: a live shard is always there to retry on
        assert _tasks_sent(core.eof(0, 1.0)) == [(1, 0)]
        actions = core.eof(1, 2.0)
        assert _tasks_sent(actions) == [] and actions[-1][:2] == ("failed", 0)
        assert "task 0 failed 2 times; last shard 1: shard died" in actions[-1][2]
        assert core.collect(stream) == ([], actions[-1][2])
        assert core.tasks == {} and core.shards[2].pending == {}

    def test_a_task_fails_once_no_live_shard_remains(self):
        core = _core()
        stream = core.open_stream()
        core.batch(stream, [_SPEC], "unused", 5, 0.0)
        assert _tasks_sent(core.eof(0, 1.0)) == [(1, 0)]
        reason = "no live shards remain to run task 0 (attempt 3)"
        assert core.eof(1, 2.0) == [("kill", 1), ("failed", 0, reason)]
        assert core.collect(stream) == ([], reason)

    def test_task_timeout_moves_a_task_whose_frame_was_lost(self):
        # The task frame to shard 0 vanished in transit: the shard is
        # healthy and answers pings, so only task_timeout moves the task;
        # the original's late answer is then a duplicate, dropped.
        core = _core(heartbeat_interval=0.25, task_timeout=1.0)
        stream = core.open_stream()
        assert _tasks_sent(core.batch(stream, [_SPEC], "unused", 5, 0.0)) == [(0, 0)]
        for step in range(1, 4):
            now = step / 4
            actions = core.tick(now)
            assert _tasks_sent(actions) == [] and _kills(actions) == []
            _answer_pings(core, 0, actions, now)
        assert core.deadline() <= 1.0
        actions = core.tick(1.0)
        assert _tasks_sent(actions) == [(1, 0)] and _kills(actions) == []
        assert core.frame(1, _result(0), 1.5) == [("ready", 0, 1, None)]
        assert core.frame(0, _result(0), 1.75) == []
        assert 0 in core.shards and core.tasks == {}
        assert [len(outcomes) for outcomes in core.collect(stream)[0]] == [1]

    def test_a_delayed_result_holds_back_no_other_shard(self):
        # Shard 0's first result is held back a second (a DELAY fault); the
        # other three tasks of the window land meanwhile and wait, parked,
        # behind the stream's head.
        core = _core()
        stream = core.open_stream()
        for _ in range(4):
            core.batch(stream, [_SPEC], "unused", 5, 0.0)
        assert [task.shard_id for task in core.tasks.values()] == [0, 1, 0, 1]
        assert core.frame(0, {"type": "delayed", "delay": 1.0, "frame": _result(0)},
                          0.25) == []
        for seq, shard_id in ((1, 1), (2, 0), (3, 1)):
            assert core.frame(shard_id, _result(seq), 0.5) == [("ready", seq, shard_id, None)]
        assert core.waiting(stream) and core.collect(stream) == ([], None)
        assert core.deadline() <= 1.25
        assert [action for action in core.tick(1.25) if action[0] != "send"] \
            == [("ready", 0, 0, None)]
        done, failure = core.collect(stream)
        assert len(done) == 4 and failure is None and not core.waiting(stream)

    def test_a_failure_is_raised_by_its_own_stream(self):
        core = _core(max_task_retries=0)
        first, second = core.open_stream(), core.open_stream()
        core.batch(first, [_SPEC], "unused", 5, 0.0)
        core.batch(second, [_SPEC], "unused", 5, 0.0)
        (failed,) = core.frame(0, {"type": "error", "seq": 0, "message": "boom"}, 1.0)
        assert failed[:2] == ("failed", 0) and failed[2].endswith("boom")
        assert core.frame(1, _result(1), 1.0) == [("ready", 1, 1, None)]
        # The second stream collects its own outcome and never sees the
        # first stream's failure, which stays parked for its owner.
        done, failure = core.collect(second)
        assert len(done) == 1 and failure is None and not core.waiting(second)
        assert core.collect(first) == ([], failed[2])

    def test_a_lost_shards_tasks_move_to_the_survivor_in_seq_order(self):
        # A worker crashes right after accepting a task (a CRASH fault at
        # its seq): what it held is sent again, oldest first, and the
        # stream still collects every seq in dispatch order.
        core = _core()
        stream = core.open_stream()
        for _ in range(4):
            core.batch(stream, [_SPEC], "unused", 5, 0.0)
        actions = core.eof(0, 1.0)
        assert _kills(actions) == [0] and _tasks_sent(actions) == [(1, 0), (1, 2)]
        for seq in range(4):
            core.frame(1, _result(seq), 2.0)
        done, failure = core.collect(stream)
        assert len(done) == 4 and failure is None


def _drive(shards: int, chunks: int, *, chunksize: int | None = None,
           count_hint: int | None = None, lose: int | None = None):
    """Run a ``chunks``-chunk stream through ``remote._next_batch`` and a
    core as ``ShardedEngine._imap`` does: fill the window, then let the head
    seq's shard answer.  ``lose``: the seq after whose dispatch its shard's
    stream ends.  Returns the task sizes in seq order, the most chunks ever
    in flight, and how many task frames went out."""
    core = _core(shards=shards)
    stream = core.open_stream()
    sizes, in_flight, peak, frames = [], 0, 0, 0
    while chunks or in_flight:
        while chunks and (size := remote._next_batch(len(sizes), in_flight, shards,
                                                     chunksize, count_hint)):
            size = min(size, chunks)
            frames += len(_tasks_sent(core.batch(stream, [_SPEC] * size, "unused", 5, 0.0)))
            sizes.append(size)
            chunks -= size
            in_flight += size
            peak = max(peak, in_flight)
            if len(sizes) - 1 == lose:
                frames += len(_tasks_sent(core.eof(core.tasks[lose].shard_id, 0.0)))
        head = core.tasks[min(core.tasks)]
        core.frame(head.shard_id, _result(head.seq, len(head.specs)), 0.0)
        done, failure = core.collect(stream)
        assert failure is None
        in_flight -= sum(len(outcomes) for outcomes in done)
    return sizes, peak, frames


class TestBatchRule:
    """``remote._next_batch``: how many chunks a stream's next task takes,
    and when its window is full — a function of the tasks sent and the
    chunks in flight, never of time, so every count below repeats exactly."""

    def test_an_unhinted_batch_doubles_after_every_shards_tasks_up_to_eight(self):
        for shards, expected in ((1, [1, 2, 4, 8, 8, 8]),
                                 (2, [1, 1, 2, 2, 4, 4, 8, 8, 8, 8]),
                                 (3, [1, 1, 1, 2, 2, 2, 4, 4, 4, 8, 8])):
            assert [remote._next_batch(sent, 0, shards, None, None)
                    for sent in range(len(expected))] == expected
        # A hint of no chunks is no hint.
        assert remote._next_batch(0, 0, 2, None, 0) == 1

    def test_a_hint_or_a_chunksize_fixes_the_batch(self):
        for sent in (0, 1, 5, 50):
            # A hint cuts at count_hint // (4 x shards), one to eight ...
            assert remote._next_batch(sent, 0, 2, None, 30) == 3
            assert remote._next_batch(sent, 0, 2, None, 3) == 1
            assert remote._next_batch(sent, 0, 2, None, 10_000) == 8
            # ... and an explicit chunksize overrides any hint.
            assert remote._next_batch(sent, 0, 2, 5, 30) == 5
        sizes, _, _ = _drive(2, 30, chunksize=1)
        assert sizes == [1] * 30

    def test_a_window_holds_two_tasks_per_shard(self):
        # At most 2 x shards x batch chunks are dispatched but not yet yielded.
        assert remote._next_batch(0, 6, 2, 2, None) == 2
        assert remote._next_batch(0, 7, 2, 2, None) == 0
        assert remote._next_batch(6, 24, 2, None, None) == 8
        assert remote._next_batch(6, 25, 2, None, None) == 0
        sizes, peak, _ = _drive(2, 20, chunksize=2)
        assert sizes == [2] * 10 and peak == 8

    @pytest.mark.parametrize("shards, expected", [
        # The batch doubles after every ``shards`` tasks, up to 8 chunks.
        (1, [1, 2, 4] + [8] * 6 + [5]),
        (2, [1, 1, 2, 2, 4, 4, 8, 8, 8, 8, 8, 6]),
        (3, [1, 1, 1, 2, 2, 2, 4, 4, 4, 8, 8, 8, 8, 7]),
    ])
    def test_a_ramp_never_exceeds_the_window(self, shards, expected):
        sizes, peak, _ = _drive(shards, 60)
        assert sizes == expected
        assert peak <= 2 * shards * 8  # what 2 x shards tasks of 8 hold

    def test_a_shard_lost_mid_ramp_changes_no_task_size(self):
        # The ramp is a function of dispatch order: a death changes who runs
        # a task, never how the stream was cut.
        sizes, _, frames = _drive(2, 30, lose=3)
        assert sizes == [1, 1, 2, 2, 4, 4, 8, 8]
        assert frames > len(sizes)  # what the lost shard held went out again


#: What the generated histories are made of: (kind, a, b) events, resolved
#: against the history's state when they run.  A frame goes to a seq in
#: flight when there is one and ``b < 10`` (any seq ever dispatched
#: otherwise), from its owner when ``a < 3`` (any shard id ever seen
#: otherwise); a tick advances the clock by ``_STEPS[a]``; other picks wrap.
#: Kinds repeat to weight them: most frames are well-formed results.
_KINDS = ("batch", "batch", "result", "result", "result", "short", "error",
          "eof", "spawn", "tick", "tick", "collect", "collect", "open")
_STEPS = (0.0, 0.5, 5.0, 10.0, 30.0, 61.0)
_EVENTS = st.tuples(st.sampled_from(_KINDS), st.integers(0, 5), st.integers(0, 15))


class TestDispatchCoreUnderArbitraryInterleavings:
    """``_Dispatch`` driven by generated histories on a virtual clock.

    Batches on several streams, results (first, duplicate and stale, from
    live and dead shards), misshapen results, error frames, EOFs, respawns
    and ticks interleave arbitrarily; after every event four rules hold:

    * every seq retires (``ready`` or ``failed``) at most once;
    * a stream collects its seqs in dispatch order, or fails on its first
      failed one;
    * no task is sent more than ``1 + max_task_retries`` times;
    * a tick kills a shard exactly when it holds work and its silence has
      reached its limit (``heartbeat_timeout``, or ``startup_grace`` before
      its first frame), never before, and nothing but a tick or an EOF kills.
    """

    @settings(max_examples=200, deadline=None)
    @given(max_task_retries=st.sampled_from([0, 1, 3]),
           events=st.lists(_EVENTS, min_size=20, max_size=80))
    def test_the_four_rules_hold(self, max_task_retries, events):
        core = _core(max_task_retries)
        now = 0.0
        shard_ids = [0, 1]
        # stream -> [its seqs in dispatch order, how many collected]
        streams = {core.open_stream(): [[], 0] for _ in range(2)}
        chunks = {}          # seq -> number of chunks
        retired = {}         # seq -> "ready" | "failed"
        sends = {}           # seq -> task frames sent

        def apply(actions, *, may_kill=False):
            for action in actions:
                if action[0] in ("ready", "failed"):
                    assert action[1] not in retired, f"seq {action[1]} retired twice"
                    retired[action[1]] = action[0]
                elif action[0] == "send" and action[2]["type"] == "task":
                    seq = action[2]["seq"]
                    sends[seq] = sends.get(seq, 0) + 1
                    assert sends[seq] <= 1 + max_task_retries
                elif action[0] == "kill":
                    assert may_kill, "only a tick or an EOF kills"

        for kind, first, second in events:
            seqs = sorted(chunks)
            if kind == "open":
                streams[core.open_stream()] = [[], 0]
            elif kind == "batch" and streams:
                stream = sorted(streams)[first % len(streams)]
                seq = len(chunks)
                chunks[seq] = 1 + second % 3
                specs = [[0, index, 0.0, 30.0, 1, None, None] for index in range(chunks[seq])]
                streams[stream][0].append(seq)
                apply(core.batch(stream, specs, "unused", 5, now))
            elif kind in ("result", "short", "error") and seqs:
                in_flight = sorted(core.tasks)
                seq = in_flight[second % len(in_flight)] if in_flight and second < 10 \
                    else seqs[second % len(seqs)]
                shard = core.tasks[seq].shard_id if first < 3 and seq in core.tasks \
                    else shard_ids[first % len(shard_ids)]
                if kind == "error":
                    message = {"type": "error", "seq": seq, "message": "boom"}
                else:
                    count = chunks[seq] - (kind == "short")
                    message = {"type": "result", "seq": seq, "outcomes": [
                        {"rows": [{"seq": seq}], "fallback": False}] * count}
                apply(core.frame(shard, message, now))
            elif kind == "eof":
                apply(core.eof(shard_ids[first % len(shard_ids)], now), may_kill=True)
            elif kind == "spawn":
                shard_ids.append(max(shard_ids) + 1)
                core.add_shard(shard_ids[-1], now)
            elif kind == "tick":
                now += _STEPS[first]
                overdue = {shard_id for shard_id, shard in core.shards.items()
                           if shard.pending and now >= shard.last_seen + core._limit(shard)}
                actions = core.tick(now)
                apply(actions, may_kill=True)
                assert {action[1] for action in actions if action[0] == "kill"} == overdue
            elif kind == "collect" and streams:
                stream = sorted(streams)[first % len(streams)]
                owned, collected = streams[stream]
                done, failure = core.collect(stream)
                expected = owned[collected:collected + len(done)]
                assert [outcomes[0].rows[0]["seq"] for outcomes in done] == expected
                assert [len(outcomes) for outcomes in done] == [chunks[seq] for seq in expected]
                assert all(retired[seq] == "ready" for seq in expected)
                streams[stream][1] = collected + len(done)
                head = owned[collected + len(done):collected + len(done) + 1]
                if failure is not None:
                    # The first failed seq fails the stream; the engine closes it.
                    assert head and retired[head[0]] == "failed"
                    core.close_stream(stream)
                    del streams[stream]
                else:
                    assert not head or head[0] not in retired
                    assert core.waiting(stream) == bool(head)
            # Bookkeeping: every task in flight sits on its owner, a live shard.
            for seq, task in core.tasks.items():
                assert task.attempts <= max_task_retries
                assert core.shards[task.shard_id].pending[seq] is task
            assert sum(len(shard.pending) for shard in core.shards.values()) \
                == len(core.tasks)


#: Twelve manifests over eight footage parts: twenty refs, so the
#: sixteen-ref bound binds.  A manifest names one or two parts.
_MANIFESTS = {f"m{i}": (f"part{i % 8}",) + ((f"part{(3 * i + 1) % 8}",) if i % 3 else ())
              for i in range(12)}
_HOLDING_EVENTS = st.tuples(st.sampled_from(("task", "task", "task", "retire",
                                             "pin", "unpin")),
                            st.integers(0, 11))


class TestPayloadHoldings:
    """``remote._holdings``, the rule for what one shard holds, driven by
    generated histories of task frames, retirements, pins and unpins, with
    a model worker that applies each ``payload`` frame (drops, then the
    ref) as the real one does.  After every event:

    * a shard holds at most 16 refs, unless every ref it holds is pinned,
      in flight or needed;
    * no ref that is needed or named by an unretired task is dropped;
    * each ref is pushed before the first task frame that names it, and
      the worker holds exactly what the coordinator believes it holds.
    """

    @settings(max_examples=200, deadline=None)
    @given(events=st.lists(_HOLDING_EVENTS, min_size=10, max_size=120))
    def test_the_holdings_rule(self, events):
        held: list[str] = []
        worker: set[str] = set()     # what the model worker keeps
        in_flight: list[str] = []    # manifests of unretired tasks
        pins: dict[str, int] = {}
        for kind, index in events:
            manifest = f"m{index}"
            needed = [*_MANIFESTS[manifest], manifest]
            if kind == "task":
                pinned = {ref for ref, count in pins.items() if count}
                flying = {ref for task in in_flight for ref in (*_MANIFESTS[task], task)}
                before = list(held)
                held, push, drop = remote._holdings(before, pinned, flying, needed)
                assert push == [ref for ref in needed if ref not in before]
                assert set(drop) <= set(before) - pinned - flying - set(needed)
                assert len(held) == len(set(held))
                assert set(held) == (set(before) - set(drop)) | set(needed)
                assert held[len(held) - len(needed):] == needed  # most recent last
                if push:
                    assert len(held) <= remote._SHARD_PAYLOAD_LIMIT \
                        or set(held) <= pinned | flying | set(needed)
                else:
                    assert drop == []
                for position, ref in enumerate(push):  # the payload frames
                    worker -= set(drop) if position == 0 else set()
                    worker.add(ref)
                # The task frame: everything it names is there ...
                assert set(needed) <= worker == set(held)
                in_flight.append(manifest)
            elif kind == "retire" and in_flight:
                in_flight.pop(index % len(in_flight))
            elif kind == "pin":
                for ref in needed:
                    pins[ref] = pins.get(ref, 0) + 1
            elif kind == "unpin" and pins.get(manifest):
                for ref in needed:
                    pins[ref] -= 1
            # ... and stays there while a task naming it is unretired.
            assert {ref for task in in_flight for ref in (*_MANIFESTS[task], task)} <= worker


_SIX_ROWS = {"rows": [{"kind": "a", "dy": 1.0}] * 6, "fallback": False}

_NOT_AN_OUTCOME = 'outcome 1 is not {"rows": [object, ...], "fallback": bool}'

#: Result outcomes the core must refuse for a two-chunk task at max_rows=5.
_REFUSED = {"one_short": ([_OUTCOME], "1 outcomes for 2 chunks"),
            "one_extra": ([_OUTCOME] * 3, "3 outcomes for 2 chunks"),
            "max_rows_plus_one": ([_OUTCOME, _SIX_ROWS], "6 rows, over max_rows=5"),
            "outcome_not_object": ([_OUTCOME, [{"kind": "a"}]], _NOT_AN_OUTCOME),
            "rows_missing": ([_OUTCOME, {"fallback": False}], _NOT_AN_OUTCOME),
            "rows_not_list": ([_OUTCOME, {"rows": {"kind": "a"}, "fallback": False}],
                              _NOT_AN_OUTCOME),
            "row_not_object": ([_OUTCOME, {"rows": [1, 2], "fallback": False}],
                               _NOT_AN_OUTCOME),
            "fallback_missing": ([_OUTCOME, {"rows": []}], _NOT_AN_OUTCOME)}


class TestResultShape:
    """A result frame must carry one ``{"rows": [object, ...], "fallback":
    bool}`` outcome per chunk of its task, none over the stream's
    ``max_rows``; any other is an error from its owner, never an exception
    (the executable can write to its worker's socket)."""

    @staticmethod
    def _core_with_task(max_task_retries: int = 3):
        core = _core(max_task_retries)
        stream = core.open_stream()
        actions = core.batch(stream, [[0, 0, 0.0, 30.0, 1, None, None],
                                      [0, 1, 30.0, 60.0, 1, None, None]], "unused", 5, 0.0)
        assert [(action[0], action[1]) for action in actions] == [("send", 0)]
        return core, stream

    @pytest.mark.parametrize("case", sorted(_REFUSED))
    def test_a_misshapen_result_is_redispatched_not_applied(self, case):
        core, stream = self._core_with_task()
        task = core.tasks[0]
        actions = core.frame(0, {"type": "result", "seq": 0,
                                 "outcomes": _REFUSED[case][0]}, 1.0)
        assert 0 not in core.ready and 0 not in core.failed
        # Handled as an error from its owner: retried on the other shard.
        assert [(kind, shard, message["seq"]) for kind, shard, message in actions] \
            == [("send", 1, 0)]
        assert task.attempts == 1 and task.shard_id == 1
        assert core.shards[0].pending == {} and core.shards[1].pending == {0: task}
        # The new owner's well-formed answer is the one applied.
        assert core.frame(1, {"type": "result", "seq": 0,
                              "outcomes": [_OUTCOME, _OUTCOME]}, 2.0) \
            == [("ready", 0, 1, None)]
        outcomes, failure = core.collect(stream)
        assert [len(batch) for batch in outcomes] == [2] and failure is None
        assert core.tasks == {}

    @pytest.mark.parametrize("case", sorted(_REFUSED))
    def test_misshapen_results_exhaust_the_retries_then_fail_the_stream(self, case):
        core, stream = self._core_with_task(max_task_retries=1)
        refused, reason = _REFUSED[case]
        frame = {"type": "result", "seq": 0, "outcomes": refused}
        core.frame(0, frame, 1.0)
        assert core.frame(0, frame, 1.5) == []  # stale: shard 0 no longer owns it
        assert core.tasks[0].attempts == 1 and core.tasks[0].shard_id == 1
        (action,) = core.frame(1, frame, 2.0)
        assert action[:2] == ("failed", 0) and reason in action[2]
        assert 0 not in core.ready and core.tasks == {}
        assert core.collect(stream) == ([], action[2])


TWO_CHUNKS = ChunkSpec(window=TimeInterval(0, 120), chunk_duration=60.0)


class TestTheOneWait:
    """The shell: one wait over every shard socket, and no thread per shard."""

    def test_two_results_in_one_recv_are_both_applied(self, in_process_shard):
        # Both results leave in one sendall, so they arrive in one recv; a
        # shell that read one frame per readiness would strand the second in
        # its buffer and, with pings an hour apart, never finish.
        video = _walker_video()
        runner, context = _runner(), _context(video)
        both = _scripted_worker(lambda tasks: b"" if len(tasks) < 2 else b"".join(
            encode_frame(_handle_task(task)) for task in tasks))
        result = {}
        with ShardedEngine(transports=[both], chunksize=1,
                           heartbeat_interval=3600.0) as engine:
            def drive():
                result["rows"] = _rows_of(engine.imap_chunks(
                    runner, iter_chunks(video, TWO_CHUNKS), context))
            driver = threading.Thread(target=drive, daemon=True)
            driver.start()
            driver.join(timeout=30.0)
            assert not driver.is_alive(), "the stream never finished"
        _join_workers(both)
        assert repr(result["rows"]) == repr(_serial_rows(
            runner, iter_chunks(video, TWO_CHUNKS), context))

    @pytest.mark.parametrize("rows, reason", [
        ([{"kind": "person", "dy": 1.0}] * 6, "over max_rows=5"),
        ([1, 2], "is not "),
    ], ids=["max_rows_plus_one", "row_not_object"])
    def test_refused_rows_never_reach_the_store(self, rows, reason, tmp_path,
                                                in_process_shard):
        # A worker answering rows the core refuses is handled like an error
        # frame on every retry; the engine stream fails, the stream finishes
        # on serial, and the store holds serial's rows, never the refused ones.
        video = _walker_video()
        runner, context = _runner(), _context(video)
        serial = _serial_rows(runner, iter_chunks(video, TWO_CHUNKS), context)
        assert all(entry != rows for entry in serial)

        def reply_with_rows(tasks):
            reply = _handle_task(tasks[-1])
            for outcome in reply["outcomes"]:
                outcome["rows"] = rows
            return encode_frame(reply)

        store = TieredChunkCache(disk=tmp_path / "store")
        worker = _scripted_worker(reply_with_rows)
        with ShardedEngine(transports=[worker], chunksize=1) as engine:
            with pytest.warns(RuntimeWarning, match=reason):
                streamed = list(runner.iter_chunk_rows(
                    iter_chunks(video, TWO_CHUNKS), context, engine=engine, cache=store))
        _join_workers(worker)
        assert [[dict(row) for row in entry] for entry in streamed] == serial
        keys = [store.key_for(runner, chunk, context)
                for chunk in iter_chunks(video, TWO_CHUNKS)]
        assert store.disk.writes == len(store) == 2
        assert [store.disk.get(key) for key in keys] == serial

    def test_the_coordinator_runs_no_thread_per_shard(self, threaded):
        # However many shards, a running stream starts no thread at all
        # (threads of earlier tests may end meanwhile; none may begin) but
        # the in-process workers' own.
        video = _walker_video()
        runner, context = _runner(), _context(video)
        for shards in (1, 3):
            factories = threaded(shards)
            before = set(threading.enumerate())
            with ShardedEngine(transports=factories, chunksize=1) as engine:
                stream = engine.imap_chunks(runner, iter_chunks(video, TEN_CHUNKS), context)
                next(stream)  # every shard spawned, the stream mid-flight
                workers = {thread for spawn in factories for thread in spawn.threads}
                started = set(threading.enumerate()) - before - workers
                assert len(workers) == shards and len(list(stream)) == 9
            assert [thread.name for thread in started] == []


class TestCoordinatorOwnsTheStore:
    def test_a_repeat_sweep_is_served_by_the_coordinator_store(self, tmp_path, threaded):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        store = DiskChunkStore(tmp_path / "store")
        with ShardedEngine(transports=threaded(2)) as engine:
            first = [list(rows) for rows in runner.iter_chunk_rows(
                iter_chunks(video, spec), context, engine=engine, cache=store)]
            assert store.writes == 10 and len(store) == 10
            sent = engine.dispatch_stats.chunks
            second = [list(rows) for rows in runner.iter_chunk_rows(
                iter_chunks(video, spec), context, engine=engine, cache=store)]
            assert engine.dispatch_stats.chunks == sent  # every chunk a hit
        assert repr(second) == repr(first)

    def test_the_coordinator_writes_every_entry(self, tmp_path, threaded):
        video = _walker_video()
        store_dir = tmp_path / "store"
        reference = _build_system(video, cache="memory").execute(_count_query())
        engine = ShardedEngine(transports=threaded(2))
        with engine, _build_system(video, engine=engine,
                                   cache=f"tiered:{store_dir}") as system:
            result = system.execute(_count_query())
            stats = system.cache_stats()
        assert result.raw_series_unsafe() == reference.raw_series_unsafe()
        assert stats["misses"] == 10  # coordinator-side lookups all missed cold
        # No shard opens the store: every entry is the coordinator's put.
        assert stats["disk"]["writes"] == 10
        assert stats["memory"]["entries"] == 10
        assert len(DiskChunkStore(store_dir)) == 10


class TestResilienceControls:
    def test_health_reflects_pool_lifecycle(self, threaded):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        with ShardedEngine(transports=threaded(2)) as engine:
            health = engine.health()
            # A lazy pool that has never spawned is empty but NOT degraded.
            assert health == {"engine": "sharded", "num_shards": 2,
                              "live_shards": 0, "pending_tasks": 0,
                              "started": False, "degraded": False}
            list(engine.imap_chunks(runner, iter_chunks(video, spec), context))
            health = engine.health()
            assert health["started"] and health["live_shards"] == 2
            assert not health["degraded"]
            for shard in engine._live_shards():
                shard.transport.kill()
            assert engine.health()["degraded"]

    def test_a_refusing_slot_is_retried_at_every_stream_start(self, threaded):
        # Each stream start that finds the slot empty calls its factory once;
        # a refusal warns and leaves the stream to the surviving shard.
        video = _walker_video()
        runner, context = _runner(), _context(video)
        reference = _serial_rows(runner, iter_chunks(video, TEN_CHUNKS), context)
        first, second = threaded(2)
        calls = []

        def refuses_five_times():
            calls.append(len(calls))
            if len(calls) <= 5:
                raise ConnectionRefusedError(f"refusal {len(calls)}")
            return second()

        with ShardedEngine(transports=[first, refuses_five_times]) as engine:
            for stream in range(1, 6):
                with pytest.warns(RuntimeWarning) as caught:
                    rows = _rows_of(engine.imap_chunks(
                        runner, iter_chunks(video, TEN_CHUNKS), context))
                assert [str(warning.message) for warning in caught] \
                    == [f"shard slot 1 is unreachable: refusal {stream}"]
                assert len(calls) == stream
                assert repr(rows) == repr(reference)
                assert engine.health()["degraded"]
            rows = _rows_of(engine.imap_chunks(runner, iter_chunks(video, TEN_CHUNKS),
                                               context))
            health = engine.health()
        assert len(calls) == 6 and repr(rows) == repr(reference)
        assert health["live_shards"] == 2 and not health["degraded"]

    def test_a_pool_no_slot_of_which_opens_reads_degraded(self):
        video = _walker_video()

        def refusing():
            raise ConnectionRefusedError("no worker")

        with ShardedEngine(transports=[refusing]) as engine:
            with pytest.warns(RuntimeWarning, match="slot 0 is unreachable"), \
                    pytest.raises(RemoteShardError, match="no shard could be opened"):
                list(engine.imap_chunks(_runner(), iter_chunks(video, TEN_CHUNKS),
                                        _context(video)))
            health = engine.health()
        assert health["started"] and health["live_shards"] == 0 and health["degraded"]

    @pytest.mark.parametrize("variable", ["PRIVID_HEARTBEAT_TIMEOUT", "PRIVID_STARTUP_GRACE"])
    def test_only_the_arguments_set_heartbeat_pacing(self, monkeypatch, variable):
        # The core alone reads the pacing; the shell keeps no copy of it.
        monkeypatch.setenv(variable, "3.5")
        engine = ShardedEngine(2)
        assert (engine._core.heartbeat_timeout, engine._core.startup_grace) == (10.0, 60.0)
        engine.shutdown()
        engine = ShardedEngine(2, heartbeat_timeout=1.25, startup_grace=7.0)
        assert (engine._core.heartbeat_timeout, engine._core.startup_grace) == (1.25, 7.0)
        assert not hasattr(engine, "heartbeat_timeout") and not hasattr(engine, "startup_grace")
        engine.shutdown()

    def test_crash_at_seq_replays_deterministically(self, threaded):
        # Same plan + same seed: the crash fires at the same protocol seq on
        # every run, and the stream stays byte-identical to serial.
        from repro.core.faults import FaultKind, FaultPlan, FaultRule

        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        reference = _rows_of(SerialEngine().imap_chunks(
            runner, list(iter_chunks(video, spec)), context))
        plan = FaultPlan(rules=(FaultRule(site="transport.*.task",
                                          kind=FaultKind.CRASH, after_seq=5),),
                         seed=3, name="crash-at-5")
        fired = []
        for _ in range(2):
            injector = plan.injector()
            with ShardedEngine(transports=threaded(2), chunksize=1,
                               heartbeat_interval=0.2) as engine:
                engine.set_fault_injector(injector)
                rows = _rows_of(engine.imap_chunks(
                    runner, iter_chunks(video, spec), context))
            assert repr(rows) == repr(reference)
            fired.append([(event.kind, event.seq) for event in injector.fired])
        assert fired[0] == fired[1] == [(FaultKind.CRASH, 5)]

    @pytest.mark.parametrize("kind", ["connect_refused", "io_error"])
    def test_a_failed_connect_leaves_its_slot_unreachable(self, threaded, kind):
        # An IO_ERROR at a connect means what it means everywhere (an
        # OSError), which the shell reads as it reads a refusal.
        from repro.core.faults import FaultKind, FaultPlan, FaultRule

        video = _walker_video()
        runner, context = _runner(), _context(video)
        reference = _serial_rows(runner, iter_chunks(video, TEN_CHUNKS), context)
        plan = FaultPlan(rules=(FaultRule(site="transport.worker1.connect",
                                          kind=FaultKind(kind), at=(0,)),))
        with ShardedEngine(transports=threaded(2), chunksize=1) as engine:
            engine.set_fault_injector(plan.injector())
            with pytest.warns(RuntimeWarning, match=r"slot 1 is unreachable: "
                                                    r"injected .* at transport\.worker1"):
                rows = _rows_of(engine.imap_chunks(
                    runner, iter_chunks(video, TEN_CHUNKS), context))
            health = engine.health()
        assert repr(rows) == repr(reference)
        assert health["live_shards"] == 1 and health["degraded"]

    def test_a_failed_result_read_is_the_shards_eof(self, threaded):
        # An IO_ERROR on a result frame raises from the read; the shell
        # reads it as the shard's EOF and redispatches to the other shard.
        from repro.core.faults import FaultKind, FaultPlan, FaultRule

        video = _walker_video()
        runner, context = _runner(), _context(video)
        reference = _serial_rows(runner, iter_chunks(video, TEN_CHUNKS), context)
        injector = FaultPlan(rules=(FaultRule(site="transport.worker0.result",
                                              kind=FaultKind.IO_ERROR, at=(0,)),)).injector()
        with ShardedEngine(transports=threaded(2), chunksize=1,
                           heartbeat_interval=0.2) as engine:
            engine.set_fault_injector(injector)
            rows = _rows_of(engine.imap_chunks(
                runner, iter_chunks(video, TEN_CHUNKS), context))
        assert repr(rows) == repr(reference)
        assert [event.kind for event in injector.fired] == [FaultKind.IO_ERROR]

    def test_a_replacement_shard_is_pushed_exactly_what_its_first_task_names(
            self, pushed, threaded):
        # A CRASH after seq 3 kills a worker mid-stream; the next query's
        # stream start refills its slot with a worker that holds nothing.
        from repro.core.faults import FaultKind, FaultPlan, FaultRule

        video = _walker_video()
        query = _count_query()
        plan = FaultPlan(rules=(FaultRule(site="transport.*.task",
                                          kind=FaultKind.CRASH, after_seq=3),),
                         seed=3, name="crash-at-3")
        injector = plan.injector()
        engine = ShardedEngine(transports=threaded(2), chunksize=1,
                               heartbeat_interval=0.2)
        engine.set_fault_injector(injector)
        serial = _build_system(video)
        with engine, _build_system(video, engine=engine) as system:
            for _ in range(2):
                expected = serial.execute(query, charge_budget=False)
                result = system.execute(query, charge_budget=False)
                assert repr(result.series()) == repr(expected.series())
                assert repr(result.raw_series_unsafe()) \
                    == repr(expected.raw_series_unsafe())
            needs = {ref: engine._publisher.needs(ref) for ref in _published(engine)}
        assert [(event.kind, event.seq) for event in injector.fired] \
            == [(FaultKind.CRASH, 3)]
        transports = list(dict.fromkeys(transport for transport, *_ in pushed))
        assert len(transports) == 3  # the two first shards and the replacement
        frames = [frame[1:] for frame in pushed if frame[0] is transports[2]]
        first_task = next(index for index, frame in enumerate(frames)
                          if frame[0] == "task")
        assert [ref for (ref,) in frames[:first_task]] \
            == list(needs[frames[first_task][1]])
        assert all(frame[0] == "task" for frame in frames[first_task:])

    def test_a_payload_over_the_frame_bound_fails_the_stream_by_name(
            self, monkeypatch, threaded):
        video = _walker_video(num_walkers=20, duration=1700.0)
        runner, context = _runner(), _context(video)
        # Room for the manifest's frame and every result, not for the part's.
        part = len(pickle.dumps(video))
        assert part > 3 * 1196
        monkeypatch.setattr(remote, "MAX_FRAME_BYTES", 4 * -(-part // 3))
        with ShardedEngine(transports=threaded(2)) as engine:
            with pytest.raises(RemoteShardError,
                               match=r"needs a \d+-byte frame, over MAX_FRAME_BYTES="):
                list(engine.imap_chunks(runner, iter_chunks(video, TEN_CHUNKS), context))
            assert engine.dispatch_stats.pushes == 0
        query = _count_query()
        reference = _build_system(video).execute(query, charge_budget=False)
        engine = ShardedEngine(transports=threaded(2))
        with engine, PrividSystem(seed=5, engine=engine) as system:
            system.register_camera("cam", video,
                                   policy=PrivacyPolicy(rho=30.0, k_segments=1),
                                   epsilon_budget=100.0)
            with pytest.warns(RuntimeWarning, match="MAX_FRAME_BYTES"):
                result = system.execute(query, charge_budget=False)
        assert repr(result.series()) == repr(reference.series())
        assert repr(result.raw_series_unsafe()) == repr(reference.raw_series_unsafe())


class TestShardOutput:
    def test_a_printing_executable_writes_to_stderr_never_stdout(self, capfd):
        # A worker points fd 1 at stderr before serving: what an executable
        # prints must never reach the coordinator's stdout, which may be
        # the analyst's own output.
        video = _walker_video()
        runner = SandboxRunner(PrintingExecutable(characters=1000), PERSON_SCHEMA,
                               max_rows=5, timeout_seconds=30.0)
        with ShardedEngine(2) as engine:
            outcomes = list(engine.imap_chunks(
                runner, iter_chunks(video, TEN_CHUNKS), _context(video)))
        assert len(outcomes) == 10
        assert not any(outcome.fallback for outcome in outcomes)
        out, err = capfd.readouterr()
        assert "x" * 1000 in err
        assert "xxxx" not in out


class TestShardsAreReleased:
    """A shard's socket and process go with it, however it ends: a killed
    worker is reaped before ``kill()`` returns, never left running for
    ``Popen.__del__`` to warn about."""

    @staticmethod
    def _released(transport):
        return transport._sock.fileno() == -1, transport.process.returncode is not None

    def test_close_and_kill_release_the_socket_and_the_process(self):
        closed, killed = SocketTransport.spawn(), SocketTransport.spawn()
        closed.close()
        killed.kill()
        assert self._released(closed) == self._released(killed) == (True, True)

    def test_a_spawned_worker_answers_pings_until_it_is_closed(self):
        transport = SocketTransport.spawn()
        try:
            transport.write({"type": "ping", "token": 3})
            assert _next_read(transport) == [{"type": "pong", "token": 3}]
            assert transport.is_alive()
        finally:
            transport.close()
        assert not transport.is_alive()
        assert transport.process.returncode == 0  # it obeyed the shutdown frame

    def test_a_killed_shard_is_reaped_when_kill_returns(self):
        video = _walker_video()
        runner, context = _runner(), _context(video)
        with ShardedEngine(1) as engine:
            list(engine.imap_chunks(runner, iter_chunks(video, TEN_CHUNKS), context))
            (shard,) = engine._live_shards()
            shard.transport.kill()
            assert shard.process.returncode is not None

    def test_a_dead_shard_is_released_when_it_is_replaced(self):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        with ShardedEngine(1) as engine:
            first = _rows_of(engine.imap_chunks(runner, iter_chunks(video, spec), context))
            (victim,) = engine._live_shards()
            victim.process.kill()
            victim.process.wait()
            again = _rows_of(engine.imap_chunks(runner, iter_chunks(video, spec), context))
            (replacement,) = engine._live_shards()
            assert replacement is not victim
            assert self._released(victim.transport) == (True, True)
        assert self._released(replacement.transport) == (True, True)
        assert repr(again) == repr(first)

    def test_a_shard_that_exits_at_start_up_leaves_the_stream_to_the_survivor(
            self, monkeypatch):
        video = _walker_video()
        runner, context = _runner(), _context(video)
        reference = _serial_rows(runner, iter_chunks(video, TEN_CHUNKS), context)
        worker_command, spawned = remote._worker_command, []

        def first_worker_exits(fd):
            spawned.append(fd)
            if len(spawned) == 1:
                return [sys.executable, "-c", "raise SystemExit(3)"]
            return worker_command(fd)

        monkeypatch.setattr(remote, "_worker_command", first_worker_exits)
        with ShardedEngine(2) as engine:
            rows = _rows_of(engine.imap_chunks(runner, iter_chunks(video, TEN_CHUNKS),
                                               context))
            assert [shard.slot for shard in engine._live_shards()] == [1]
        assert len(spawned) == 2
        assert repr(rows) == repr(reference)


class TestTransportSeam:
    """An engine given its transport factories (``transports=``) runs like
    ``sharded:N``: byte-identical to serial, payloads pushed once per shard,
    each dead slot refilled from its own factory."""

    def test_stream_byte_identical_to_serial(self, sharded_pool):
        video = _walker_video()
        runner, context = _runner(), _context(video)
        reference = _serial_rows(runner, iter_chunks(video, TEN_CHUNKS), context)
        rows = _rows_of(sharded_pool.imap_chunks(runner, iter_chunks(video, TEN_CHUNKS),
                                              context))
        assert repr(rows) == repr(reference)

    def test_repeat_stream_reuses_the_pushed_payloads(self, sharded_pool,
                                                      footage_pickles):
        video = _walker_video()
        runner, context = _runner(), _context(video)
        before = sharded_pool.dispatch_stats_dict()
        first = _rows_of(sharded_pool.imap_chunks(runner, iter_chunks(video, TEN_CHUNKS),
                                               context))
        published = _published(sharded_pool)
        middle = sharded_pool.dispatch_stats_dict()
        second = _rows_of(sharded_pool.imap_chunks(runner, iter_chunks(video, TEN_CHUNKS),
                                                context))
        after = sharded_pool.dispatch_stats_dict()
        assert repr(first) == repr(second)
        assert footage_pickles == [video.name]
        assert _published(sharded_pool) == published
        assert {name: after[name] - before[name] for name in
                ("broadcasts", "broadcast_reuses")} \
            == {"broadcasts": 2, "broadcast_reuses": 2}
        # The first stream pushed its part and manifest to the shards it
        # used; the repeat found them there.
        assert middle["pushes"] - before["pushes"] >= 2
        assert after["pushes"] == middle["pushes"]

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_scenario_scene_warm_rerun_is_served_by_the_store(self, name, sharded_pool,
                                                              tmp_path):
        """Every scenario scene: the cold sweep equals serial, and a repeat
        is answered from the coordinator's store with no chunk dispatched."""
        scenario, policy_map, window = _small_scene(name)
        query = (QueryBuilder(f"seam-{name}")
                 .split(scenario.name, begin=0, end=window,
                        chunk_duration=30.0, mask="owner", into="chunks")
                 .process("chunks", executable="count_entering_people.py",
                          max_rows=5,
                          schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0)],
                          into="t")
                 .select_count(table="t", bucket_seconds=120.0, epsilon=1.0)
                 .build())
        systems = {}
        for label, engine, cache in (("serial", None, None),
                                     ("seam", sharded_pool, f"tiered:{tmp_path}")):
            systems[label] = PrividSystem(seed=11, engine=engine, cache=cache)
            register_scenario_camera(systems[label], scenario, policy_map=policy_map,
                                     epsilon_budget=100.0, sample_period=1.0)
        reference = systems["serial"].execute(query, charge_budget=False)
        cold = systems["seam"].execute(query, charge_budget=False)
        sent = sharded_pool.dispatch_stats.chunks
        warm = systems["seam"].execute(query, charge_budget=False)
        assert sharded_pool.dispatch_stats.chunks == sent
        assert repr(cold.raw_series_unsafe()) == repr(reference.raw_series_unsafe())
        assert repr(cold.series()) == repr(reference.series())
        assert repr(warm.raw_series_unsafe()) == repr(reference.raw_series_unsafe())

    def test_a_transport_killed_mid_sweep_is_byte_identical(self, threaded):
        video = _walker_video(num_walkers=8, duration=1200.0)
        spec = ChunkSpec(window=TimeInterval(0, 1200), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        reference = _serial_rows(runner, iter_chunks(video, spec), context)
        with ShardedEngine(transports=threaded(3), chunksize=1) as engine:
            stream = engine.imap_chunks(runner, iter_chunks(video, spec), context)
            outcomes = [next(stream)]
            victim = _holding_work(engine) or engine._live_shards()[0]
            victim.transport.kill()
            outcomes.extend(stream)
        assert repr(_rows_of(outcomes)) == repr(reference)
        assert len(outcomes) == 20

    def test_each_dead_slot_is_refilled_from_its_own_factory(self, threaded):
        video = _walker_video()
        runner, context = _runner(), _context(video)
        calls = []

        def factory(slot, spawn):
            def counted():
                calls.append(slot)
                return spawn()
            return counted

        with ShardedEngine(transports=[factory(slot, spawn) for slot, spawn
                                       in enumerate(threaded(2))]) as engine:
            first = _rows_of(engine.imap_chunks(runner, iter_chunks(video, TEN_CHUNKS),
                                                context))
            for shard in engine._live_shards():
                shard.transport.kill()
            second = _rows_of(engine.imap_chunks(runner, iter_chunks(video, TEN_CHUNKS),
                                                 context))
            assert sorted(shard.slot for shard in engine._live_shards()) == [0, 1]
        assert sorted(calls) == [0, 0, 1, 1]
        assert repr(second) == repr(first)

    def test_an_unreachable_slot_leaves_the_stream_to_the_others(self, threaded):
        video = _walker_video()
        runner, context = _runner(), _context(video)
        reference = _serial_rows(runner, iter_chunks(video, TEN_CHUNKS), context)

        def refusing():
            raise ConnectionRefusedError("slot 1 has no worker")

        with ShardedEngine(transports=[*threaded(1), refusing]) as engine:
            with pytest.warns(RuntimeWarning, match="slot 1 is unreachable"):
                rows = _rows_of(engine.imap_chunks(
                    runner, iter_chunks(video, TEN_CHUNKS), context))
            health = engine.health()
        assert repr(rows) == repr(reference)
        assert health["live_shards"] == 1 and health["degraded"]

    @pytest.mark.parametrize("slots", [1, 2, 3])
    def test_every_slot_is_opened_once_and_given_work(self, slots, threaded):
        # The first stream start fills each slot from its own factory, and the
        # least-loaded hand-out gives every shard a task; a second stream
        # finds every slot live and calls no factory.
        video = _walker_video()
        runner, context = _runner(), _context(video)
        calls = []

        def factory(slot, spawn):
            def counted():
                calls.append(slot)
                return spawn()
            return counted

        with ShardedEngine(transports=[factory(slot, spawn) for slot, spawn
                                       in enumerate(threaded(slots))]) as engine:
            for _ in range(2):
                list(engine.imap_chunks(runner, iter_chunks(video, TEN_CHUNKS), context))
            per_shard = engine.dispatch_stats_dict()["per_shard"]
            health = engine.health()
        assert calls == list(range(slots))
        assert sorted(per_shard) == [str(shard_id) for shard_id in range(slots)]
        assert health["live_shards"] == slots and not health["degraded"]


class TestWorkerCommandLine:
    """``python -m repro.core.remote`` takes exactly ``--fd N``."""

    @pytest.mark.parametrize("argv", [[], ["--fd"], ["--fd", "three"],
                                      ["--fd", "3", "--listen", ":9101"]],
                             ids=["nothing", "no_fd_number", "fd_not_a_number",
                                  "listen_beside_fd"])
    def test_anything_else_is_a_usage_error(self, argv):
        done = subprocess.run([sys.executable, "-m", "repro.core.remote", *argv],
                              capture_output=True, text=True, timeout=30,
                              env=_worker_env())
        assert done.returncode == 2
        assert done.stdout == ""
        assert "usage:" in done.stderr

    def test_a_usage_error_loads_no_engine(self):
        # The command line is refused before the engine, the table module
        # and numpy are imported (``-X importtime`` lists every import).
        done = subprocess.run([sys.executable, "-X", "importtime", "-m", "repro.core.remote"],
                              capture_output=True, text=True, timeout=30,
                              env=_worker_env())
        assert done.returncode == 2
        imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "repro.core" in imported
        assert not imported & {"numpy", "repro.relational.table", "repro.core.engine"}

    def test_a_worker_serves_the_socket_it_is_handed(self):
        ours, theirs = socket.socketpair()
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.core.remote", "--fd", str(theirs.fileno())],
            pass_fds=(theirs.fileno(),), stdin=subprocess.DEVNULL, env=_worker_env())
        theirs.close()
        transport = SocketTransport(ours, "by-hand", process)
        try:
            transport.write({"type": "ping", "token": 5})
            assert _next_read(transport) == [{"type": "pong", "token": 5}]
            transport.close()
            assert process.returncode == 0
        finally:
            transport.kill()
