"""Tests for the TCP shard transport (`repro.core.remote`).

The contract under test: the ``ShardTransport`` seam carries the exact same
length-prefixed JSON protocol over real sockets that it carries over
subprocess pipes — so ``sharded:tcp`` (locally spawned daemons) and
``sharded:HOST:PORT,...`` (connect to running daemons) are byte-identical to
the serial engine over every scenario scene, survive torn frames and
mid-stream disconnects, and reassign a killed daemon's work to the
survivors.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core import PrividSystem, SerialEngine, ShardedEngine, create_engine
from repro.core.resilience import RetryPolicy
from repro.core.remote import (
    TcpTransport,
    _LISTENING_MARKER,
    _worker_env,
    encode_frame,
    parse_address,
    spawn_local_daemon,
)
from repro.evaluation.runner import register_scenario_camera, scenario_policy_map
from repro.query.builder import QueryBuilder
from repro.relational.table import ColumnSpec, DataType, Schema
from repro.sandbox.environment import ExecutionContext, SandboxRunner
from repro.sandbox.executables import EnteringObjectCounter
from repro.scene.scenarios import SCENARIO_NAMES, build_scenario
from repro.utils.timebase import TimeInterval
from repro.video.chunking import ChunkSpec, iter_chunks

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
    return [[dict(row) for row in outcome.rows] for outcome in outcomes]


TEN_CHUNKS = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)


class TestParseAddress:
    def test_host_and_port(self):
        assert parse_address("camhost-3:9101") == ("camhost-3", 9101)

    def test_missing_host_defaults_to_any_interface(self):
        assert parse_address(":9101") == ("0.0.0.0", 9101)

    def test_port_is_required(self):
        with pytest.raises(ValueError):
            parse_address("camhost")
        with pytest.raises(ValueError):
            parse_address("camhost:")

    def test_port_must_be_a_valid_number(self):
        with pytest.raises(ValueError):
            parse_address("camhost:ninety")
        with pytest.raises(ValueError):
            parse_address("camhost:70000")


class _ScriptedServer:
    """A one-connection server that plays back a scripted byte sequence."""

    def __init__(self, script):
        self._script = script
        self._server = socket.create_server(("127.0.0.1", 0))
        self.port = self._server.getsockname()[1]
        self.received: list[bytes] = []
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        connection, _ = self._server.accept()
        with connection:
            for action, payload in self._script:
                if action == "send":
                    connection.sendall(payload)
                elif action == "sleep":
                    time.sleep(payload)
                elif action == "recv":
                    self.received.append(connection.recv(payload))

    def join(self):
        self._thread.join(timeout=5.0)
        self._server.close()


class TestTcpFraming:
    def test_frame_torn_across_socket_reads_is_reassembled(self):
        # One frame dribbled over three sends with pauses: the transport's
        # buffered reader must block until the length prefix's promise is
        # fulfilled and deliver one whole message.
        frame = encode_frame({"type": "pong", "token": 42})
        server = _ScriptedServer([
            ("send", frame[:2]), ("sleep", 0.05),
            ("send", frame[2:7]), ("sleep", 0.05),
            ("send", frame[7:]),
        ])
        transport = TcpTransport("127.0.0.1", server.port)
        try:
            assert transport.read() == {"type": "pong", "token": 42}
        finally:
            transport.kill()
            server.join()

    def test_torn_frame_at_disconnect_reads_as_eof(self):
        # The connection dies mid-frame: a torn header or torn body must
        # read as clean EOF (None) — the coordinator's death signal — never
        # as a partial message or an exception.
        frame = encode_frame({"type": "pong", "token": 7})
        server = _ScriptedServer([("send", frame[: len(frame) - 3])])
        transport = TcpTransport("127.0.0.1", server.port)
        try:
            server.join()  # server sent its fragment and closed
            assert transport.read() is None
        finally:
            transport.kill()

    def test_mid_stream_disconnect_reads_as_eof(self):
        frame = encode_frame({"type": "pong", "token": 1})
        server = _ScriptedServer([("send", frame)])
        transport = TcpTransport("127.0.0.1", server.port)
        try:
            assert transport.read() == {"type": "pong", "token": 1}
            server.join()
            assert transport.read() is None  # clean EOF after the peer left
        finally:
            transport.kill()

    def test_connection_refused_raises_oserror(self):
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nobody is listening on this port now
        with pytest.raises(OSError):
            TcpTransport("127.0.0.1", port, connect_timeout=1.0,
                         retry=RetryPolicy(max_attempts=1))


class TestDialRetry:
    def test_dial_retries_through_transient_refusal(self, monkeypatch):
        # The daemon-mid-restart scenario: the first dials are refused, a
        # later one lands.  The old single-dial behaviour misread this as
        # permanently unreachable.
        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]
        real = socket.create_connection
        attempts = []

        def flaky(address, timeout=None):
            attempts.append(address)
            if len(attempts) < 3:
                raise ConnectionRefusedError("daemon still restarting")
            return real(address, timeout=timeout)

        monkeypatch.setattr(socket, "create_connection", flaky)
        transport = TcpTransport(
            "127.0.0.1", port,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0))
        try:
            assert len(attempts) == 3
            assert transport.is_alive()
        finally:
            transport.kill()
            server.close()

    def test_single_attempt_policy_dials_exactly_once(self, monkeypatch):
        attempts = []

        def refusing(address, timeout=None):
            attempts.append(address)
            raise ConnectionRefusedError("down")

        monkeypatch.setattr(socket, "create_connection", refusing)
        with pytest.raises(OSError):
            TcpTransport("127.0.0.1", 1, retry=RetryPolicy(max_attempts=1))
        assert len(attempts) == 1

    def test_exhausted_retries_kill_a_spawned_daemon(self, monkeypatch):
        # A dial that never opened must not strand the daemon process this
        # transport was handed ownership of.
        class _FakeProcess:
            def __init__(self):
                self.killed = False

            def kill(self):
                self.killed = True

            def poll(self):
                return 1 if self.killed else None

        def refusing(address, timeout=None):
            raise ConnectionRefusedError("down")

        monkeypatch.setattr(socket, "create_connection", refusing)
        process = _FakeProcess()
        with pytest.raises(OSError):
            TcpTransport("127.0.0.1", 1, process=process,
                         retry=RetryPolicy(max_attempts=2, base_delay=0.0,
                                           jitter=0.0))
        assert process.killed

    def test_restarted_daemon_is_redialed_on_the_next_stream(self):
        # The S1 regression: kill a daemon, restart it on the same port —
        # the engine's next stream must redial (with backoff riding out the
        # restart window) and produce byte-identical rows.
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        process, host, port = _start_listening_daemon()
        try:
            with ShardedEngine.connect([f"{host}:{port}"]) as engine:
                first = _rows_of(engine.imap_chunks(
                    runner, iter_chunks(video, spec), context))
                process.kill()
                process.wait()
                process, _, _ = _start_listening_daemon(port)
                second = _rows_of(engine.imap_chunks(
                    runner, iter_chunks(video, spec), context))
            assert repr(second) == repr(first)
        finally:
            process.kill()
            process.wait()


def _start_listening_daemon(port: int = 0):
    """Spawn a --listen daemon; returns (process, host, bound_port)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.core.remote", "--listen",
         f"127.0.0.1:{port}"],
        stdout=subprocess.PIPE, env=_worker_env(), text=True)
    marker, host, bound = process.stdout.readline().strip().split()
    assert marker == _LISTENING_MARKER
    return process, host, int(bound)


class TestDaemonMode:
    def test_spawned_daemon_answers_pings(self):
        transport = spawn_local_daemon()
        try:
            transport.write({"type": "ping", "token": 3})
            assert transport.read() == {"type": "pong", "token": 3}
            assert transport.is_alive()
        finally:
            transport.close()
        assert not transport.is_alive()

    def test_listen_announces_host_and_port(self):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.core.remote", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, env=_worker_env(), text=True)
        try:
            line = process.stdout.readline().strip()
            marker, host, port = line.split()
            assert marker == _LISTENING_MARKER
            assert host == "127.0.0.1"
            transport = TcpTransport(host, int(port))
            transport.write({"type": "ping", "token": 9})
            assert transport.read() == {"type": "pong", "token": 9}
            transport.close()
        finally:
            process.kill()
            process.wait()

    def test_sigterm_drains_idle_daemon_to_clean_exit(self):
        # Orchestrators stop daemons with SIGTERM; an idle daemon must
        # close its connections cleanly (EOF, not a torn stream) and exit 0.
        process, host, port = _start_listening_daemon()
        try:
            transport = TcpTransport(host, port)
            transport.write({"type": "ping", "token": 7})
            assert transport.read() == {"type": "pong", "token": 7}
            process.send_signal(signal.SIGTERM)
            assert transport.read() is None  # clean EOF, no exception
            assert process.wait(timeout=10) == 0
            transport.kill()
        finally:
            process.kill()
            process.wait()

    def test_sigterm_answers_accepted_tasks_before_exit(self):
        # The graceful-drain contract: every task frame the daemon accepted
        # before SIGTERM gets its reply frame (here: error frames for a
        # bogus payload) before the stream closes — a coordinator mid-task
        # is answered, never torn.
        process, host, port = _start_listening_daemon()
        try:
            transport = TcpTransport(host, port)
            for seq in (1, 2, 3):
                transport.write({"type": "task", "seq": seq,
                                 "payload": "/nonexistent-payload",
                                 "specs": []})
            time.sleep(0.2)  # let the read loop enqueue the frames
            process.send_signal(signal.SIGTERM)
            answered = set()
            while True:
                frame = transport.read()
                if frame is None:
                    break
                assert frame["type"] == "error"
                answered.add(frame["seq"])
            assert answered == {1, 2, 3}
            assert process.wait(timeout=10) == 0
            transport.kill()
        finally:
            process.kill()
            process.wait()

    def test_daemon_serves_connections_back_to_back(self):
        # A daemon outlives any one coordinator: a second connection after
        # the first closed must be served by the same process.
        transport = spawn_local_daemon()
        daemon = transport.process
        host, port = "127.0.0.1", transport.port
        try:
            transport.write({"type": "ping", "token": 1})
            assert transport.read()["token"] == 1
            transport._teardown()  # drop the connection, keep the daemon
            again = TcpTransport(host, port)
            again.write({"type": "ping", "token": 2})
            assert again.read()["token"] == 2
            again.kill()
        finally:
            daemon.kill()
            daemon.wait()


class TestTcpSpecs:
    def test_tcp_spec_builds_local_daemon_engine(self):
        engine = create_engine("sharded:tcp:2")
        assert isinstance(engine, ShardedEngine)
        assert engine.num_shards == 2
        engine.shutdown()  # daemons are spawned lazily; nothing to kill yet

    def test_address_spec_builds_connect_engine(self):
        # Construction parses eagerly but dials lazily, so unreachable
        # addresses are fine until first use.
        engine = create_engine("sharded:hosta:9101,hostb:9101")
        assert isinstance(engine, ShardedEngine)
        assert engine.num_shards == 2
        engine.shutdown()

    def test_invalid_tcp_specs_are_rejected(self):
        with pytest.raises(ValueError):
            create_engine("sharded:tcp:zero-ish")
        with pytest.raises(ValueError):
            create_engine("sharded:tcp:0")
        with pytest.raises(ValueError):
            create_engine("sharded:justahost")  # no port
        with pytest.raises(ValueError):
            ShardedEngine.connect([])

    def test_transport_list_fixes_shard_count(self):
        with pytest.raises(ValueError):
            ShardedEngine(num_shards=3, transports=[spawn_local_daemon] * 2)
        with pytest.raises(ValueError):
            ShardedEngine(transports=[])


@pytest.fixture(scope="module")
def tcp_pool():
    """One persistent two-daemon TCP engine reused across the sweep tests."""
    with ShardedEngine.local_tcp(2) as engine:
        yield engine
    # shutdown() removed the payload files every stream above published.
    assert not os.path.exists(engine._publisher._directory)


class TestTcpParity:
    def test_stream_byte_identical_to_serial(self, tcp_pool):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        reference = _rows_of(SerialEngine().map_chunks(
            runner, list(iter_chunks(video, spec)), context))
        tcp = _rows_of(tcp_pool.imap_chunks(runner, iter_chunks(video, spec),
                                            context))
        assert repr(tcp) == repr(reference)

    def test_repeat_stream_reuses_the_payload_files(self, tcp_pool, footage_pickles):
        # Daemons may live on another host, so they get files, never
        # segments — published once and kept until the engine shuts down.
        video = _walker_video()
        runner, context = _runner(), _context(video)
        before = tcp_pool.dispatch_stats_dict()
        first = _rows_of(tcp_pool.imap_chunks(runner, iter_chunks(video, TEN_CHUNKS),
                                              context))
        files = sorted(os.listdir(tcp_pool._publisher._directory))
        second = _rows_of(tcp_pool.imap_chunks(runner, iter_chunks(video, TEN_CHUNKS),
                                               context))
        after = tcp_pool.dispatch_stats_dict()
        assert repr(first) == repr(second)
        assert footage_pickles == [video.name]
        assert sorted(os.listdir(tcp_pool._publisher._directory)) == files
        assert {name: after[name] - before[name] for name in
                ("broadcasts", "broadcast_reuses", "shm_segments")} \
            == {"broadcasts": 2, "broadcast_reuses": 2, "shm_segments": 0}
        assert after["stages"]["loads"] - before["stages"].get("loads", 0) == 2

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_scenario_scene_byte_identical_to_serial(self, name, tcp_pool):
        """Every scenario scene: TCP-sharded releases == serial, exactly."""
        if name in ("campus", "highway", "urban"):
            scenario = build_scenario(name, scale=0.2, duration_hours=0.1)
        else:
            scenario = build_scenario(name, duration_hours=0.1)
        policy_map = scenario_policy_map(scenario, k_segments=1)
        window = min(scenario.video.duration, 360.0)
        query = (QueryBuilder(f"tcp-{name}")
                 .split(scenario.name, begin=0, end=window,
                        chunk_duration=30.0, mask="owner", into="chunks")
                 .process("chunks", executable="count_entering_people.py",
                          max_rows=5,
                          schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0)],
                          into="t")
                 .select_count(table="t", bucket_seconds=120.0, epsilon=1.0)
                 .build())
        results = {}
        for label, engine in (("serial", None), ("tcp", tcp_pool)):
            system = PrividSystem(seed=11, engine=engine)
            register_scenario_camera(system, scenario, policy_map=policy_map,
                                     epsilon_budget=100.0, sample_period=1.0)
            results[label] = system.execute(query, charge_budget=False)
        assert repr(results["tcp"].raw_series_unsafe()) \
            == repr(results["serial"].raw_series_unsafe())
        assert repr(results["tcp"].series()) == repr(results["serial"].series())


class TestTcpFaultInjection:
    def test_daemon_killed_mid_sweep_is_byte_identical(self):
        video = _walker_video(num_walkers=8, duration=1200.0)
        spec = ChunkSpec(window=TimeInterval(0, 1200), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        reference = _rows_of(SerialEngine().map_chunks(
            runner, list(iter_chunks(video, spec)), context))
        with ShardedEngine.local_tcp(3, chunksize=1) as engine:
            outcomes = []
            stream = engine.imap_chunks(runner, iter_chunks(video, spec), context)
            outcomes.append(next(stream))
            # Kill the daemon process behind a shard that holds work: the
            # socket EOF (or heartbeat) must get its tasks reassigned.
            victim = next((shard for shard in engine._live_shards() if shard.pending),
                          engine._live_shards()[0])
            victim.process.kill()
            outcomes.extend(stream)
        assert repr(_rows_of(outcomes)) == repr(reference)
        assert len(outcomes) == 20

    def test_dead_daemon_slot_is_refilled_on_the_next_stream(self):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        runner, context = _runner(), _context(video)
        with ShardedEngine.local_tcp(2) as engine:
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
