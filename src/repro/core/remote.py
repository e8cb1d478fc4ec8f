"""Sharded chunk execution behind the engine seam.

Privid chunks are independent units of work (Appendix B), so the streaming
engine contract of :mod:`repro.core.engine` — ``imap_chunks`` over an ordered
chunk stream — is exactly the seam a *distributed* executor plugs into.  This
module provides :class:`ShardedEngine`: a coordinator that partitions a
query's chunk stream across N executor *shards* and merges ordered results
back through the same contract, so ``PrividSystem(engine="sharded:4")``
behaves byte-for-byte like ``engine="serial"`` (the hashing determinism
contract makes chunk results order- and placement-independent; see
``docs/architecture.md``).

Each shard speaks a small length-prefixed JSON protocol over a
:class:`ShardTransport` — the byte-stream seam between the coordinator and
one executor worker.  One transport ships, :class:`SocketTransport`, and one
way to get it: :meth:`SocketTransport.spawn` makes a ``socketpair()`` and
starts this module's worker (``python -m repro.core.remote --fd N``) on the
child end (``sharded[:N]``; ``process``, ``thread`` and ``sharded:tcp`` are
older names).  Shards live and die with the coordinator, and nothing here
opens, binds or dials a network socket.

Wire protocol
=============

Every frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding one object (:func:`encode_frame` /
:func:`read_frame`).  Messages are typed by their ``"type"`` key:

Coordinator -> shard:

``{"type": "task", "seq": S, "payload": REF, "specs": [SPEC, ...]}``
    Execute a batch of chunks.  ``seq`` is a coordinator-unique task id,
    ``payload`` the ref (``shm:NAME`` segment or file path) of the stream's
    manifest from the engine's :class:`~repro.core.engine._BroadcastPublisher`
    (runner, context, masks, regions; footage named by ref to its own
    part), and each ``SPEC`` a compact per-chunk message —
    ``[video_ref, index, start, end, mask_ref, region_ref, sample_period]``
    (:data:`~repro.core.engine.ChunkSpecMessage`), so per-task IPC stays at
    a few ints and floats per chunk.
``{"type": "ping", "token": T}``
    Heartbeat probe; the shard echoes the token back as a ``pong``.
``{"type": "shutdown"}``
    Exit the worker loop (EOF on the socket has the same effect).

Shard -> coordinator:

``{"type": "result", "seq": S, "outcomes": [{"rows": [...], "fallback": F},
...], "stages": {...}}``
    One outcome per spec of task ``S``, in spec order; a frame with any
    other number of outcomes is handled as an ``error`` for ``S``.  Rows are
    the schema-coerced row dicts (JSON-safe by construction — the on-disk
    store serializes the very same shape); ``fallback`` marks crash/timeout
    default rows.  ``stages`` (optional) is where the task's seconds went on
    the shard — ``load_s`` (payload decode) and ``execute_s`` — plus
    ``loads``, 1 when the manifest had to be decoded; summed per shard,
    never acted on.
``{"type": "pong", "token": T}``
    Heartbeat reply.
``{"type": "error", "seq": S, "message": TEXT}``
    Task ``S`` failed at the protocol level (e.g. an unreadable payload
    file).  Executable crashes never surface here — the sandbox converts
    those to fallback rows inside a normal ``result``.

Shards never open the chunk result store: the coordinator looks every
chunk up before dispatch and writes every result it receives
(:meth:`~repro.sandbox.environment.SandboxRunner.iter_chunk_rows`), so a
shard only executes.

Fault tolerance
===============

The coordinator applies results *at most once*: a task is retired the moment
its first well-formed ``result`` frame arrives, and any later frame for the
same ``seq`` (a reassigned task whose original shard turned out to be merely
slow) is dropped.  Workers answer pings from a dedicated read loop while tasks
execute on a separate thread, so a *busy* shard never reads as *dead*:
silence past ``heartbeat_timeout`` while holding work genuinely means
frozen or gone, and such a shard is killed and its pending tasks
redispatched to the survivors, each task at most ``max_task_retries`` times
(exhaustion is routed to the stream that owns the task, never raised into
an unrelated stream that happened to be pumping).  Results stay
byte-identical because chunk outputs are deterministic functions of the
chunk, never of placement.  Dead shards are replaced at the start of the
next stream, not mid-stream.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import socket
import struct
import subprocess
import sys
import threading
import time
import traceback
import warnings
from collections import deque
from itertools import chain
from typing import TYPE_CHECKING, Any, BinaryIO, Callable, Iterable, Iterator, \
    Protocol, Sized, runtime_checkable

import repro
from repro.core.engine import (
    ChunkOutcome,
    ChunkSpecMessage,
    DispatchStats,
    _BroadcastPublisher,
    _fetch_payload,
    _StreamBroadcast,
    chunk_from_spec,
    execute_chunk,
)
from repro.core.faults import FaultInjector, faulty_transport_factory
from repro.core.resilience import CircuitBreaker
from repro.errors import RemoteShardError
from repro.utils import checks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sandbox.environment import ExecutionContext, SandboxRunner
    from repro.video.chunking import Chunk


def _env_float(name: str, default: float) -> float:
    """A finite positive float from the environment, or ``default``.

    ``PRIVID_HEARTBEAT_TIMEOUT`` / ``PRIVID_STARTUP_GRACE`` let slow CI
    runners widen the failure-detection windows without touching code.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return checks.real(name, float(raw), ValueError, above=0)
    except ValueError as exc:
        warnings.warn(f"ignoring {name}={raw!r}: {exc}", RuntimeWarning, stacklevel=2)
        return default


def _default_workers() -> int:
    return max(2, (os.cpu_count() or 2))

# --------------------------------------------------------------------- frames

_FRAME_HEADER = struct.Struct(">I")

#: Upper bound on a single frame body; a corrupt length prefix must never
#: make a reader try to allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def encode_frame(message: dict[str, Any]) -> bytes:
    """Serialize one protocol message to its length-prefixed wire form."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise RemoteShardError(
            f"protocol frame of {len(body)} bytes exceeds MAX_FRAME_BYTES")
    return _FRAME_HEADER.pack(len(body)) + body


def _read_exact(stream: BinaryIO, count: int) -> bytes | None:
    """Read exactly ``count`` bytes, or None on a clean/torn EOF."""
    data = b""
    while len(data) < count:
        piece = stream.read(count - len(data))
        if not piece:
            return None
        data += piece
    return data


def read_frame(stream: BinaryIO) -> dict[str, Any] | None:
    """Read one length-prefixed JSON frame; None on EOF (or a torn stream)."""
    header = _read_exact(stream, _FRAME_HEADER.size)
    if header is None:
        return None
    (length,) = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise RemoteShardError(f"frame length {length} exceeds MAX_FRAME_BYTES")
    body = _read_exact(stream, length)
    if body is None:
        return None
    return json.loads(body.decode("utf-8"))


def write_frame(stream: BinaryIO, message: dict[str, Any]) -> int:
    """Write one frame and flush; returns the number of bytes written."""
    data = encode_frame(message)
    stream.write(data)
    stream.flush()
    return len(data)


# ----------------------------------------------------------------- transports


def _worker_env() -> dict[str, str]:
    """Environment for a spawned worker: this library importable on PYTHONPATH."""
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root + (os.pathsep + existing if existing else "")
    return env


def _worker_command(fd: int) -> list[str]:
    """Command line of a local worker serving the socket on inherited ``fd``.

    -c rather than -m: runpy would run this module as ``__main__``, and
    anything that later imports ``repro.core.remote`` by name would load a
    second copy.
    """
    return [sys.executable, "-c", "from repro.core.remote import main; main()",
            "--fd", str(fd)]


@runtime_checkable
class ShardTransport(Protocol):
    """The byte-stream seam between the coordinator and one shard worker.

    A transport moves whole protocol frames in both directions and answers
    liveness questions about its far end; everything above it — dispatch,
    heartbeats, reassignment, at-most-once application — is
    transport-agnostic.  ``read`` blocks until a frame arrives and returns
    None on a clean or torn EOF (worker exit, socket disconnect); ``write``
    raises :class:`OSError` when the far end is gone.  ``process`` is the
    worker subprocess when this transport owns one, and None otherwise (a
    test double, or a bare socket end).
    """

    description: str
    process: subprocess.Popen | None

    def read(self) -> dict[str, Any] | None:
        """Blocking read of one frame; None once the stream is finished."""
        ...  # pragma: no cover - protocol

    def write(self, message: dict[str, Any]) -> int:
        """Send one frame; returns its wire bytes, raises OSError when dead."""
        ...  # pragma: no cover - protocol

    def is_alive(self) -> bool:
        """Cheap non-blocking liveness probe (no I/O beyond a process poll)."""
        ...  # pragma: no cover - protocol

    def kill(self) -> None:
        """Force-terminate the far end (or at least this connection to it)."""
        ...  # pragma: no cover - protocol

    def close(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: ask the worker to exit, escalate after timeout."""
        ...  # pragma: no cover - protocol


class SocketTransport:
    """A shard worker at the far end of one connected stream socket.

    :meth:`spawn` starts a local worker over a ``socketpair()`` and owns its
    process.  Socket errors on read surface as EOF, so a vanished worker
    and a torn socket reach the layers above through the same death path.
    ``kill`` severs the connection and, when there is one, kills and reaps
    the worker.
    """

    def __init__(self, sock: socket.socket, description: str,
                 process: subprocess.Popen | None = None) -> None:
        self.description = description
        self.process = process
        self._sock = sock
        self._closed = False
        self._rfile: BinaryIO = sock.makefile("rb")
        self._wfile: BinaryIO = sock.makefile("wb")

    @classmethod
    def spawn(cls) -> "SocketTransport":
        """Start a local worker on the child end of a fresh socketpair."""
        ours, theirs = socket.socketpair()
        try:
            process = subprocess.Popen(
                _worker_command(theirs.fileno()), pass_fds=(theirs.fileno(),),
                stdin=subprocess.DEVNULL, env=_worker_env())
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()  # the worker's now: its exit must read as our EOF
        return cls(ours, f"local:pid={process.pid}", process)

    def read(self) -> dict[str, Any] | None:
        try:
            return read_frame(self._rfile)
        except (OSError, ValueError):
            # A reset or locally closed socket reads as EOF: the coordinator
            # handles both through the same death path.
            return None

    def write(self, message: dict[str, Any]) -> int:
        try:
            return write_frame(self._wfile, message)
        except ValueError:
            if self._closed:  # to the caller, a killed transport is a dead one
                raise OSError("transport is closed") from None
            raise

    def is_alive(self) -> bool:
        return not self._closed and (self.process is None
                                     or self.process.poll() is None)

    def _teardown(self) -> None:
        self._closed = True
        # Shut down first: it ends a reader thread's blocked recv, which
        # closing the buffered reader would otherwise wait out.
        for close in (lambda: self._sock.shutdown(socket.SHUT_RDWR),
                      self._wfile.close, self._rfile.close, self._sock.close):
            try:
                close()
            except OSError:
                pass

    def kill(self) -> None:
        self._teardown()
        if self.process is not None:
            try:
                self.process.kill()
            except OSError:
                pass
            self.process.wait()

    def close(self, timeout: float = 5.0) -> None:
        try:
            self.write({"type": "shutdown"})
        except (OSError, ValueError):
            pass
        if self.process is not None:
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._teardown()


# --------------------------------------------------------------- shard worker


def _handle_task(message: dict[str, Any]) -> dict[str, Any]:
    """Execute one task frame and build its result frame (the engine-side
    unit of work, ``execute_chunk``, once per spec)."""
    clock = time.perf_counter
    started = clock()
    payload, decoded = _fetch_payload(message["payload"])
    loaded = clock()
    runner = payload["runner"]
    context = payload["context"]
    objects = payload["objects"]
    outcomes: list[dict[str, Any]] = []
    for spec in message["specs"]:
        outcome = execute_chunk(runner, chunk_from_spec(objects, spec), context)
        outcomes.append({"rows": [dict(row) for row in outcome.rows],
                         "fallback": outcome.fallback})
    stages = {"loads": int(decoded), "load_s": loaded - started,
              "execute_s": clock() - loaded}
    return {"type": "result", "seq": message["seq"], "outcomes": outcomes,
            "stages": stages}


def serve(rfile: BinaryIO, wfile: BinaryIO) -> None:
    """The shard worker loop: read frames, execute tasks, write frames.

    Runs until ``shutdown`` or EOF.  Tasks execute on a separate thread so
    the read loop keeps answering heartbeat pings while a long batch runs —
    a busy shard must look *busy*, not *dead*, or the coordinator would
    kill healthy workers whenever one task outlives ``heartbeat_timeout``.
    Task failures are reported as ``error`` frames and the loop keeps
    serving — a bad payload path must not take the whole shard down with
    it.  Unknown message types are ignored so older workers tolerate newer
    coordinators.
    """
    write_lock = threading.Lock()
    tasks: "queue.Queue[dict[str, Any] | None]" = queue.Queue()

    def send(message: dict[str, Any]) -> None:
        with write_lock:
            write_frame(wfile, message)

    def execute_loop() -> None:
        while True:
            message = tasks.get()
            if message is None:
                return
            try:
                reply = _handle_task(message)
            except Exception:
                reply = {"type": "error", "seq": message.get("seq"),
                         "message": traceback.format_exc(limit=20)}
            try:
                send(reply)
            except Exception:
                # The reply itself could not be serialized or written (e.g.
                # a result frame over MAX_FRAME_BYTES).  Report it as a task
                # error so the coordinator can retry/fail the seq; if even
                # that fails the socket is gone — exit so the coordinator
                # sees EOF and reassigns, rather than hanging behind a read
                # loop that keeps answering pings.
                try:
                    send({"type": "error", "seq": message.get("seq"),
                          "message":
                          "shard could not send its result frame:\n"
                          + traceback.format_exc(limit=5)})
                except Exception:
                    os._exit(1)

    executor = threading.Thread(target=execute_loop, name="privid-shard-executor",
                                daemon=True)
    executor.start()
    try:
        while True:
            message = read_frame(rfile)
            if message is None:
                return
            kind = message.get("type")
            if kind == "shutdown":
                return
            if kind == "ping":
                send({"type": "pong", "token": message.get("token")})
            elif kind == "task":
                tasks.put(message)
    finally:
        tasks.put(None)
        executor.join(timeout=5.0)


def _stdout_to_stderr() -> None:
    """Point fd 1 (and ``sys.stdout``) at stderr: what a shard's executables
    print must reach neither the coordinator's stdout nor a pipe nobody reads."""
    sys.stdout.flush()
    os.dup2(2, 1)
    sys.stdout = sys.stderr


def main(argv: list[str] | None = None) -> None:
    """Entrypoint of ``python -m repro.core.remote`` (one shard worker).

    ``--fd N`` serves the coordinator over the connected socket inherited
    as fd N (started by :meth:`SocketTransport.spawn`) until it ends, with
    fd 1 pointing at stderr.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.remote",
        description="Privid executor shard: a local worker serving its "
                    "coordinator over an inherited socket.")
    parser.add_argument("--fd", type=int, required=True,
                        help="serve the coordinator over this inherited, "
                             "connected socket")
    args = parser.parse_args(argv)
    _stdout_to_stderr()
    connection = socket.socket(fileno=args.fd)
    rfile = connection.makefile("rb")
    wfile = connection.makefile("wb")
    try:
        serve(rfile, wfile)
    except OSError:
        pass
    finally:
        for close in (wfile.close, rfile.close, connection.close):
            try:
                close()
            except OSError:
                pass


# --------------------------------------------------------------- coordinator


class _ShardTask:
    """One dispatched task: a spec batch awaiting its result."""

    __slots__ = ("seq", "specs", "payload_ref", "num_chunks", "shard_id",
                 "attempts", "dispatched_at")

    def __init__(self, seq: int, specs: list[ChunkSpecMessage], payload_ref: str,
                 num_chunks: int) -> None:
        self.seq = seq
        self.specs = specs
        self.payload_ref = payload_ref
        self.num_chunks = num_chunks
        self.shard_id: int | None = None
        self.attempts = 0
        self.dispatched_at: float | None = None


class _Shard:
    """One executor shard: a :class:`ShardTransport` plus its reader thread.

    The reader thread decodes frames off the transport into the engine-wide
    inbox queue as ``(shard_id, message)`` pairs, pushing ``(shard_id,
    None)`` once on EOF so the coordinator observes death in the same
    mailbox as results.  Sending happens only under the engine lock, so
    writes need no lock of their own.  ``slot`` is the index of the
    transport factory this shard fills.
    """

    def __init__(self, shard_id: int, transport: ShardTransport,
                 inbox: "queue.Queue[tuple[int, Any]]", stats: DispatchStats,
                 *, slot: int) -> None:
        self.id = shard_id
        self.slot = slot
        self.transport = transport
        self.stats = stats
        self.pending: dict[int, _ShardTask] = {}
        self.last_seen = time.monotonic()
        self.alive = True
        #: False until the first frame arrives: a worker importing its
        #: dependencies cannot answer pings yet, so silence before the
        #: first frame is judged against the (longer) startup grace.
        self.started = False
        self._reader = threading.Thread(target=self._read_loop, args=(inbox,),
                                        name=f"privid-shard-{shard_id}-reader",
                                        daemon=True)
        self._reader.start()

    @property
    def process(self) -> subprocess.Popen | None:
        """The worker subprocess, when this shard's transport owns one."""
        return self.transport.process

    def _read_loop(self, inbox: "queue.Queue[tuple[int, Any]]") -> None:
        try:
            while True:
                message = self.transport.read()
                if message is None:
                    break
                inbox.put((self.id, message))
        except Exception:
            pass
        inbox.put((self.id, None))

    def send(self, message: dict[str, Any]) -> int:
        """Write one frame to the shard; returns the frame's wire bytes."""
        return self.transport.write(message)

    def close(self, timeout: float = 5.0) -> None:
        """Ask the worker to exit, escalating to kill after ``timeout``."""
        self.alive = False
        self.transport.close(timeout)
        self._reader.join(timeout=1.0)


#: Adaptive per-task batch cap: batches amortize framing, but every chunk in
#: a batch shares its task's fate on reassignment, so batches stay small.
_MAX_SHARDED_CHUNKSIZE = 8


class ShardedEngine:
    """Partitions chunk streams across N executor shards (``sharded:...``).

    Implements the :class:`~repro.core.engine.ExecutionEngine` protocol: an
    ordered streaming ``imap_chunks`` with a bounded in-flight window.  Work
    is dispatched to the least-loaded live shard as compact spec batches
    (the heavy constants travel out of band, footage once per state, through
    the engine's :class:`~repro.core.engine._BroadcastPublisher`); results
    are merged back in dispatch order, so consumers cannot tell it from the
    serial engine.

    Shards sit behind the :class:`ShardTransport` seam, one per *slot*: a
    transport factory with its own circuit breaker.  Every slot spawns a
    local worker over a socketpair (:meth:`SocketTransport.spawn`) unless
    the ``transports`` list names its factories.

    Shards are opened lazily on first use and persist across queries;
    :meth:`shutdown` (or the context manager form) terminates them.  A dead
    shard's slot is refilled at the start of the next stream (its worker
    respawns); a slot that cannot be filled is skipped with a warning as
    long as at least one shard remains.  ``heartbeat_interval`` /
    ``heartbeat_timeout`` bound how long a silent shard holding work
    survives before its tasks are reassigned — workers answer pings while
    executing, so only a frozen or vanished shard ever reads as silent, and
    a shard that has not yet produced its first frame (still importing its
    dependencies) is judged against the longer ``startup_grace``;
    ``max_task_retries`` bounds redispatches per task before *the stream
    that owns the task* fails with :class:`~repro.errors.RemoteShardError`.

    ``chunksize`` fixes the per-task spec batch.  The default adapts: with a
    ``count_hint``, ``count_hint // (4 * shards)`` capped at 8 (small
    because a whole batch is redispatched when its shard dies); with none — every stream a store classifies, since only the
    misses reach the engine and their number is unknowable — the batch
    *ramps*: one chunk per task, doubled each time every shard has been
    handed one at the current size, up to the same cap (1,1,2,2,4,4,8,8 on
    two shards), so a few scattered misses still spread over the shards and
    a cold window is not one frame per chunk.  ``in_flight_window`` bounds
    chunks materialized-but-unyielded (default ``2 x shards x batch``; a
    task goes out only when a whole batch fits, and a ramp stops where
    ``2 x shards`` tasks fill a given window).

    The engine supports several *interleaved* streams (the executor
    round-robins PROCESS statements) and, since the service layer, several
    *concurrent* streams driven from different threads: task/result
    bookkeeping is engine-wide, keyed by a monotonically unique ``seq`` and
    guarded by one engine lock, so frames arriving while another stream's
    generator is being pumped — on this thread or any other — are parked
    until their owner looks them up.  The lock is never held while blocking
    on the inbox, so concurrent streams make progress independently.
    """

    def __init__(self, num_shards: int | None = None, *,
                 transports: "list[Callable[[], ShardTransport]] | None" = None,
                 chunksize: int | None = None,
                 in_flight_window: int | None = None,
                 heartbeat_interval: float = 0.5,
                 heartbeat_timeout: float | None = None,
                 startup_grace: float | None = None,
                 max_task_retries: int = 3,
                 task_timeout: float | None = None,
                 breaker_threshold: int = 3,
                 breaker_reset: float = 10.0,
                 fault_injector: "FaultInjector | None" = None) -> None:
        if transports is not None:
            if not transports:
                raise ValueError("transports must not be empty")
            if num_shards is not None and num_shards != len(transports):
                raise ValueError("num_shards must match the transport list")
            num_shards = len(transports)
        elif num_shards is None:
            num_shards = _default_workers()
        checks.count("num_shards", num_shards, ValueError, 1)
        self.num_shards = num_shards
        # The failure-detection windows default from the environment
        # (PRIVID_HEARTBEAT_TIMEOUT / PRIVID_STARTUP_GRACE) so slow CI
        # runners can widen them without code changes; explicit arguments
        # win over the environment.
        if heartbeat_timeout is None:
            heartbeat_timeout = _env_float("PRIVID_HEARTBEAT_TIMEOUT", 10.0)
        if startup_grace is None:
            startup_grace = _env_float("PRIVID_STARTUP_GRACE", 60.0)
        self.name = "sharded"
        #: One transport factory per slot; slot N's breaker is ``slotN``.
        self._factories: list[Callable[[], ShardTransport]] = list(
            transports or [SocketTransport.spawn] * num_shards)
        self.chunksize = chunksize
        self.in_flight_window = in_flight_window
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.startup_grace = startup_grace
        self.max_task_retries = max_task_retries
        #: Optional stall detector: a dispatched task whose result has not
        #: arrived within this many seconds is redispatched to another shard
        #: (at-most-once application makes the duplicate execution safe).
        #: None (the default) disables it — heartbeats already catch dead
        #: and frozen shards; this additionally catches a *lost frame* on an
        #: otherwise-healthy connection, at the cost of duplicated work when
        #: set lower than a batch's genuine runtime.
        self.task_timeout = task_timeout
        #: Per-slot circuit breakers (keyed ``slotN``), consulted before
        #: every spawn: a slot that failed ``breaker_threshold`` consecutive
        #: times is skipped without trying until ``breaker_reset`` seconds
        #: pass, then probed half-open.  States surface in
        #: ``dispatch_stats_dict``/``health``.
        self.breaker_threshold = breaker_threshold
        self.breaker_reset = breaker_reset
        for name in ("chunksize", "in_flight_window", "breaker_threshold"):
            if getattr(self, name) is not None:
                checks.count(name, getattr(self, name), ValueError, 1)
        checks.count("max_task_retries", max_task_retries, ValueError)
        for name in ("heartbeat_interval", "heartbeat_timeout", "startup_grace",
                     "task_timeout", "breaker_reset"):
            if getattr(self, name) is not None:
                checks.real(name, getattr(self, name), ValueError, above=0)
        self._breakers: dict[str, CircuitBreaker] = {}
        #: Optional chaos seam: when set (constructor or
        #: :meth:`set_fault_injector`, before first use), every transport
        #: this engine opens is wrapped in a
        #: :class:`~repro.core.faults.FaultyTransport` and connects are
        #: polled against the plan.
        self._fault_injector = fault_injector
        #: Engine-wide IPC accounting (every task frame sent to any shard).
        self.dispatch_stats = DispatchStats()
        self._shard_stats: dict[int, DispatchStats] = {}
        self._shards: dict[int, _Shard] = {}
        self._inbox: "queue.Queue[tuple[int, Any]]" = queue.Queue()
        #: Guards every piece of engine-wide state above and below: the
        #: shard table, seq allocation, dispatch, and the ready/failed
        #: parking maps.  Concurrent streams (service-layer queries driven
        #: from different threads) interleave safely because each takes the
        #: lock per step and blocks on the inbox *outside* it.
        self._lock = threading.RLock()
        self._next_shard_id = 0
        self._next_seq = 0
        self._next_ping = 0
        self._tasks: dict[int, _ShardTask] = {}
        self._ready: dict[int, list[ChunkOutcome]] = {}
        #: seq -> failure reason for tasks that exhausted their retries; the
        #: stream that owns the seq raises when it reaches it, so a failure
        #: never propagates into whichever stream happened to be pumping.
        self._failed: dict[int, str] = {}
        self._publisher = _BroadcastPublisher()

    # ------------------------------------------------------------- shard pool

    def _spawn_shard(self, slot: int) -> _Shard | None:
        """Fill one slot (spawn its worker); None if that failed.

        Every slot sits behind its own circuit breaker: after
        ``breaker_threshold`` consecutive spawn failures the slot is
        skipped without trying until ``breaker_reset`` passes, then a
        single half-open probe decides.  With a fault injector installed,
        the transport factory is additionally routed through the plan
        (connect faults at ``transport.worker{N}``, N counting the shards
        opened so far, so a replacement is a new site with fresh counters)
        and the built transport wrapped for frame faults.
        """
        label = f"slot{slot}"
        factory = self._factories[slot]
        breaker = self._breakers.get(label)
        if breaker is None:
            breaker = CircuitBreaker(failure_threshold=self.breaker_threshold,
                                     reset_timeout=self.breaker_reset)
            self._breakers[label] = breaker
        if not breaker.allow():
            warnings.warn(f"shard {label!r} skipped: circuit breaker "
                          "open after repeated failures",
                          RuntimeWarning, stacklevel=2)
            return None
        if self._fault_injector is not None:
            factory = faulty_transport_factory(
                factory, self._fault_injector,
                f"transport.worker{self._next_shard_id}")
        try:
            transport = factory()
        except OSError as exc:
            breaker.record_failure()
            warnings.warn(f"shard slot {slot} is unreachable: {exc}",
                          RuntimeWarning, stacklevel=2)
            return None
        breaker.record_success()
        shard_id = self._next_shard_id
        self._next_shard_id += 1
        stats = self._shard_stats.setdefault(shard_id, DispatchStats())
        shard = _Shard(shard_id, transport, self._inbox, stats, slot=slot)
        self._shards[shard_id] = shard
        return shard

    def _ensure_shards(self) -> None:
        """Refill every empty slot once (stream start).

        A slot that cannot be filled right now is skipped — its work lands
        on the survivors — and tried again at the next stream start.
        """
        # Fold in death notices that arrived between streams: a shard killed
        # after the previous stream finished has an EOF sitting in the inbox
        # (and a poll()-able exit) but may still be flagged alive.
        while True:
            try:
                shard_id, message = self._inbox.get_nowait()
            except queue.Empty:
                break
            self._handle_message(shard_id, message)
        for shard in list(self._shards.values()):
            if shard.alive and not shard.transport.is_alive():
                self._mark_dead(shard)
        for shard_id in [sid for sid, shard in self._shards.items() if not shard.alive]:
            del self._shards[shard_id]
        filled = {shard.slot for shard in self._live_shards()}
        for slot in range(self.num_shards):
            if slot not in filled:
                self._spawn_shard(slot)
        if not self._live_shards():
            raise RemoteShardError(
                f"no shard could be opened (all {self.num_shards} slots failed)")

    def _live_shards(self) -> list[_Shard]:
        return [shard for shard in self._shards.values() if shard.alive]

    # ------------------------------------------------------------ dispatching

    def _dispatch(self, task: _ShardTask, *, exclude: int | None = None) -> None:
        """Send a task to the least-loaded live shard (skipping ``exclude``)."""
        while True:
            candidates = [shard for shard in self._live_shards()
                          if shard.id != exclude]
            if not candidates:
                candidates = self._live_shards()  # only the excluded one left
            if not candidates:
                raise RemoteShardError(
                    f"no live shards remain to run task {task.seq} "
                    f"(attempt {task.attempts + 1})")
            shard = min(candidates, key=lambda entry: (len(entry.pending), entry.id))
            message = {"type": "task", "seq": task.seq,
                       "payload": task.payload_ref, "specs": task.specs}
            try:
                sent = shard.send(message)
            except OSError:
                self._mark_dead(shard)
                continue
            task.shard_id = shard.id
            task.dispatched_at = time.monotonic()
            shard.pending[task.seq] = task
            self._tasks[task.seq] = task
            shard.stats.record_dispatch(sent, task.num_chunks)
            self.dispatch_stats.record_dispatch(sent, task.num_chunks)
            return

    def _fail(self, task: _ShardTask, reason: str) -> None:
        """Retire a task as permanently failed (its owner raises on pickup)."""
        self._tasks.pop(task.seq, None)
        for shard in self._shards.values():
            shard.pending.pop(task.seq, None)
        self._failed[task.seq] = reason

    def _retry(self, task: _ShardTask, *, exclude: int | None, reason: str) -> None:
        task.attempts += 1
        if task.attempts > self.max_task_retries:
            self._fail(task, f"task {task.seq} failed {task.attempts} times; "
                             f"last shard {task.shard_id}: {reason}")
            return
        try:
            self._dispatch(task, exclude=exclude)
        except RemoteShardError as exc:
            # No shard left to run it on: fail this task (and let the loop
            # in _mark_dead keep redispatching or failing the rest) rather
            # than raising into an arbitrary pumping stream.
            self._fail(task, str(exc))

    def _mark_dead(self, shard: _Shard) -> None:
        """Retire a shard, releasing its transport (socket, and a local
        worker's process), and redispatch every task it still held."""
        if not shard.alive:
            return
        shard.alive = False
        shard.transport.kill()
        orphans = list(shard.pending.values())
        shard.pending.clear()
        for task in orphans:
            # The dead shard may have completed some of these without the
            # result reaching us; redispatching is safe because the first
            # result to arrive retires the seq and later ones are dropped.
            self._retry(task, exclude=shard.id, reason="shard died")

    # ------------------------------------------------------------- event loop

    def _handle_message(self, shard_id: int, message: Any) -> None:
        shard = self._shards.get(shard_id)
        if shard is None:
            return
        if message is None:  # reader saw EOF: the worker exited or was killed
            if shard.alive:
                self._mark_dead(shard)
            return
        shard.last_seen = time.monotonic()
        shard.started = True
        kind = message.get("type")
        task = self._tasks.get(message.get("seq"))
        if task is None:
            return  # no task (a pong), or a stale seq: at-most-once
        if kind == "result":
            outcomes = message.get("outcomes")
            count = len(outcomes) if isinstance(outcomes, list) else 0
            if count != task.num_chunks:
                # Applying it would shift rows onto the wrong chunks, which
                # the coordinator would then store under those chunks' keys.
                self._task_error(task, shard_id, f"result frame has {count} "
                                 f"outcomes for {task.num_chunks} chunks")
                return
            del self._tasks[task.seq]
            for entry in self._shards.values():
                entry.pending.pop(task.seq, None)
            shard.stats.record_stages(message.get("stages"))
            self.dispatch_stats.record_stages(message.get("stages"))
            self._ready[task.seq] = [
                ChunkOutcome(rows=outcome["rows"], fallback=bool(outcome["fallback"]))
                for outcome in outcomes]
        elif kind == "error":
            self._task_error(task, shard_id, str(message.get("message", "")).strip())

    def _task_error(self, task: _ShardTask, shard_id: int, reason: str) -> None:
        """Retry a task its shard could not answer, elsewhere.

        Only the task's *current* owner may fail it: a stale error from a
        previous owner (which died right after sending, with the task already
        redispatched) must not burn a retry or double-dispatch while the new
        owner's result is in flight.
        """
        if task.shard_id == shard_id:
            for entry in self._shards.values():
                entry.pending.pop(task.seq, None)
            self._retry(task, exclude=shard_id, reason=reason)

    def _heartbeat(self) -> None:
        """Probe silent shards; declare the unresponsive ones dead.

        With ``task_timeout`` set, additionally redispatches tasks whose
        result is overdue on a shard that still answers pings — the
        lost-frame stall (a dropped result or task frame leaves the shard
        healthy but the seq parked forever).  Duplicated execution is safe:
        the first result to arrive retires the seq.
        """
        now = time.monotonic()
        if self.task_timeout is not None:
            for shard in list(self._shards.values()):
                if not shard.alive:
                    continue
                overdue = [task for task in shard.pending.values()
                           if task.dispatched_at is not None
                           and now - task.dispatched_at > self.task_timeout]
                for task in overdue:
                    shard.pending.pop(task.seq, None)
                    self._retry(task, exclude=shard.id,
                                reason=f"no result within "
                                       f"task_timeout={self.task_timeout}s")
        for shard in list(self._shards.values()):
            if not shard.alive:
                continue
            if not shard.transport.is_alive():
                self._mark_dead(shard)
                continue
            silent = now - shard.last_seen
            limit = self.heartbeat_timeout if shard.started \
                else max(self.heartbeat_timeout, self.startup_grace)
            if shard.pending and silent > limit:
                self._mark_dead(shard)
            elif silent > self.heartbeat_interval:
                self._next_ping += 1
                try:
                    shard.send({"type": "ping", "token": self._next_ping})
                except OSError:
                    self._mark_dead(shard)

    def _pump(self) -> None:
        """Process the next inbox message, or run a heartbeat pass on silence.

        The blocking inbox read happens *outside* the engine lock so
        concurrent streams are never serialized behind one stream's wait;
        only the state mutation that follows is locked.
        """
        try:
            shard_id, message = self._inbox.get(timeout=self.heartbeat_interval)
        except queue.Empty:
            with self._lock:
                self._heartbeat()
            return
        with self._lock:
            self._handle_message(shard_id, message)

    # ----------------------------------------------------------- engine proto

    def _effective_chunksize(self, count_hint: int | None) -> int | None:
        """The stream's fixed per-task batch, or None when it should ramp."""
        if self.chunksize is not None:
            return self.chunksize
        if count_hint is None or count_hint <= 0:
            return None
        return max(1, min(_MAX_SHARDED_CHUNKSIZE,
                          count_hint // (4 * self.num_shards)))

    def _window(self, batch_size: int) -> int:
        if self.in_flight_window is not None:
            return max(self.in_flight_window, batch_size)
        return 2 * self.num_shards * batch_size

    def imap_chunks(self, runner: "SandboxRunner", chunks: Iterable["Chunk"],
                    context: "ExecutionContext", *,
                    count_hint: int | None = None) -> Iterator[ChunkOutcome]:
        """Stream outcomes in chunk order across the shard pool.

        Identical contract to every other engine's ``imap_chunks``; see the
        class docstring for scheduling and fault-tolerance behaviour.
        """
        if count_hint is None and isinstance(chunks, Sized):
            count_hint = len(chunks)
        return self._imap(runner, iter(chunks), context, count_hint)

    def _imap(self, runner: "SandboxRunner", iterator: Iterator["Chunk"],
              context: "ExecutionContext", count_hint: int | None
              ) -> Iterator[ChunkOutcome]:
        first = next(iterator, None)
        if first is None:
            return
        second = next(iterator, None)
        if second is None:
            # A single-chunk stream runs inline: no shard round trip.
            yield execute_chunk(runner, first, context)
            return
        with self._lock:
            self._ensure_shards()
        broadcast = _StreamBroadcast(self._publisher, runner, context,
                                     self.dispatch_stats)
        batch_size = self._effective_chunksize(count_hint)
        ramp_to = 0  # the batch this stream doubles up to; 0 when it is fixed
        if batch_size is None:
            # Unknown length: ramp (class docstring) — a function of how
            # many tasks went out, never of when results came back.  A
            # caller-given window keeps room for ``2 x shards`` tasks.
            batch_size = 1
            ramp_to = _MAX_SHARDED_CHUNKSIZE if self.in_flight_window is None \
                else min(_MAX_SHARDED_CHUNKSIZE,
                         self.in_flight_window // (2 * self.num_shards))
        sent = 0  # tasks this stream dispatched
        window = self._window(batch_size)
        stream = chain((first, second), iterator)
        dispatched: deque[int] = deque()  # this stream's seqs, in yield order
        mine: set[int] = set()
        in_flight = 0  # chunks dispatched but not yet yielded
        exhausted = False
        try:
            while True:
                while not exhausted and in_flight + batch_size <= window:
                    batch: list["Chunk"] = []
                    while len(batch) < batch_size:
                        chunk = next(stream, None)
                        if chunk is None:
                            exhausted = True
                            break
                        batch.append(chunk)
                    if not batch:
                        break
                    specs = [broadcast.chunk_spec(chunk) for chunk in batch]
                    # Registering specs may have discovered new heavy
                    # objects; payload_ref() publishes a covering manifest.
                    ref = broadcast.payload_ref()
                    with self._lock:
                        seq = self._next_seq
                        self._next_seq += 1
                        task = _ShardTask(seq, specs, ref, len(batch))
                        self._dispatch(task)
                    dispatched.append(seq)
                    mine.add(seq)
                    in_flight += len(batch)
                    sent += 1
                    if batch_size < ramp_to and sent % self.num_shards == 0:
                        batch_size = min(2 * batch_size, ramp_to)
                        window = self._window(batch_size)
                # Drain every completed head seq in one locked pass, then
                # yield outside the lock (a consumer may block arbitrarily
                # long between rows — other streams must keep moving).
                completed: list[list[ChunkOutcome]] = []
                with self._lock:
                    while dispatched and dispatched[0] in self._ready:
                        seq = dispatched.popleft()
                        mine.discard(seq)
                        outcomes = self._ready.pop(seq)
                        in_flight -= len(outcomes)
                        completed.append(outcomes)
                    failure: str | None = None
                    if dispatched and dispatched[0] in self._failed:
                        failure = self._failed.pop(dispatched[0])
                for outcomes in completed:
                    yield from outcomes
                if failure is not None:
                    raise RemoteShardError(failure)
                if not dispatched:
                    if exhausted:
                        return
                    continue  # window drained by yields; refill before waiting
                with self._lock:
                    head_pending = dispatched[0] not in self._ready \
                        and dispatched[0] not in self._failed
                if head_pending:
                    self._pump()
        finally:
            # On early close, drop this stream's bookkeeping; late results
            # and errors for these seqs are ignored as stale.
            with self._lock:
                for seq in mine:
                    self._ready.pop(seq, None)
                    self._failed.pop(seq, None)
                    self._tasks.pop(seq, None)
                    for shard in self._shards.values():
                        shard.pending.pop(seq, None)
            self._publisher.release(broadcast)

    # -------------------------------------------------------------- lifecycle

    def reset_dispatch_stats(self) -> None:
        """Zero the engine-wide and per-shard IPC counters."""
        with self._lock:
            self.dispatch_stats = DispatchStats()
            self._shard_stats = {shard_id: DispatchStats()
                                 for shard_id in self._shard_stats}
            for shard in self._shards.values():
                shard.stats = self._shard_stats.setdefault(shard.id, DispatchStats())

    def set_fault_injector(self, injector: "FaultInjector | None") -> None:
        """Install a chaos fault plan on every transport this engine opens.

        Call before first use (or after :meth:`shutdown`): already-open
        transports are not retroactively wrapped.
        """
        with self._lock:
            self._fault_injector = injector

    def health(self) -> dict[str, Any]:
        """Shard-pool liveness snapshot for ``service.health()``.

        ``live_shards`` counts shards that are flagged alive *and* pass the
        transport's liveness probe; ``degraded`` is True once the pool has
        been used and is below strength, or any slot's breaker is not
        closed.  Before first use (``started`` False) an empty pool is
        normal, not degraded — shards spawn lazily.
        """
        with self._lock:
            live = sum(1 for shard in self._shards.values()
                       if shard.alive and shard.transport.is_alive())
            pending = sum(len(shard.pending) for shard in self._shards.values())
            breakers = {label: breaker.state_dict()
                        for label, breaker in sorted(self._breakers.items())}
            started = self._next_shard_id > 0
            degraded = (started and live < self.num_shards) or any(
                entry["state"] != "closed" for entry in breakers.values())
            return {"engine": self.name, "num_shards": self.num_shards,
                    "live_shards": live, "pending_tasks": pending,
                    "started": started, "degraded": degraded,
                    "breakers": breakers}

    def dispatch_stats_dict(self) -> dict[str, Any]:
        """Engine-wide dispatch counters plus a ``per_shard`` breakdown.

        Per-shard entries survive shard death and replacement, so the dict
        records where every byte of a sweep actually went (``engine_stats()``
        reports it as its ``dispatch`` section).  ``breakers`` is the
        per-slot circuit-breaker state (empty until shards spawn).
        """
        with self._lock:
            return {**self.dispatch_stats.as_dict(),
                    "per_shard": {str(shard_id): stats.as_dict()
                                  for shard_id, stats in sorted(self._shard_stats.items())
                                  if stats.dispatches or stats.chunks},
                    "breakers": {label: breaker.state_dict()
                                 for label, breaker in sorted(self._breakers.items())}}

    def shutdown(self) -> None:
        """Terminate every shard worker and unlink what the engine published
        (both come back on next use)."""
        with self._lock:
            for shard in self._shards.values():
                shard.close()
            self._shards.clear()
            while True:
                try:
                    self._inbox.get_nowait()
                except queue.Empty:
                    break
        self._publisher.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


def sharded_engine_from_spec(suffix: int | str | None) -> ShardedEngine:
    """Build a :class:`ShardedEngine` from the ``sharded:`` spec suffix.

    ``None`` / ``N`` / ``tcp`` / ``tcp:N`` — N local shards (``sharded``,
    ``sharded:4``; ``sharded:tcp[:N]`` is an older name of the same).  Any
    other suffix, a ``HOST:PORT`` list among them, is a :class:`ValueError`:
    no shard is ever dialed.
    """
    if suffix is None or isinstance(suffix, int):
        return ShardedEngine(suffix)
    kind, _, count_text = suffix.partition(":")
    if kind == "tcp":
        try:
            count = int(count_text) if count_text else None
        except ValueError:
            raise ValueError(
                f"invalid sharded:tcp worker count {count_text!r}") from None
        return ShardedEngine(count)
    raise ValueError(f"invalid sharded engine spec 'sharded:{suffix}': "
                     "shards are local ('sharded[:N]'); none is dialed")


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    main()
