"""Sharded chunk execution behind the engine seam.

Privid chunks are independent units of work (Appendix B), so
:class:`ShardedEngine` can partition a query's chunk stream across N executor
*shards* and merge ordered results back through the engine contract
(``imap_chunks``): ``PrividSystem(engine="sharded:4")`` behaves byte-for-byte
like ``engine="serial"`` (see the determinism contract in
``docs/architecture.md``).

Each shard speaks a length-prefixed JSON protocol over a
:class:`ShardTransport`.  One ships, :class:`SocketTransport`:
:meth:`SocketTransport.spawn` starts this module's worker (``python -m
repro.core.remote --fd N``) on the child end of a ``socketpair()``
(``sharded[:N]``; ``process`` and ``thread`` are older names).  Shards
live and die with the coordinator, and nothing here opens, binds or dials
a network socket.

Wire protocol
=============

Every frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding one object (:func:`encode_frame` /
:func:`read_frame`).  Messages are typed by their ``"type"`` key:

Coordinator -> shard:

``{"type": "payload", "ref": REF, "data": B64, "drop": [REF, ...]}``
    A pickled footage part or stream manifest (runner, context, masks,
    regions; footage named by ref to its part), base64 in ``data``.  The
    shard forgets the refs in ``drop``, then keeps ``data`` under ``ref``
    and decodes it on first use.  Written before the first task frame that
    names ``ref`` (a manifest names its parts) to a shard that lacks it;
    the coordinator alone decides what a shard holds (:func:`_holdings`).
``{"type": "task", "seq": S, "payload": REF, "specs": [SPEC, ...]}``
    Execute a batch of chunks.  ``seq`` is a coordinator-unique task id,
    ``payload`` the ref of the stream's manifest, and each ``SPEC`` a
    compact per-chunk message —
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
    other number of outcomes, an outcome of any other shape (``rows`` a
    list of objects, ``fallback`` a bool) or one over the stream's
    ``max_rows`` is handled as an ``error`` for ``S``.  Rows are
    the schema-coerced row dicts (JSON-safe by construction — the on-disk
    store serializes the very same shape); ``fallback`` marks crash/timeout
    default rows.  ``stages`` (optional) is where the task's seconds went on
    the shard — ``load_s`` (payload decode) and ``execute_s`` — plus
    ``loads``, 1 when the manifest had to be decoded; summed per shard,
    never acted on.
``{"type": "pong", "token": T}``
    Heartbeat reply.
``{"type": "error", "seq": S, "message": TEXT}``
    Task ``S`` failed at the protocol level (e.g. a payload the shard was
    never pushed).  Executable crashes never surface here — the sandbox converts
    those to fallback rows inside a normal ``result``.

Shards never open the chunk result store: the coordinator looks every
chunk up before dispatch and writes every result it receives
(:meth:`~repro.sandbox.environment.SandboxRunner.iter_chunk_rows`), so a
shard only executes.

The coordinator: one pure core, one wait
========================================

:class:`ShardedEngine` is a thin shell around :class:`_Dispatch`, the
scheduling rules as a state machine that reads no clock, socket or thread:
it takes four events (a stream's batch is ready, a frame arrived, a shard's
stream ended, a tick at ``now``) and returns actions (send a frame, kill a
shard, a seq's outcomes are ready, a seq failed) and its next deadline.
The shell owns the transports, the publisher, what each shard holds, and
one ``selectors`` wait over every shard socket, run by whichever stream's
thread is waiting for its head seq; there is no thread per shard.  Writes
never block: what a socket does not take stays queued until the wait finds
it writable, so a frozen or starting shard cannot stall the coordinator.

Results are applied *at most once*: a task retires with its first
well-formed ``result`` frame — one well-shaped outcome per chunk, none over
the stream's ``max_rows`` — and any other result is handled like an ``error``
from the task's owner.  Later frames for a retired seq (a reassigned task
whose first shard was merely slow) are dropped.  Workers answer pings while
tasks execute, so silence past ``heartbeat_timeout`` while holding work
means frozen or gone: such a shard is killed and its tasks redispatched,
each at most ``max_task_retries`` times before the stream that owns it
fails.  Results stay byte-identical because a chunk's output never depends
on where it ran.  Dead shards are replaced at the next stream start.
"""

from __future__ import annotations

import argparse
import base64
import heapq
import io
import json
import os
import queue
import selectors
import socket
import struct
import subprocess
import sys
import threading
import time
import traceback
import warnings
from collections import deque
from contextlib import suppress
from itertools import chain, islice
from typing import TYPE_CHECKING, Any, BinaryIO, Callable, Iterable, Iterator, \
    Protocol, Sized, runtime_checkable


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """The shard worker's command line (see :func:`main`)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.remote",
        description="Privid executor shard: a local worker serving its "
                    "coordinator over an inherited socket.")
    parser.add_argument("--fd", type=int, required=True,
                        help="serve the coordinator over this inherited, "
                             "connected socket")
    return parser.parse_args(argv)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    # A usage error exits here, before the engine (and numpy) load.
    _parse_args(None)

import repro
from repro.core.engine import (
    ChunkOutcome,
    ChunkSpecMessage,
    DispatchStats,
    _BroadcastPublisher,
    _fetch_payload,
    _hold_payload,
    _StreamBroadcast,
    chunk_from_spec,
    execute_chunk,
)
from repro.core.faults import FaultInjector, FaultyTransport, faulty_transport_factory
from repro.errors import RemoteShardError
from repro.utils import checks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sandbox.environment import ExecutionContext, SandboxRunner
    from repro.video.chunking import Chunk


def _default_workers() -> int:
    return max(2, (os.cpu_count() or 2))

# --------------------------------------------------------------------- frames

_FRAME_HEADER = struct.Struct(">I")

#: Upper bound on a single frame body; a corrupt length prefix must never
#: make a reader try to allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Body bytes of a ``payload`` frame besides its ref, data and drops.
_PAYLOAD_FRAME_BYTES = len('{"type":"payload","ref":"","data":"","drop":[]}')


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

    A transport moves whole protocol frames both ways; everything above it
    (dispatch, heartbeats, reassignment, at-most-once application) is
    transport-agnostic.  ``fileno`` is what the coordinator's one wait
    selects on.  ``read`` never blocks: it returns every complete frame
    already received ([] when none is), and None once the stream is finished
    (worker exit, socket disconnect, a torn frame).  Nor does ``write``: it
    queues a frame, sends what the far end takes and returns the frame's
    wire bytes; ``flush`` sends more, True while some is left.  Both raise
    :class:`OSError` when the far end is gone.  ``is_alive`` is a cheap
    probe (a process poll at most), ``kill`` severs the far end, and
    ``close`` asks the worker to exit, escalating after ``timeout``.
    ``process`` is the worker subprocess when the transport owns one, and
    None otherwise.
    """

    description: str
    process: subprocess.Popen | None

    def fileno(self) -> int: ...  # pragma: no cover - protocol

    def read(self) -> list[dict[str, Any]] | None: ...  # pragma: no cover

    def write(self, message: dict[str, Any]) -> int: ...  # pragma: no cover

    def flush(self) -> bool: ...  # pragma: no cover

    def is_alive(self) -> bool: ...  # pragma: no cover

    def kill(self) -> None: ...  # pragma: no cover

    def close(self, timeout: float = 5.0) -> None: ...  # pragma: no cover


#: Bytes asked of one ``recv``; a read loops until the socket has no more.
_RECV_BYTES = 256 * 1024


class SocketTransport:
    """A shard worker at the far end of one connected stream socket.

    :meth:`spawn` starts a local worker over a ``socketpair()`` and owns its
    process.  Reads ``recv`` without blocking into the transport's own
    buffer, never through a buffered file: a file object could hold a
    second frame in its buffer that ``select`` never reports.  Socket
    errors on read surface as EOF, so a vanished worker and a torn socket
    reach the layers above through the same death path.  Writes queue and
    ``send`` without blocking (a footage payload outgrows a socket buffer).
    ``kill`` severs the connection and, when there is one, kills and reaps
    the worker.
    """

    def __init__(self, sock: socket.socket, description: str,
                 process: subprocess.Popen | None = None) -> None:
        self.description = description
        self.process = process
        self._sock = sock
        self._closed = False
        self._eof = False
        self._buffer = bytearray()
        self._out = bytearray()

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

    def fileno(self) -> int:
        return self._sock.fileno()

    def read(self) -> list[dict[str, Any]] | None:
        while not self._eof:
            try:
                data = self._sock.recv(_RECV_BYTES, socket.MSG_DONTWAIT)
            except BlockingIOError:
                break
            except OSError:  # a reset or locally closed socket reads as EOF
                data = b""
            self._eof = not data
            self._buffer += data
        stream, frames, parsed = io.BytesIO(self._buffer), [], 0
        try:
            while (frame := read_frame(stream)) is not None:  # None: a partial frame
                frames.append(frame)
                parsed = stream.tell()
        except ValueError:  # not JSON: the stream is corrupt
            self._eof, frames = True, []
        del self._buffer[:parsed]
        return None if self._eof and not frames else frames

    def write(self, message: dict[str, Any]) -> int:
        data = encode_frame(message)
        self._out += data
        self.flush()
        return len(data)

    def flush(self) -> bool:
        with suppress(BlockingIOError):  # a closed or reset socket raises OSError
            while self._out:
                del self._out[:self._sock.send(self._out, socket.MSG_DONTWAIT)]
        return bool(self._out)

    def is_alive(self) -> bool:
        return not self._closed and (self.process is None
                                     or self.process.poll() is None)

    def _teardown(self) -> None:
        self._closed = True
        # Shut down first: it wakes a wait selecting on this socket.
        for close in (lambda: self._sock.shutdown(socket.SHUT_RDWR), self._sock.close):
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
        try:  # what is still queued, then the shutdown, within ``timeout``
            self._sock.settimeout(timeout)
            self._sock.sendall(self._out + encode_frame({"type": "shutdown"}))
        except OSError:
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
        outcomes.append({"rows": outcome.rows, "fallback": outcome.fallback})
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
    serving — a bad payload must not take the whole shard down with it.
    ``payload`` frames are kept (drops first) by the read loop itself.
    Unknown message types are ignored so older workers tolerate newer
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
            elif kind == "payload":
                _hold_payload(message["ref"], base64.b64decode(message["data"]),
                              message["drop"])
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
    args = _parse_args(argv)
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
    """One dispatched task: a spec batch and the runner's ``max_rows``."""

    __slots__ = ("seq", "specs", "payload_ref", "max_rows", "shard_id",
                 "attempts", "dispatched_at")

    def __init__(self, seq: int, specs: list[ChunkSpecMessage], payload_ref: str,
                 max_rows: int) -> None:
        self.seq = seq
        self.specs = specs
        self.payload_ref = payload_ref
        self.max_rows = max_rows
        self.shard_id: int | None = None
        self.attempts = 0
        self.dispatched_at = 0.0


class _ShardState:
    """The core's view of one live shard.  ``last_seen`` is its last frame,
    or the moment it was handed work while idle: silence counts only while
    a shard holds work.  Until its first frame (``started``) a shard is
    still importing, and is judged against the longer startup grace."""

    __slots__ = ("pending", "started", "last_seen", "pinged_at")

    def __init__(self, now: float) -> None:
        self.pending: dict[int, _ShardTask] = {}
        self.started = False
        self.last_seen = self.pinged_at = now


def _result_problem(task: _ShardTask, outcomes: Any) -> str | None:
    """Why a result frame cannot be applied to ``task`` (None if it can):
    one outcome per chunk, or rows would shift onto the wrong chunks and into
    the store under their keys; each ``{"rows": [object, ...], "fallback":
    bool}``, since the executable can write to the worker's socket; at most
    ``max_rows`` rows each, which every sensitivity assumes."""
    count = len(outcomes) if isinstance(outcomes, list) else 0
    if count != len(task.specs):
        return f"result frame has {count} outcomes for {len(task.specs)} chunks"
    for index, outcome in enumerate(outcomes):
        rows = outcome.get("rows") if isinstance(outcome, dict) else None
        if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)
                and isinstance(outcome.get("fallback"), bool)):
            return (f"result frame outcome {index} is not "
                    '{"rows": [object, ...], "fallback": bool}')
        if len(rows) > task.max_rows:
            return (f"result frame outcome {index} has {len(rows)} rows, "
                    f"over max_rows={task.max_rows}")
    return None


class _Dispatch:
    """The shard coordinator's scheduling rules, free of clocks and I/O.

    Events — :meth:`batch`, :meth:`frame`, :meth:`eof` and :meth:`tick` —
    carry the time ``now`` they happened and return the actions to carry
    out, in order: ``("send", shard, frame)`` (a failed write is an EOF),
    ``("kill", shard)``, ``("ready", seq, shard, stages)`` and ``("failed",
    seq, reason)``.  :meth:`deadline` is when a tick next has work.  A
    settled seq is parked in ``ready`` or ``failed`` until the stream that
    owns it collects it in dispatch order (:meth:`collect`), so a failure
    is raised by its own stream, never by whichever one was waiting.
    """

    def __init__(self, *, heartbeat_interval: float, heartbeat_timeout: float,
                 startup_grace: float, max_task_retries: int,
                 task_timeout: float | None) -> None:
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.startup_grace = startup_grace
        self.max_task_retries = max_task_retries
        self.task_timeout = task_timeout
        self.shards: dict[int, _ShardState] = {}  # the live ones
        self.tasks: dict[int, _ShardTask] = {}
        self.ready: dict[int, list[ChunkOutcome]] = {}
        self.failed: dict[int, str] = {}
        self._streams: dict[int, deque[int]] = {}
        #: Frames a DELAY fault holds back: (due, order, shard, frame).
        self._delayed: list[tuple[float, int, int, dict[str, Any]]] = []
        self._counters = dict.fromkeys(("seq", "stream", "ping", "delay"), 0)
        self._actions: list[tuple[Any, ...]] = []

    def _next(self, name: str) -> int:
        self._counters[name] += 1
        return self._counters[name] - 1

    def _flush(self) -> list[tuple[Any, ...]]:
        actions, self._actions = self._actions, []
        return actions

    # ------------------------------------------------------------- streams

    def add_shard(self, shard_id: int, now: float) -> None:
        self.shards[shard_id] = _ShardState(now)

    def open_stream(self) -> int:
        stream = self._next("stream")
        self._streams[stream] = deque()
        return stream

    def waiting(self, stream: int) -> bool:
        """True while the stream's head seq is still out on a shard."""
        seqs = self._streams[stream]
        return bool(seqs) and seqs[0] not in self.ready and seqs[0] not in self.failed

    def collect(self, stream: int) -> tuple[list[list[ChunkOutcome]], str | None]:
        """Pop the stream's settled head seqs in order: their outcomes, and
        why its first failed seq failed (None if none did)."""
        seqs, done = self._streams[stream], []
        while seqs and seqs[0] in self.ready:
            done.append(self.ready.pop(seqs.popleft()))
        return done, self.failed.pop(seqs[0]) if seqs and seqs[0] in self.failed else None

    def close_stream(self, stream: int) -> None:
        """Forget a stream; late results and errors for its seqs are stale."""
        for seq in self._streams.pop(stream, ()):
            self.ready.pop(seq, None)
            self.failed.pop(seq, None)
            if seq in self.tasks:
                self._retire(self.tasks[seq])

    # -------------------------------------------------------------- events

    def batch(self, stream: int, specs: list[ChunkSpecMessage], payload_ref: str,
              max_rows: int, now: float) -> list[tuple[Any, ...]]:
        seq = self._next("seq")
        self._streams[stream].append(seq)
        self._place(_ShardTask(seq, specs, payload_ref, max_rows), now)
        return self._flush()

    def frame(self, shard_id: int, message: dict[str, Any],
              now: float) -> list[tuple[Any, ...]]:
        self._frame(shard_id, message, now)
        return self._flush()

    def eof(self, shard_id: int, now: float) -> list[tuple[Any, ...]]:
        if shard_id in self.shards:
            self._kill(shard_id, now)
        return self._flush()

    def tick(self, now: float) -> list[tuple[Any, ...]]:
        """Deliver due delayed frames, redispatch tasks past ``task_timeout``,
        kill shards silent past their limit while holding work, and ping the
        rest once per ``heartbeat_interval`` of silence."""
        while self._delayed and self._delayed[0][0] <= now:
            _, _, shard_id, message = heapq.heappop(self._delayed)
            self._frame(shard_id, message, now)
        for shard_id, shard in list(self.shards.items()):
            if self.task_timeout is not None:
                for task in [task for task in shard.pending.values()
                             if now >= task.dispatched_at + self.task_timeout]:
                    del shard.pending[task.seq]
                    self._retry(task, now, exclude=shard_id, reason="no result "
                                f"within task_timeout={self.task_timeout}s")
            if shard.pending and now >= shard.last_seen + self._limit(shard):
                self._kill(shard_id, now)
            elif now >= max(shard.last_seen, shard.pinged_at) + self.heartbeat_interval:
                shard.pinged_at = now
                self._actions.append(
                    ("send", shard_id, {"type": "ping", "token": self._next("ping")}))
        return self._flush()

    def deadline(self) -> float | None:
        """When :meth:`tick` next has work (None: no shard to watch)."""
        due = [self._delayed[0][0]] if self._delayed else []
        for shard in self.shards.values():
            due.append(max(shard.last_seen, shard.pinged_at) + self.heartbeat_interval)
            if shard.pending:
                due.append(shard.last_seen + self._limit(shard))
                if self.task_timeout is not None:
                    due.append(min(task.dispatched_at for task in shard.pending.values())
                               + self.task_timeout)
        return min(due, default=None)

    # ---------------------------------------------------------------- rules

    def _limit(self, shard: _ShardState) -> float:
        return self.heartbeat_timeout if shard.started \
            else max(self.heartbeat_timeout, self.startup_grace)

    def _frame(self, shard_id: int, message: dict[str, Any], now: float) -> None:
        shard = self.shards.get(shard_id)
        if shard is None:
            return  # from a shard already declared dead
        shard.last_seen, shard.started = now, True
        kind = message.get("type")
        if kind == "delayed":  # a DELAY fault's frame, delivered at its deadline
            heapq.heappush(self._delayed, (now + message["delay"], self._next("delay"),
                                           shard_id, message["frame"]))
            return
        task = self.tasks.get(message.get("seq"))
        if task is None:
            return  # no task (a pong), or a stale seq: at-most-once
        if kind == "result":
            outcomes = message.get("outcomes")
            problem = _result_problem(task, outcomes)
            if problem is not None:
                self._task_error(task, shard_id, problem, now)
                return
            self._retire(task)
            self.ready[task.seq] = [
                ChunkOutcome(rows=outcome["rows"], fallback=outcome["fallback"])
                for outcome in outcomes]
            self._actions.append(("ready", task.seq, shard_id, message.get("stages")))
        elif kind == "error":
            self._task_error(task, shard_id, str(message.get("message", "")).strip(), now)

    def _place(self, task: _ShardTask, now: float, exclude: int | None = None) -> None:
        """Hand a task to the least-loaded live shard (``exclude`` only if alone)."""
        candidates = [sid for sid in self.shards if sid != exclude] or list(self.shards)
        if not candidates:
            self._fail(task, f"no live shards remain to run task {task.seq} "
                             f"(attempt {task.attempts + 1})")
            return
        shard_id = min(candidates, key=lambda sid: (len(self.shards[sid].pending), sid))
        shard = self.shards[shard_id]
        if not shard.pending:
            shard.last_seen = max(shard.last_seen, now)
        task.shard_id, task.dispatched_at = shard_id, now
        shard.pending[task.seq] = self.tasks[task.seq] = task
        self._actions.append(("send", shard_id, {"type": "task", "seq": task.seq,
                                                 "payload": task.payload_ref,
                                                 "specs": task.specs}))

    def _retire(self, task: _ShardTask) -> None:
        del self.tasks[task.seq]
        if task.shard_id in self.shards:
            self.shards[task.shard_id].pending.pop(task.seq, None)

    def _fail(self, task: _ShardTask, reason: str) -> None:
        if task.seq in self.tasks:
            self._retire(task)
        self.failed[task.seq] = reason
        self._actions.append(("failed", task.seq, reason))

    def _retry(self, task: _ShardTask, now: float, *, exclude: int, reason: str) -> None:
        task.attempts += 1
        if task.attempts > self.max_task_retries:
            self._fail(task, f"task {task.seq} failed {task.attempts} times; "
                             f"last shard {task.shard_id}: {reason}")
        else:
            self._place(task, now, exclude=exclude)

    def _task_error(self, task: _ShardTask, shard_id: int, reason: str,
                    now: float) -> None:
        """Retry elsewhere a task its shard could not answer.  Only the
        task's current owner may: a stale error from a previous owner must
        not burn a retry while the new owner's result is in flight."""
        if task.shard_id == shard_id:
            del self.shards[shard_id].pending[task.seq]
            self._retry(task, now, exclude=shard_id, reason=reason)

    def _kill(self, shard_id: int, now: float) -> None:
        """Retire a shard and redispatch what it held.  It may have finished
        some without the result reaching us: the first result retires a seq."""
        shard = self.shards.pop(shard_id)
        self._actions.append(("kill", shard_id))
        for task in list(shard.pending.values()):
            self._retry(task, now, exclude=shard_id, reason="shard died")
        shard.pending.clear()


#: Payload refs a push leaves a shard holding at most, unless every one it
#: holds is pinned by an open stream or named by a task it has yet to answer.
_SHARD_PAYLOAD_LIMIT = 16


def _holdings(held: list[str], pinned: set[str], in_flight: set[str],
              needed: Iterable[str]) -> tuple[list[str], list[str], list[str]]:
    """Before a task naming ``needed`` goes to a shard that ``held`` refs
    (least recently used first): what it holds after, ``needed`` last; the
    ``needed`` refs to push first; what it drops for room — least recently
    used first, never one ``pinned``, ``in_flight`` or ``needed``."""
    needed = list(needed)
    push = [ref for ref in needed if ref not in held]
    kept = [ref for ref in held if ref not in needed]
    excess = len(kept) + len(needed) - _SHARD_PAYLOAD_LIMIT if push else 0
    drop = [ref for ref in kept if ref not in pinned and ref not in in_flight][:max(0, excess)]
    return [ref for ref in kept if ref not in drop] + needed, push, drop


#: An unhinted stream's per-task batch: ``shards`` tasks at each step, then
#: the last step for good.  Batches amortize framing, but every chunk in a
#: batch shares its task's fate on reassignment, so batches stay small.
_RAMP = (1, 2, 4, 8)


def _next_batch(sent: int, in_flight: int, shards: int, chunksize: int | None,
                count_hint: int | None) -> int:
    """How many chunks a stream's next task takes, or 0 while its window is
    full, once it has sent ``sent`` tasks and holds ``in_flight`` chunks
    dispatched but not yet yielded.  The batch is ``chunksize`` when set;
    else a positive ``count_hint`` cuts at ``count_hint // (4 * shards)``,
    1 to 8; else it ramps (:data:`_RAMP`), a function of how many tasks went
    out, never of when results came back.  At most ``2 x shards x batch``
    chunks are in flight."""
    if chunksize is None and count_hint is not None and count_hint > 0:
        chunksize = max(1, min(_RAMP[-1], count_hint // (4 * shards)))
    batch = chunksize or _RAMP[min(sent // shards, len(_RAMP) - 1)]
    return batch if in_flight + batch <= 2 * shards * batch else 0


class _Shard:
    """One shard as the shell holds it: its transport, the descriptor the
    wait selects on, its ``slot`` (the transport factory it fills) and the
    payload refs it ``held`` (a new worker holds none)."""

    def __init__(self, shard_id: int, transport: ShardTransport, slot: int) -> None:
        self.id = shard_id
        self.slot = slot
        self.transport = transport
        self.fd = transport.fileno()
        self.held: list[str] = []

    @property
    def process(self) -> subprocess.Popen | None:
        """The worker subprocess, when this shard's transport owns one."""
        return self.transport.process


class ShardedEngine:
    """Partitions chunk streams across N executor shards (``sharded:...``).

    An :class:`~repro.core.engine.ExecutionEngine` (ordered, streaming,
    byte-identical to serial) and the shell of the pure :class:`_Dispatch`
    core; ``docs/architecture.md`` has the batching, window and failure
    rules.  Each shard fills a *slot*: a transport factory
    (:meth:`SocketTransport.spawn` unless ``transports`` names them).
    Shards open on first use and persist until :meth:`shutdown`; an empty
    slot is refilled at the next stream start.  A shard silent past
    ``heartbeat_timeout`` (``startup_grace`` before its first frame) while
    holding work is killed, and its tasks are redispatched up to
    ``max_task_retries`` times each before the owning stream raises
    :class:`~repro.errors.RemoteShardError`; ``task_timeout`` (off by
    default) also redispatches a result overdue on a shard that still
    answers pings (a lost frame).  ``chunksize`` fixes the per-task batch;
    by default a ``count_hint`` cuts it and a stream without one ramps
    1,1,2,2,4,4,8,8 on two shards, with at most ``2 x shards x batch``
    chunks dispatched but not yet yielded (:func:`_next_batch`).  Streams
    may be open at once on one thread or several: the engine condition
    guards the core, the shard table and the stats, and is never held
    across the wait or a yield.
    """

    def __init__(self, num_shards: int | None = None, *,
                 transports: "list[Callable[[], ShardTransport]] | None" = None,
                 chunksize: int | None = None,
                 heartbeat_interval: float = 0.5,
                 heartbeat_timeout: float = 10.0,
                 startup_grace: float = 60.0,
                 max_task_retries: int = 3,
                 task_timeout: float | None = None) -> None:
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
        self.name = "sharded"
        #: One transport factory per slot.
        self._factories: list[Callable[[], ShardTransport]] = list(
            transports or [SocketTransport.spawn] * num_shards)
        self.chunksize = chunksize
        self.heartbeat_interval = heartbeat_interval
        if chunksize is not None:
            checks.count("chunksize", chunksize, ValueError, 1)
        checks.count("max_task_retries", max_task_retries, ValueError)
        for name, value in (("heartbeat_interval", heartbeat_interval),
                            ("heartbeat_timeout", heartbeat_timeout),
                            ("startup_grace", startup_grace),
                            ("task_timeout", task_timeout)):
            if value is not None:
                checks.real(name, value, ValueError, above=0)
        #: Optional chaos seam (:meth:`set_fault_injector`).
        self.fault_injector: "FaultInjector | None" = None
        #: Engine-wide IPC accounting (every task frame sent to any shard).
        self.dispatch_stats = DispatchStats()
        self._shard_stats: dict[int, DispatchStats] = {}
        self._shards: dict[int, _Shard] = {}
        self._next_shard_id = 0
        self._started = False  # a stream start has tried to fill the slots
        self._core = _Dispatch(heartbeat_interval=heartbeat_interval,
                               heartbeat_timeout=heartbeat_timeout,
                               startup_grace=startup_grace,
                               max_task_retries=max_task_retries,
                               task_timeout=task_timeout)
        #: The one wait: every live shard's descriptor (``data``: its id).
        #: poll keeps nothing in the kernel between waits, so a socket closed
        #: under the wait reads as ready (POLLNVAL) instead of vanishing.
        self._selector = selectors.PollSelector()
        self._cond = threading.Condition()
        self._waiting = False  # a thread is running the wait
        self._publisher = _BroadcastPublisher()

    # ------------------------------------------------------------- shard pool

    def _spawn_shard(self, slot: int) -> None:
        """Fill one slot, unless its factory fails (a warning; the slot is
        tried again at the next stream start).  A fault plan sees the Nth
        shard opened as ``transport.worker{N}``."""
        factory = self._factories[slot]
        if self.fault_injector is not None:
            factory = faulty_transport_factory(factory, self.fault_injector,
                                               f"transport.worker{self._next_shard_id}")
        try:
            transport = factory()
        except OSError as exc:
            warnings.warn(f"shard slot {slot} is unreachable: {exc}",
                          RuntimeWarning, stacklevel=2)
            return
        shard_id = self._next_shard_id
        self._next_shard_id += 1
        self._shard_stats.setdefault(shard_id, DispatchStats())
        shard = self._shards[shard_id] = _Shard(shard_id, transport, slot)
        self._core.add_shard(shard_id, time.monotonic())
        self._selector.register(shard.fd, selectors.EVENT_READ, shard_id)

    def _ensure_shards(self) -> None:
        """At a stream start (under the lock): fold in what arrived between
        streams — an EOF on a socket, an exited worker — then refill every
        empty slot once.  A slot that cannot be filled is tried again at the
        next stream start; only zero live shards is an error."""
        self._started = True
        now = time.monotonic()
        if not self._waiting:  # else the thread in the wait reads every socket
            for shard in self._live_shards():
                self._read(shard, now)
        self._reap(now)
        self._shards = {shard.id: shard for shard in self._live_shards()}
        filled = {shard.slot for shard in self._shards.values()}
        for slot in range(self.num_shards):
            if slot not in filled:
                self._spawn_shard(slot)
        if not self._shards:
            raise RemoteShardError(
                f"no shard could be opened (all {self.num_shards} slots failed)")

    def _live_shards(self) -> list[_Shard]:
        return [shard for shard in self._shards.values() if shard.id in self._core.shards]

    # ------------------------------------------------------------ the shell

    def _apply(self, actions: list[tuple[Any, ...]]) -> None:
        """Carry out the core's actions (under the lock).  Streams asleep on
        the condition wait for the turn of the wait in progress, which
        notifies them when it ends."""
        for kind, *args in actions:
            if kind == "send" and args[0] in self._core.shards:
                shard, message = self._shards[args[0]], args[1]
                try:
                    if message["type"] == "task":
                        self._push(shard, message["payload"])
                    sent = shard.transport.write(message)
                except (OSError, RemoteShardError):  # gone, or a frame over the bound
                    self._apply(self._core.eof(shard.id, time.monotonic()))
                    continue
                if message["type"] == "task":
                    for stats in (self._shard_stats[shard.id], self.dispatch_stats):
                        stats.record_dispatch(sent, len(message["specs"]))
                self._flush(shard, time.monotonic())
            elif kind == "kill":
                shard = self._shards[args[0]]
                self._selector.unregister(shard.fd)
                shard.transport.kill()
            elif kind == "ready":
                for stats in (self._shard_stats[args[1]], self.dispatch_stats):
                    stats.record_stages(args[2])

    def _push(self, shard: _Shard, ref: str) -> None:
        """Before a task naming manifest ``ref`` goes to ``shard``, push what
        it needs there, the first frame carrying the drops (:func:`_holdings`)."""
        publisher = self._publisher
        in_flight = {need for task in self._core.shards[shard.id].pending.values()
                     for need in publisher.needs(task.payload_ref)}
        shard.held, push, drop = _holdings(shard.held, publisher.pinned(), in_flight,
                                           publisher.needs(ref))
        for need in push:
            data = base64.b64encode(publisher.data(need)).decode("ascii")
            sent = shard.transport.write(
                {"type": "payload", "ref": need, "data": data, "drop": drop})
            drop = []
            for stats in (self._shard_stats[shard.id], self.dispatch_stats):
                stats.pushes += 1
                stats.push_bytes += sent

    def _check_frames(self, ref: str) -> None:
        """Fail, on its own thread, a stream whose manifest ``ref`` needs a
        payload frame over :data:`MAX_FRAME_BYTES` (drops add a few bytes)."""
        for need in self._publisher.needs(ref):
            base64_bytes = 4 * -(-len(self._publisher.data(need)) // 3)
            body = _PAYLOAD_FRAME_BYTES + len(need) + base64_bytes
            if body > MAX_FRAME_BYTES:
                raise RemoteShardError(f"payload {need} needs a {body}-byte frame, "
                                       f"over MAX_FRAME_BYTES={MAX_FRAME_BYTES}")

    def _flush(self, shard: _Shard, now: float) -> None:
        """Send what ``shard``'s socket takes of its queued frames; the wait
        watches it for writable exactly while some remain."""
        try:
            queued = shard.transport.flush()
        except OSError:
            self._apply(self._core.eof(shard.id, now))
            return
        self._selector.modify(shard.fd, selectors.EVENT_READ | (
            selectors.EVENT_WRITE if queued else 0), shard.id)

    def _reap(self, now: float) -> None:
        """An EOF for every live shard whose transport reads dead."""
        for shard in self._live_shards():
            if not shard.transport.is_alive():
                self._apply(self._core.eof(shard.id, now))

    def _read(self, shard: _Shard, now: float) -> None:
        """Feed the core every frame waiting on a shard's socket, or its EOF."""
        try:
            frames = shard.transport.read()
        except (OSError, RemoteShardError):  # a failed read, or a corrupt length prefix
            frames = None
        if frames is None:
            self._apply(self._core.eof(shard.id, now))
        for message in frames or ():
            self._apply(self._core.frame(shard.id, message, now))

    def _await_head(self, stream: int) -> None:
        """Return once ``stream``'s head seq may have settled.  One thread
        at a time runs a turn of the wait (a select until the core's next
        deadline, then every frame, EOF and expired deadline fed to the
        core) and gives it up before its stream yields; others sleep on the
        condition, which every turn ends by notifying."""
        with self._cond:
            if not self._core.waiting(stream):
                return
            if self._waiting:
                self._cond.wait()
                return
            self._waiting = True
            deadline = self._core.deadline()
        try:
            timeout = self.heartbeat_interval if deadline is None \
                else max(0.0, deadline - time.monotonic())
            events = self._selector.select(timeout)
            with self._cond:
                now = time.monotonic()
                for key, ready in events:
                    if key.data in self._core.shards and ready & selectors.EVENT_WRITE:
                        self._flush(self._shards[key.data], now)
                    if key.data in self._core.shards and ready & selectors.EVENT_READ:
                        self._read(self._shards[key.data], now)
                deadline = self._core.deadline()
                if deadline is not None and deadline <= now:
                    self._reap(now)
                    self._apply(self._core.tick(now))
        finally:
            with self._cond:
                self._waiting = False
                self._cond.notify_all()

    # ----------------------------------------------------------- engine proto

    def imap_chunks(self, runner: "SandboxRunner", chunks: Iterable["Chunk"],
                    context: "ExecutionContext", *,
                    count_hint: int | None = None) -> Iterator[ChunkOutcome]:
        """Stream outcomes in chunk order across the shard pool."""
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
        with self._cond:
            self._ensure_shards()
            stream_id = self._core.open_stream()
        broadcast = _StreamBroadcast(self._publisher, runner, context,
                                     self.dispatch_stats)
        stream = chain((first, second), iterator)
        sent = in_flight = 0  # tasks dispatched; chunks not yet yielded
        exhausted = False
        try:
            while True:
                while not exhausted and (size := _next_batch(
                        sent, in_flight, self.num_shards, self.chunksize, count_hint)):
                    batch = list(islice(stream, size))
                    exhausted = len(batch) < size
                    if not batch:
                        break
                    specs = [broadcast.chunk_spec(chunk) for chunk in batch]
                    # Registering specs may have discovered new heavy
                    # objects; payload_ref() publishes a covering manifest.
                    ref = broadcast.payload_ref()
                    self._check_frames(ref)
                    with self._cond:
                        self._apply(self._core.batch(stream_id, specs, ref,
                                                     runner.max_rows, time.monotonic()))
                    in_flight += len(batch)
                    sent += 1
                with self._cond:
                    completed, failure = self._core.collect(stream_id)
                for outcomes in completed:
                    in_flight -= len(outcomes)
                    yield from outcomes
                if failure is not None:
                    raise RemoteShardError(failure)
                if not in_flight and exhausted:
                    return
                if not completed:
                    self._await_head(stream_id)
        finally:
            with self._cond:
                self._core.close_stream(stream_id)
            self._publisher.release(broadcast)

    # -------------------------------------------------------------- lifecycle

    def set_fault_injector(self, injector: "FaultInjector | None") -> None:
        """Install a chaos fault plan on every transport this engine opens
        from now on (call before first use, or after :meth:`shutdown`).  A
        live shard's transport drops the plan it was opened under, so an
        old plan fires nowhere once it is replaced or removed."""
        with self._cond:
            self.fault_injector = injector
            for shard in self._shards.values():
                if isinstance(shard.transport, FaultyTransport):
                    shard.transport = shard.transport.inner

    def health(self) -> dict[str, Any]:
        """Shard-pool liveness for ``service.health()``: ``degraded`` while
        the used pool is below strength (shards alive to the core and to
        their transport's probe)."""
        with self._cond:
            live = sum(1 for shard in self._live_shards() if shard.transport.is_alive())
            return {"engine": self.name, "num_shards": self.num_shards,
                    "live_shards": live, "pending_tasks": len(self._core.tasks),
                    "started": self._started,
                    "degraded": self._started and live < self.num_shards}

    def dispatch_stats_dict(self) -> dict[str, Any]:
        """Engine-wide dispatch counters plus a ``per_shard`` breakdown that
        survives shard death and replacement (``engine_stats()``'s
        ``dispatch`` section)."""
        with self._cond:
            return {**self.dispatch_stats.as_dict(),
                    "per_shard": {str(shard_id): stats.as_dict()
                                  for shard_id, stats in sorted(self._shard_stats.items())
                                  if stats.dispatches or stats.chunks}}

    def shutdown(self) -> None:
        """Terminate every shard worker and forget what the engine published
        (both come back on next use); an open stream's tasks fail."""
        with self._cond:
            now = time.monotonic()
            for shard in self._shards.values():
                if shard.id in self._core.shards:
                    self._selector.unregister(shard.fd)
                    self._core.eof(shard.id, now)  # its kill is the close below
                shard.transport.close()
            self._shards.clear()
        self._publisher.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    main()
