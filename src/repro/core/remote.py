"""Sharded multi-host chunk execution behind the engine seam.

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
one executor worker.  Two transports ship:

* :class:`PipeTransport` — a subprocess running this module's worker
  entrypoint (``python -m repro.core.remote``), framed over its stdin/stdout
  pipes.  The single-host default: shards live and die with the coordinator.
* :class:`TcpTransport` — a socket connection to a shard *daemon*
  (``python -m repro.core.remote --listen HOST:PORT``), so shards genuinely
  live on other hosts.  ``ShardedEngine.connect(["hostA:9101", ...])`` (spec
  string ``sharded:hostA:9101,hostB:9101``) attaches to already-running
  daemons; ``ShardedEngine.local_tcp(N)`` (spec ``sharded:tcp[:N]``) spawns
  N localhost daemons and connects to them — the same wire path as a real
  multi-host deployment, self-contained enough for tests and CI.

The protocol is byte-oriented and JSON-typed precisely so the two transports
are interchangeable: neither endpoint can tell pipes from sockets, and every
frame format below is identical on both.

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
    ``[video_ref, index, start, end, mask_ref, region_ref, sample_period,
    metadata]`` — exactly the spec-dispatch scheme the process engine uses,
    so per-task IPC stays at a few ints and floats per chunk.  Because
    specs travel as JSON (the process engine pickles its), per-chunk
    ``metadata`` must be JSON-safe and loses tuple-ness in transit
    (tuples arrive as lists); library-built chunk streams never set
    metadata, but metadata-sensitive third-party streams should use the
    process engine or stick to JSON-native types.
``{"type": "store", "spec": "disk:PATH" | "tiered:PATH"}``
    Adopt a shard-local view of the shared chunk result store (see
    :func:`repro.core.cache.shared_spec`): subsequent tasks consult it
    before executing and write successful results through to it, which is
    what lets shards on different hosts share warm entries over common
    storage — and preserves completed work if the coordinator dies.
``{"type": "ping", "token": T}``
    Heartbeat probe; the shard echoes the token back as a ``pong``.
``{"type": "shutdown"}``
    Exit the worker loop (EOF on stdin has the same effect).

Shard -> coordinator:

``{"type": "result", "seq": S, "outcomes": [{"rows": [...], "fallback": F,
"cache_hit": C, "stored": W}, ...], "stages": {...}}``
    One outcome per spec of task ``S``, in spec order.  Rows are the
    schema-coerced row dicts (JSON-safe by construction — the on-disk store
    serializes the very same shape); ``fallback`` marks crash/timeout
    default rows, ``cache_hit`` marks rows the shard served from its local
    view of the shared store *without executing* (the coordinator counts
    these as ``shard_cache_hits``), and ``stored`` marks rows that already
    live in the shared store (served from it or written through), so the
    coordinator's cache layer only promotes them into its memory tier
    instead of re-writing the disk entry.  ``stages`` (optional) is where
    the task's seconds went on the shard — ``load_s`` (payload decode),
    ``store_get_s``, ``execute_s``, ``store_put_s`` — plus ``loads``, 1 when
    the manifest had to be decoded; summed per shard, never acted on.
``{"type": "pong", "token": T}``
    Heartbeat reply.
``{"type": "error", "seq": S, "message": TEXT}``
    Task ``S`` failed at the protocol level (e.g. an unreadable payload
    file).  Executable crashes never surface here — the sandbox converts
    those to fallback rows inside a normal ``result``.

Fault tolerance
===============

The coordinator applies results *at most once*: a task is retired the moment
its first ``result`` frame arrives, and any later frame for the same ``seq``
(a reassigned task whose original shard turned out to be merely slow) is
dropped.  Workers answer pings from a dedicated read loop while tasks
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
import signal
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
    _default_workers,
    _fetch_payload,
    _StreamBroadcast,
    chunk_from_spec,
    execute_chunk,
)
from repro.core.faults import FaultInjector, faulty_transport_factory
from repro.core.resilience import CircuitBreaker, RetryPolicy
from repro.errors import RemoteShardError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cache import ChunkStore
    from repro.sandbox.environment import ExecutionContext, SandboxRunner
    from repro.video.chunking import Chunk


def _env_float(name: str, default: float) -> float:
    """A positive float from the environment, or ``default``.

    ``PRIVID_HEARTBEAT_TIMEOUT`` / ``PRIVID_STARTUP_GRACE`` let slow CI
    runners widen the failure-detection windows without touching code.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw)
    except ValueError:
        warnings.warn(f"ignoring invalid {name}={raw!r} (expected a number)",
                      RuntimeWarning, stacklevel=2)
        return default
    if value <= 0:
        warnings.warn(f"ignoring non-positive {name}={raw!r}",
                      RuntimeWarning, stacklevel=2)
        return default
    return value

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


#: Command line of a worker process.  -c rather than -m: runpy would
#: re-execute a module the repro.core package __init__ already imported
#: (and warn about it).  Extra arguments are forwarded to :func:`main`.
_WORKER_COMMAND = [sys.executable, "-c",
                   "from repro.core.remote import main; main()"]

#: Default dial schedule of :class:`TcpTransport`: three attempts spanning
#: roughly a third of a second — enough to bridge a daemon restart without
#: stalling a genuinely-dead endpoint for long (the per-address circuit
#: breaker takes over across stream starts).
DIAL_RETRY_POLICY = RetryPolicy(max_attempts=3, base_delay=0.1,
                                multiplier=2.0, max_delay=1.0, jitter=0.25)


@runtime_checkable
class ShardTransport(Protocol):
    """The byte-stream seam between the coordinator and one shard worker.

    A transport moves whole protocol frames in both directions and answers
    liveness questions about its far end; everything above it — dispatch,
    heartbeats, reassignment, at-most-once application — is
    transport-agnostic.  ``read`` blocks until a frame arrives and returns
    None on a clean or torn EOF (worker exit, socket disconnect); ``write``
    raises :class:`OSError` when the far end is gone.  ``process`` is the
    worker subprocess when this transport owns one (pipe workers, locally
    spawned TCP daemons) and None for a connection to a foreign daemon.
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


class PipeTransport:
    """A shard worker subprocess framed over its stdin/stdout pipes.

    The original (and default) transport: the worker runs this module's
    pipe-mode entrypoint, lives exactly as long as the coordinator wants it
    to, and is killed outright when declared dead.  Behaviour-preserving
    with respect to the pre-seam engine: same command line, same
    environment, same shutdown escalation.
    """

    def __init__(self) -> None:
        self.process: subprocess.Popen = subprocess.Popen(
            _WORKER_COMMAND, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=_worker_env())
        self.description = f"pipe:pid={self.process.pid}"

    def read(self) -> dict[str, Any] | None:
        stream = self.process.stdout
        assert stream is not None
        return read_frame(stream)

    def write(self, message: dict[str, Any]) -> int:
        stdin = self.process.stdin
        assert stdin is not None
        return write_frame(stdin, message)

    def is_alive(self) -> bool:
        return self.process.poll() is None

    def kill(self) -> None:
        try:
            self.process.kill()
        except OSError:
            pass

    def close(self, timeout: float = 5.0) -> None:
        try:
            self.write({"type": "shutdown"})
            assert self.process.stdin is not None
            self.process.stdin.close()
        except (OSError, ValueError):
            pass
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


class TcpTransport:
    """A socket connection to a shard daemon (``--listen`` mode).

    The multi-host transport: the daemon may be on any reachable host, and
    several coordinators may hold connections to it at once (it serves each
    connection independently).  ``kill`` severs this connection — which the
    daemon survives, unless this transport spawned it locally and therefore
    owns the process.  Socket errors on read surface as EOF, so a vanished
    daemon looks exactly like an exited pipe worker to the layers above.

    Dialing retries with bounded exponential backoff (``retry``, default
    :data:`DIAL_RETRY_POLICY`): a daemon mid-restart refuses connections for
    a moment, and a single-attempt dial would misread that as permanently
    unreachable.  Pass ``RetryPolicy(max_attempts=1)`` to dial exactly once.
    """

    def __init__(self, host: str, port: int, *, connect_timeout: float = 10.0,
                 process: subprocess.Popen | None = None,
                 retry: RetryPolicy | None = None) -> None:
        self.host = host
        self.port = port
        self.process = process
        self.description = f"tcp://{host}:{port}"
        self._closed = False
        policy = retry if retry is not None else DIAL_RETRY_POLICY
        try:
            self._sock = policy.call(
                lambda: socket.create_connection((host, port),
                                                 timeout=connect_timeout),
                retry_on=(OSError,), token=f"{host}:{port}")
        except OSError:
            # A connection that never opened must not leave a daemon this
            # factory already spawned running forever.
            if process is not None:
                try:
                    process.kill()
                except OSError:
                    pass
            raise
        self._sock.settimeout(None)
        self._rfile: BinaryIO = self._sock.makefile("rb")
        self._wfile: BinaryIO = self._sock.makefile("wb")

    def read(self) -> dict[str, Any] | None:
        try:
            return read_frame(self._rfile)
        except (OSError, ValueError):
            # A reset or locally closed socket reads as EOF: the coordinator
            # handles both through the same death path.
            return None

    def write(self, message: dict[str, Any]) -> int:
        if self._closed:
            raise OSError("transport is closed")
        return write_frame(self._wfile, message)

    def is_alive(self) -> bool:
        if self._closed:
            return False
        if self.process is not None and self.process.poll() is not None:
            return False
        return True

    def _teardown(self) -> None:
        self._closed = True
        for close in (self._wfile.close, self._rfile.close, self._sock.close):
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

    def close(self, timeout: float = 5.0) -> None:
        try:
            self.write({"type": "shutdown"})
        except (OSError, ValueError):
            pass
        self._teardown()
        if self.process is not None:
            # Ours, so it dies with us: SIGTERM drains and exits.
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


#: Marker line a daemon prints on stdout once its listening socket is bound;
#: the local-TCP factory parses the host and port off it (port 0 requests).
_LISTENING_MARKER = "PRIVID-SHARD-LISTENING"


def parse_address(text: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (port required; host defaults to all interfaces)."""
    host, separator, port_text = text.strip().rpartition(":")
    if not separator:
        raise ValueError(f"shard address {text!r} is not of the form HOST:PORT")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValueError(f"invalid port in shard address {text!r}") from exc
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range in shard address {text!r}")
    return host or "0.0.0.0", port


def spawn_local_daemon(host: str = "127.0.0.1") -> TcpTransport:
    """Spawn a shard daemon on an ephemeral localhost port and connect to it.

    The transport of ``sharded:tcp[:N]``: every byte crosses a real socket
    (exercising the exact multi-host wire path) while lifecycle stays as
    self-contained as the pipe transport — the daemon is owned by the
    returned transport and dies with it.
    """
    process = subprocess.Popen(_WORKER_COMMAND + ["--listen", f"{host}:0"],
                               stdout=subprocess.PIPE, env=_worker_env())
    assert process.stdout is not None
    line = process.stdout.readline().decode("utf-8", "replace").split()
    if len(line) != 3 or line[0] != _LISTENING_MARKER:
        try:
            process.kill()
        except OSError:
            pass
        raise RemoteShardError(
            "shard daemon failed to start (no listening announcement)")
    return TcpTransport(line[1], int(line[2]), process=process)


# --------------------------------------------------------------- shard worker


def _handle_task(message: dict[str, Any], store: "ChunkStore | None") -> dict[str, Any]:
    """Execute one task frame and build its result frame.

    Mirrors the engine-side unit of work (``execute_chunk``) with one
    addition: when the coordinator shipped a shared-store spec, the shard
    checks the store before executing and writes successful results through,
    so shards over common storage serve and extend the same warm set.
    """
    clock = time.perf_counter
    started = clock()
    payload, decoded = _fetch_payload(message["payload"])
    stages = {"loads": int(decoded), "load_s": clock() - started,
              "store_get_s": 0.0, "execute_s": 0.0, "store_put_s": 0.0}
    runner = payload["runner"]
    context = payload["context"]
    objects = payload["objects"]
    outcomes: list[dict[str, Any]] = []
    for spec in message["specs"]:
        chunk = chunk_from_spec(objects, spec)
        rows = None
        key = None
        began = clock()
        if store is not None:
            key = store.key_for(runner, chunk, context)
            rows = store.get(key)
        fetched = clock()
        stages["store_get_s"] += fetched - began
        if rows is not None:
            # Shard-side cache classification: a coordinator-cold but
            # disk-warm key skips the execute entirely — the shard's local
            # view of the shared tier already holds the rows.
            outcomes.append({"rows": [dict(row) for row in rows],
                             "fallback": False, "cache_hit": True, "stored": True})
            continue
        outcome = execute_chunk(runner, chunk, context)
        executed = clock()
        stages["execute_s"] += executed - fetched
        stored = store is not None and key is not None and not outcome.fallback
        if stored:
            store.put(key, outcome.rows)
        stages["store_put_s"] += clock() - executed
        outcomes.append({"rows": [dict(row) for row in outcome.rows],
                         "fallback": outcome.fallback, "cache_hit": False,
                         "stored": stored})
    return {"type": "result", "seq": message["seq"], "outcomes": outcomes,
            "stages": stages}


def serve(stdin: BinaryIO, stdout: BinaryIO,
          tasks: "queue.Queue[dict[str, Any] | None] | None" = None) -> None:
    """The shard worker loop: read frames, execute tasks, write frames.

    Runs until ``shutdown`` or EOF.  Tasks execute on a separate thread so
    the read loop keeps answering heartbeat pings while a long batch runs —
    a busy shard must look *busy*, not *dead*, or the coordinator would
    kill healthy workers whenever one task outlives ``heartbeat_timeout``.
    Task failures are reported as ``error`` frames and the loop keeps
    serving — a bad payload path must not take the whole shard down with
    it.  Unknown message types are ignored so older workers tolerate newer
    coordinators.

    Callers may supply the ``tasks`` queue to observe the in-flight work
    from outside: every queued task is accounted with ``task_done()`` only
    after its result (or error) frame has been flushed, so
    ``tasks.join()`` is exactly "every accepted task has been answered" —
    the primitive the daemon's SIGTERM graceful drain is built on.
    """
    write_lock = threading.Lock()
    if tasks is None:
        tasks = queue.Queue()
    state: dict[str, "ChunkStore | None"] = {"store": None}

    def send(message: dict[str, Any]) -> None:
        with write_lock:
            write_frame(stdout, message)

    def execute_loop() -> None:
        while True:
            message = tasks.get()
            if message is None:
                tasks.task_done()
                return
            try:
                try:
                    reply = _handle_task(message, state["store"])
                except Exception:
                    reply = {"type": "error", "seq": message.get("seq"),
                             "message": traceback.format_exc(limit=20)}
                try:
                    send(reply)
                except Exception:
                    # The reply itself could not be serialized or written
                    # (e.g. a result frame over MAX_FRAME_BYTES).  Report it
                    # as a task error so the coordinator can retry/fail the
                    # seq; if even that fails the pipe is gone — exit so the
                    # coordinator sees EOF and reassigns, rather than hanging
                    # behind a read loop that keeps answering pings.
                    try:
                        send({"type": "error", "seq": message.get("seq"),
                              "message":
                              "shard could not send its result frame:\n"
                              + traceback.format_exc(limit=5)})
                    except Exception:
                        os._exit(1)
            finally:
                tasks.task_done()

    executor = threading.Thread(target=execute_loop, name="privid-shard-executor",
                                daemon=True)
    executor.start()
    try:
        while True:
            message = read_frame(stdin)
            if message is None:
                return
            kind = message.get("type")
            if kind == "shutdown":
                return
            if kind == "ping":
                send({"type": "pong", "token": message.get("token")})
            elif kind == "store":
                from repro.core.cache import create_cache

                try:
                    state["store"] = create_cache(message.get("spec"))
                except (ValueError, OSError):
                    # The shard still works without the shared store — it
                    # just recomputes — but the coordinator must hear about
                    # the misconfiguration rather than silently losing the
                    # warm-sharing property.
                    state["store"] = None
                    send({"type": "error", "seq": None,
                          "message": "shard could not open shared store "
                                     f"{message.get('spec')!r}:\n"
                                     + traceback.format_exc(limit=5)})
            elif kind == "task":
                tasks.put(message)
    finally:
        tasks.put(None)
        executor.join(timeout=5.0)


def _serve_connection(connection: socket.socket,
                      tasks: "queue.Queue[dict[str, Any] | None] | None" = None,
                      ) -> None:
    """Serve one coordinator connection of a TCP daemon until it ends."""
    rfile = connection.makefile("rb")
    wfile = connection.makefile("wb")
    try:
        serve(rfile, wfile, tasks)
    except OSError:
        pass
    finally:
        for close in (wfile.close, rfile.close, connection.close):
            try:
                close()
            except OSError:
                pass


def listen(address: str) -> None:
    """Daemon mode: accept coordinator connections and serve each one.

    Binds ``HOST:PORT`` (port 0 picks an ephemeral port), announces the
    bound address on stdout as ``PRIVID-SHARD-LISTENING HOST PORT``, then
    serves every accepted connection on its own thread — a long-lived shard
    host several coordinators can attach to concurrently, each getting an
    independent worker loop.  Runs until the process is terminated.

    ``SIGTERM`` triggers a *graceful drain* rather than an abrupt death: the
    listening socket closes (no new coordinators), every connection's
    in-flight task runs to completion and its result frame is flushed
    (``tasks.join()`` — see :func:`serve`), the connections are then shut
    down so each worker loop sees EOF, and the process exits 0.  A
    coordinator mid-task therefore gets its answer instead of a torn
    stream, and orchestrators (systemd, Kubernetes) observe a clean stop.
    """
    host, port = parse_address(address)
    server = socket.create_server((host, port))
    bound = server.getsockname()

    draining = threading.Event()
    registry_lock = threading.Lock()
    connections: list[tuple[socket.socket,
                            "queue.Queue[dict[str, Any] | None]",
                            threading.Thread]] = []

    def _on_sigterm(signum: int, frame: Any) -> None:
        draining.set()
        # Closing the listening socket is async-signal-safe enough here (it
        # only marks the fd) and unblocks accept() with OSError, which is
        # the drain's entry into the finally block below.
        server.close()

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        # Not the main thread (embedded/test use): run without a drain
        # hook; the process-level default disposition applies.
        pass

    print(f"{_LISTENING_MARKER} {bound[0]} {bound[1]}", flush=True)
    try:
        while True:
            try:
                connection, _ = server.accept()
            except OSError:
                if draining.is_set():
                    break
                raise
            tasks: "queue.Queue[dict[str, Any] | None]" = queue.Queue()
            thread = threading.Thread(target=_serve_connection,
                                      args=(connection, tasks),
                                      name="privid-shard-connection",
                                      daemon=True)
            with registry_lock:
                connections.append((connection, tasks, thread))
            thread.start()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        server.close()
        if draining.is_set():
            with registry_lock:
                pending = list(connections)
            for connection, tasks, thread in pending:
                # Every accepted task answers before the stream closes:
                # join() returns once the worker has flushed each result
                # (or error) frame, so nothing in flight is torn.
                tasks.join()
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
                thread.join(timeout=5.0)


def main(argv: list[str] | None = None) -> None:
    """Entrypoint of ``python -m repro.core.remote`` (one shard worker).

    Without arguments, runs the pipe-mode worker: the protocol owns fd 1, so
    the original stdout is duplicated for frames and fd 1 is redirected to
    stderr — an executable that prints can never corrupt the frame stream.
    With ``--listen HOST:PORT``, runs the TCP daemon instead (socket frames
    need no fd juggling; prints go to the daemon's own stdout/stderr).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.remote",
        description="Privid executor shard worker (pipe mode) or daemon "
                    "(--listen mode).")
    parser.add_argument("--listen", metavar="HOST:PORT", default=None,
                        help="run as a TCP shard daemon bound to HOST:PORT "
                             "(port 0 picks an ephemeral port, announced on "
                             "stdout) instead of a stdin/stdout pipe worker")
    args = parser.parse_args(argv)
    if args.listen is not None:
        listen(args.listen)
        return
    protocol_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    serve(sys.stdin.buffer, protocol_out)


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
    writes need no lock of their own.  ``slot`` is the transport-factory
    index this shard fills in address-pinned (TCP) mode, None for the
    interchangeable pipe workers.
    """

    def __init__(self, shard_id: int, transport: ShardTransport,
                 inbox: "queue.Queue[tuple[int, Any]]", stats: DispatchStats,
                 *, slot: int | None = None) -> None:
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
#: a batch shares its task's fate on reassignment, so sharded batches stay
#: smaller than the process engine's.
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

    Shards sit behind the :class:`ShardTransport` seam.  By default
    (``sharded[:N]``) each shard is a :class:`PipeTransport` worker
    subprocess; :meth:`connect` (``sharded:HOST:PORT,...``) attaches to
    already-running TCP daemons instead, and :meth:`local_tcp`
    (``sharded:tcp[:N]``) spawns localhost daemons and connects over real
    sockets.  Scheduling, fault handling and results are identical across
    transports — the wire protocol is the same bytes either way.

    Shards are spawned lazily on first use and persist across queries, like
    the pool engines; :meth:`shutdown` (or the context manager form)
    terminates them.  Dead shards are replaced at the start of the next
    stream (pipe workers respawn; TCP slots reconnect to their daemon — a
    slot whose daemon stays unreachable is skipped with a warning as long
    as at least one shard remains).  ``heartbeat_interval`` /
    ``heartbeat_timeout`` bound how long a silent shard holding work
    survives before its tasks are reassigned — workers answer pings while
    executing, so only a frozen or vanished shard ever reads as silent, and
    a shard that has not yet produced its first frame (still importing its
    dependencies) is judged against the longer ``startup_grace``;
    ``max_task_retries`` bounds redispatches per task before *the stream
    that owns the task* fails with :class:`~repro.errors.RemoteShardError`.

    ``chunksize`` fixes the per-task spec batch.  The default adapts: with a
    ``count_hint``, ``count_hint // (4 * shards)`` capped at 8 (smaller than
    the process engine's cap because a whole batch is redispatched when its
    shard dies); with none — every stream a store classifies, since only the
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
                 transport_labels: "list[str] | None" = None,
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
            self.num_shards = len(transports)
        else:
            self.num_shards = num_shards if num_shards is not None \
                else _default_workers()
        if transport_labels is not None and (
                transports is None or len(transport_labels) != len(transports)):
            raise ValueError("transport_labels must match the transport list")
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if chunksize is not None and chunksize <= 0:
            raise ValueError("chunksize must be positive")
        if in_flight_window is not None and in_flight_window <= 0:
            raise ValueError("in_flight_window must be positive")
        # The failure-detection windows default from the environment
        # (PRIVID_HEARTBEAT_TIMEOUT / PRIVID_STARTUP_GRACE) so slow CI
        # runners can widen them without code changes; explicit arguments
        # win over the environment.
        if heartbeat_timeout is None:
            heartbeat_timeout = _env_float("PRIVID_HEARTBEAT_TIMEOUT", 10.0)
        if startup_grace is None:
            startup_grace = _env_float("PRIVID_STARTUP_GRACE", 60.0)
        if heartbeat_interval <= 0 or heartbeat_timeout <= 0 or startup_grace <= 0:
            raise ValueError("heartbeat intervals must be positive")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        self.name = "sharded"
        #: Per-slot transport factories (TCP mode); None means the pipe
        #: default, where workers are interchangeable and respawn freely.
        self._transport_factories = list(transports) if transports is not None \
            else None
        self._transport_labels = list(transport_labels) \
            if transport_labels is not None else None
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
        #: Per-endpoint circuit breakers (keyed by slot label), consulted
        #: before every spawn/dial: an endpoint that failed
        #: ``breaker_threshold`` consecutive times is skipped without
        #: dialing until ``breaker_reset`` seconds pass, then probed
        #: half-open.  States surface in ``dispatch_stats_dict``/``health``.
        self.breaker_threshold = breaker_threshold
        self.breaker_reset = breaker_reset
        self._breakers: dict[str, CircuitBreaker] = {}
        #: Optional chaos seam: when set (constructor or
        #: :meth:`set_fault_injector`, before first use), every transport
        #: this engine opens is wrapped in a
        #: :class:`~repro.core.faults.FaultyTransport` and connects are
        #: polled against the plan.
        self._fault_injector = fault_injector
        #: Engine-wide IPC accounting (every task frame sent to any shard).
        self.dispatch_stats = DispatchStats()
        #: Chunks whose rows a shard served from its local view of the
        #: shared store without executing (shard-side cache classification).
        self.shard_cache_hits = 0
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
        self._store_spec: str | None = None
        self._publisher = _BroadcastPublisher(same_host=transports is None)

    @classmethod
    def connect(cls, addresses: Iterable[str], **kwargs: Any) -> "ShardedEngine":
        """Coordinator connect mode: one shard per already-running daemon.

        ``addresses`` are ``HOST:PORT`` strings of shard daemons started
        with ``python -m repro.core.remote --listen HOST:PORT`` — this is
        the literal multi-host deployment, reachable through the spec string
        ``sharded:HOST:PORT[,HOST:PORT...]``.  Connections are opened
        lazily at first use and re-opened per slot at stream start after a
        disconnect.
        """
        parsed = [parse_address(address) for address in addresses]
        if not parsed:
            raise ValueError("connect() needs at least one shard address")

        def factory(host: str, port: int) -> Callable[[], ShardTransport]:
            return lambda: TcpTransport(host, port)

        return cls(transports=[factory(host, port) for host, port in parsed],
                   transport_labels=[f"{host}:{port}" for host, port in parsed],
                   **kwargs)

    @classmethod
    def local_tcp(cls, num_shards: int | None = None, **kwargs: Any
                  ) -> "ShardedEngine":
        """Spawn N localhost TCP daemons and connect to them (``sharded:tcp``).

        Every frame crosses a real socket — the exact wire path of a
        multi-host deployment — while the daemons' lifecycle stays bound to
        this engine, so tests and single-host runs need no external setup.
        """
        count = num_shards if num_shards is not None else _default_workers()
        if count <= 0:
            raise ValueError("num_shards must be positive")
        return cls(transports=[spawn_local_daemon] * count,
                   transport_labels=[f"tcp{index}" for index in range(count)],
                   **kwargs)

    # ------------------------------------------------------------- shard pool

    def _slot_label(self, slot: int | None) -> str:
        """Breaker key of one endpoint: its address/label, or the pipe pool."""
        if slot is None:
            return "pipe"
        if self._transport_labels is not None:
            return self._transport_labels[slot]
        return f"slot{slot}"

    def _spawn_shard(self, slot: int | None = None) -> _Shard | None:
        """Open one shard (pipe spawn or TCP connect); None if unreachable.

        Every endpoint sits behind a per-label circuit breaker: after
        ``breaker_threshold`` consecutive spawn/dial failures the endpoint
        is skipped without dialing until ``breaker_reset`` passes, then a
        single half-open probe decides.  With a fault injector installed,
        the transport factory is additionally routed through the plan
        (connect faults) and the built transport wrapped for frame faults.
        """
        factory: Callable[[], ShardTransport]
        label = self._slot_label(slot)
        if self._transport_factories is None:
            factory = PipeTransport
            # Per-worker fault site: a respawned pipe worker is a new
            # endpoint with fresh (deterministic) operation counters.
            site = f"transport.worker{self._next_shard_id}"
        else:
            assert slot is not None
            factory = self._transport_factories[slot]
            site = f"transport.{label}"
        breaker = self._breakers.get(label)
        if breaker is None:
            breaker = CircuitBreaker(failure_threshold=self.breaker_threshold,
                                     reset_timeout=self.breaker_reset)
            self._breakers[label] = breaker
        if not breaker.allow():
            warnings.warn(f"shard endpoint {label!r} skipped: circuit breaker "
                          "open after repeated failures",
                          RuntimeWarning, stacklevel=2)
            return None
        if self._fault_injector is not None:
            factory = faulty_transport_factory(factory, self._fault_injector,
                                               site)
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
        if self._store_spec:
            try:
                shard.send({"type": "store", "spec": self._store_spec})
            except OSError:
                self._mark_dead(shard)
        return shard

    def _ensure_shards(self) -> None:
        """Top the pool back up to ``num_shards`` live workers (stream start)."""
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
                self._mark_dead(shard, kill=False)
        for shard_id in [sid for sid, shard in self._shards.items() if not shard.alive]:
            del self._shards[shard_id]
        if self._transport_factories is None:
            # One spawn attempt per missing slot, *bounded*: a spawn can fail
            # (fork failure, injected connect fault, open breaker), and an
            # until-full loop would spin forever on a persistent failure.
            missing = self.num_shards \
                - sum(1 for shard in self._shards.values() if shard.alive)
            for _ in range(missing):
                self._spawn_shard()
            if not self._live_shards():
                raise RemoteShardError(
                    "no shard worker could be started "
                    f"(all {self.num_shards} spawns failed)")
            return
        # Address-pinned mode: one shard per transport slot.  A slot whose
        # daemon is unreachable right now is skipped (its work lands on the
        # survivors) and retried at the next stream start.
        filled = {shard.slot for shard in self._live_shards()}
        for slot in range(len(self._transport_factories)):
            if slot not in filled:
                self._spawn_shard(slot)
        if not self._live_shards():
            raise RemoteShardError(
                "no shard endpoint is reachable (all "
                f"{len(self._transport_factories)} daemons are down)")

    def _live_shards(self) -> list[_Shard]:
        return [shard for shard in self._shards.values() if shard.alive]

    def share_store(self, store: "ChunkStore | str | None") -> None:
        """Point every shard at the shareable tier of a chunk result store.

        Accepts a store instance (reduced via
        :func:`repro.core.cache.shared_spec` to its cross-process portion —
        the disk directory; a pure in-memory cache reduces to nothing and is
        ignored) or a spec string.  ``PrividSystem`` calls this
        automatically for engines it built from a spec string, so
        ``PrividSystem(engine="sharded:4", cache="tiered:PATH")`` gives
        every shard a local LRU over the same warm directory; an engine
        *instance* handed to several systems is shared property, so those
        callers pick the store to share themselves.
        """
        if store is None or isinstance(store, str):
            spec = store or None
        else:
            from repro.core.cache import shared_spec

            spec = shared_spec(store)
        with self._lock:
            self._store_spec = spec
            if spec:
                for shard in self._live_shards():
                    try:
                        shard.send({"type": "store", "spec": spec})
                    except OSError:
                        self._mark_dead(shard)

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

    def _mark_dead(self, shard: _Shard, *, kill: bool = True) -> None:
        """Retire a shard and redispatch every task it still held."""
        if not shard.alive:
            return
        shard.alive = False
        if kill:
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
                self._mark_dead(shard, kill=True)
            return
        shard.last_seen = time.monotonic()
        shard.started = True
        kind = message.get("type")
        if kind == "result":
            seq = message.get("seq")
            task = self._tasks.pop(seq, None)
            if task is None:
                return  # stale duplicate of a reassigned task: at-most-once
            for entry in self._shards.values():
                entry.pending.pop(seq, None)
            outcomes = [
                ChunkOutcome(rows=outcome["rows"], fallback=bool(outcome["fallback"]),
                             stored=bool(outcome.get("stored")),
                             cache_hit=bool(outcome.get("cache_hit")))
                for outcome in message["outcomes"]]
            self.shard_cache_hits += sum(1 for outcome in outcomes
                                         if outcome.cache_hit)
            shard.stats.record_stages(message.get("stages"))
            self.dispatch_stats.record_stages(message.get("stages"))
            self._ready[seq] = outcomes
        elif kind == "error":
            seq = message.get("seq")
            if seq is None:
                # A shard-level complaint not tied to a task (e.g. it could
                # not open the shared store and will recompute instead of
                # sharing warm entries): surface it, don't swallow it.
                warnings.warn(f"shard {shard_id}: "
                              f"{str(message.get('message', '')).strip()}",
                              RuntimeWarning, stacklevel=2)
                return
            task = self._tasks.get(seq)
            # Only the task's *current* owner may fail it: a stale error
            # from a previous owner (which died right after sending, with
            # the task already redispatched) must not burn a retry or
            # double-dispatch while the new owner's result is in flight.
            if task is not None and task.shard_id == shard_id:
                for entry in self._shards.values():
                    entry.pending.pop(seq, None)
                self._retry(task, exclude=shard_id,
                            reason=str(message.get("message", "")).strip())
        # "pong" (and unknown types) only needed the last_seen refresh above.

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
                self._mark_dead(shard, kill=False)
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
            # Single-chunk streams run inline, like every pool engine.
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

    def map_chunks(self, runner: "SandboxRunner", chunks: Iterable["Chunk"],
                   context: "ExecutionContext") -> list[ChunkOutcome]:
        """Run every chunk through the shard pool, in chunk order (batch)."""
        return list(self.imap_chunks(runner, chunks, context))

    # -------------------------------------------------------------- lifecycle

    def reset_dispatch_stats(self) -> None:
        """Zero the engine-wide and per-shard IPC counters."""
        with self._lock:
            self.dispatch_stats = DispatchStats()
            self.shard_cache_hits = 0
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
        been used and is below strength, or any endpoint breaker is not
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
        records where every byte of a sweep actually went (the
        ``sharded_dispatch`` section of ``BENCH_pipeline.json``).
        ``shard_cache_hits`` counts chunks a shard answered from its local
        view of the shared store without executing; ``breakers`` is the
        per-endpoint circuit-breaker state (empty until shards spawn).
        """
        with self._lock:
            return {**self.dispatch_stats.as_dict(),
                    "shard_cache_hits": self.shard_cache_hits,
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

    * ``None`` / ``N`` — N pipe-transport worker subprocesses (``sharded``,
      ``sharded:4``);
    * ``tcp`` / ``tcp:N`` — N locally spawned TCP daemons (``sharded:tcp:2``);
    * ``HOST:PORT[,HOST:PORT...]`` — connect to already-running daemons
      (``sharded:hostA:9101,hostB:9101``).  Addresses are parsed eagerly
      (typos fail fast) but dialed lazily at first use.
    """
    if suffix is None or isinstance(suffix, int):
        return ShardedEngine(suffix)
    if suffix == "tcp":
        return ShardedEngine.local_tcp()
    if suffix.startswith("tcp:"):
        count_text = suffix[len("tcp:"):]
        try:
            count = int(count_text)
        except ValueError:
            raise ValueError(
                f"invalid sharded:tcp worker count {count_text!r}") from None
        return ShardedEngine.local_tcp(count)
    addresses = [part.strip() for part in suffix.split(",") if part.strip()]
    if not addresses:
        raise ValueError(f"invalid sharded engine spec suffix {suffix!r}")
    return ShardedEngine.connect(addresses)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    main()
