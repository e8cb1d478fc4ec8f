"""Pluggable chunk execution engines.

Privid's privacy argument requires every chunk to be processed by an
*independent* instance of the analyst's executable whose only input is that
chunk (Appendix B).  Independence makes the split-process stage embarrassingly
parallel: no chunk's output can depend on another chunk's, so the engine that
schedules chunk work is free to reorder, batch, or distribute it, as long as
the concatenated rows come back in chunk order.

Engines are selected through a registry of named factories
(:func:`register_engine` / :func:`create_engine`, spec strings like
``thread:8``).  Four kinds ship with the library:

* :class:`SerialEngine` (``serial``) — one chunk at a time (the default, and
  the reference behaviour every other engine must reproduce bit for bit);
* :class:`ThreadPoolEngine` (``thread[:N]``) — a shared thread pool, useful
  when executables release the GIL or block on I/O;
* :class:`ProcessPoolEngine` (``process[:N]``) — a process pool for CPU-bound
  executables; the unit of work must be picklable.  All bundled scenes
  qualify — dynamic attributes are declarative :mod:`repro.scene.schedules`
  objects — but a scene hand-built with closure-valued dynamic attributes is
  not, and should use the thread or serial engines.
* :class:`repro.core.remote.ShardedEngine` (``sharded[:N]``) — a coordinator
  that partitions the chunk stream across N executor shard subprocesses
  speaking a length-prefixed JSON protocol (the single-host stand-in for a
  multi-host deployment), with heartbeat-driven failure detection and
  at-most-once result application.

Every engine exposes two entry points: :meth:`~ExecutionEngine.imap_chunks`,
an *ordered streaming map* that pulls chunks lazily from an iterable and
yields outcomes as the head of the stream completes, holding at most a
bounded in-flight window of chunks alive; and
:meth:`~ExecutionEngine.map_chunks`, a thin ``list(imap_chunks(...))``
adapter for callers that want the batch.  Streaming is what keeps memory and
time-to-first-result independent of the query window length: SPLIT produces
chunks on demand (``repro.video.chunking.iter_chunks``) and the executor
appends rows per chunk as outcomes arrive.

The multi-process engines do **not** pickle chunks to their workers.  An
engine-lifetime :class:`_BroadcastPublisher` ships each footage *state* and
each distinct stream *manifest* (runner, context, masks, regions) once, and
workers keep what they decoded, so a repeat stream pays dispatch only:
per-dispatch messages are the manifest ref plus a few ints and floats per
chunk (:class:`_StreamBroadcast` / ``_execute_chunk_specs``).  The
per-future batch size defaults to an adaptive heuristic (``count_chunks //
(4 * workers)``, capped at 32) fed by the caller's ``count_hint``; a fixed
``chunksize`` overrides it.

Engines are deliberately ignorant of caching — the
:class:`~repro.core.cache.ChunkResultCache` filters out memoized chunks before
the engine ever sees them (see ``SandboxRunner.iter_chunk_rows``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
import threading
import uuid
import weakref
from collections import OrderedDict, deque
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import wait as wait_futures
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Protocol, Sized, \
    runtime_checkable

try:
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - platform without POSIX shared memory
    resource_tracker = shared_memory = None  # type: ignore[assignment]

from repro.relational.table import ColumnarRows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sandbox.environment import ExecutionContext, SandboxRunner
    from repro.video.chunking import Chunk

#: The output of one chunk's sandboxed execution: schema-coerced, stamped
#: rows — a list of row dicts, or the columnar twin from the batch
#: row-emission path (iterates and compares exactly like the dict list).
ChunkRows = list[dict[str, Any]] | ColumnarRows


@dataclass
class ChunkOutcome:
    """Rows of one chunk execution plus whether they are safe to memoize.

    ``fallback`` marks the schema-default rows substituted on a crash or a
    timeout; those can be transient (a wall-clock overrun on a loaded
    machine), so the result cache must never store them.  ``stored`` marks
    rows an engine already persisted in the shared tier of the caller's
    chunk store (sharded shards write through — see
    :meth:`repro.core.remote.ShardedEngine.share_store`), so the caller
    should only promote them into its memory tier instead of writing the
    same entry to disk again.  ``cache_hit`` marks rows a shard served from
    its local view of the shared store without executing at all
    (coordinator-cold / disk-warm keys) — an observability flag that never
    changes the rows.
    """

    rows: "list[dict[str, Any]] | ColumnarRows"
    fallback: bool = False
    stored: bool = False
    cache_hit: bool = False


def execute_chunk(runner: "SandboxRunner", chunk: "Chunk",
                  context: "ExecutionContext") -> ChunkOutcome:
    """The pure unit of work every engine schedules.

    Module-level (rather than a bound method) so process pools can pickle it;
    determinism comes from the runner building a fresh executable instance and
    a freshly seeded detector per chunk, so the result depends only on the
    arguments — never on scheduling order.
    """
    return runner.run_chunk_outcome(chunk, context)


def _execute_chunk_thread(runner: "SandboxRunner", chunk: "Chunk",
                          context: "ExecutionContext") -> ChunkOutcome:
    """Thread-pool unit of work: time out on per-thread CPU time.

    Concurrent threads share the GIL, so a chunk's wall-clock elapsed time is
    inflated by its neighbours; measuring the thread's own CPU time keeps the
    TIMEOUT check equivalent to an uncontended serial run and preserves the
    engines-produce-identical-results guarantee.
    """
    return runner.run_chunk_outcome(chunk, context, thread_clock=True)


def _execute_chunk_list_thread(runner: "SandboxRunner", chunks: list["Chunk"],
                               context: "ExecutionContext") -> list[ChunkOutcome]:
    """Thread-pool unit of work over a batch (per-thread CPU-time TIMEOUT)."""
    return [_execute_chunk_thread(runner, chunk, context) for chunk in chunks]


#: A compact description of one chunk, shipped to process-pool workers in
#: place of the chunk object: (video ref, index, interval start, interval
#: end, mask ref, region ref or None, sample period, metadata or None).
ChunkSpecMessage = tuple

#: Worker-side LRU of decoded payloads, parts and manifests alike, keyed by
#: ref (never reused, so never stale).  A part is only useful beside a
#: manifest naming it: at most half are scenes.  A still-published ref reloads.
#: A TCP daemon's connection threads share it, hence the lock.
_PAYLOAD_CACHE: "OrderedDict[str, Any]" = OrderedDict()
_PAYLOAD_CACHE_LIMIT = 16
_PAYLOAD_CACHE_LOCK = threading.Lock()

#: Payload-ref scheme marking a shared-memory segment name rather than a
#: file path (``shm:privid-bc-...``).
_SHM_REF_PREFIX = "shm:"

#: Bytes one engine keeps published between streams; past it the least
#: recently used payloads no open stream pins are unlinked.
_PUBLISHED_BYTES_LIMIT = 32 * 1024 * 1024


def _attach_segment(name: str) -> "shared_memory.SharedMemory":
    """Attach an existing broadcast segment without adopting its lifecycle.

    Attaching registers the segment with this process's resource tracker
    (Python < 3.13 has no ``track=False``), which would unlink the creator's
    segment when this worker exits — and forked workers share the parent's
    tracker daemon, so a register/unregister pair from the worker would also
    corrupt the creator's own bookkeeping.  Suppressing registration during
    the attach keeps ownership where it belongs: only the coordinator ever
    tells the tracker about the segment, and only it unlinks.
    """
    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def _fetch_payload(ref: str) -> tuple[Any, bool]:
    """One published payload, and whether this call had to decode it.

    ``ref`` names a footage part or a stream manifest, as a payload file
    path or a ``shm:NAME`` segment ref (unpickled straight out of the
    attached segment).  Decoding a manifest pulls the parts it names through
    this same cache (:class:`_PartRef`), so a worker decodes a footage state
    once however many streams name it.  The decode runs outside the lock
    (it re-enters for those parts): two threads may decode one ref at once,
    which costs time; a torn LRU would cost the worker.
    """
    with _PAYLOAD_CACHE_LOCK:
        payload = _PAYLOAD_CACHE.get(ref)
        if payload is not None:
            _PAYLOAD_CACHE.move_to_end(ref)
            return payload, False
    if ref.startswith(_SHM_REF_PREFIX):
        segment = _attach_segment(ref[len(_SHM_REF_PREFIX):])
        try:
            payload = pickle.loads(segment.buf)
        finally:
            segment.close()
    else:
        with open(ref, "rb") as handle:
            payload = pickle.load(handle)
    with _PAYLOAD_CACHE_LOCK:
        _PAYLOAD_CACHE[ref] = payload
        while len(_PAYLOAD_CACHE) > _PAYLOAD_CACHE_LIMIT:
            _PAYLOAD_CACHE.popitem(last=False)
    return payload, True


def _load_payload(ref: str) -> Any:
    """Decode (and memoize) one published payload in this process."""
    return _fetch_payload(ref)[0]


def chunk_from_spec(objects: list[Any], spec: ChunkSpecMessage) -> "Chunk":
    """Rebuild one chunk from its compact spec against the broadcast objects.

    The single decoder of the :data:`ChunkSpecMessage` wire format, shared
    by the process-pool worker below and the sharded shard worker
    (:mod:`repro.core.remote`) — the two must never diverge.
    """
    from repro.utils.timebase import TimeInterval
    from repro.video.chunking import Chunk

    video_ref, index, start, end, mask_ref, region_ref, sample_period, metadata = spec
    return Chunk(
        video=objects[video_ref],
        index=index,
        interval=TimeInterval(start, end),
        mask=objects[mask_ref],
        region=None if region_ref is None else objects[region_ref],
        sample_period=sample_period,
        metadata=metadata if metadata is not None else {},
    )


def _execute_chunk_specs(ref: str, specs: list[ChunkSpecMessage]
                         ) -> list[ChunkOutcome]:
    """Process-pool unit of work: rebuild chunks from compact specs.

    The heavy stream constants (runner, context, videos, masks, regions)
    come from the manifest published at ``ref``; the per-dispatch message is
    just this function's arguments.
    """
    payload = _load_payload(ref)
    runner = payload["runner"]
    context = payload["context"]
    objects = payload["objects"]
    return [execute_chunk(runner, chunk_from_spec(objects, spec), context)
            for spec in specs]


@dataclass(eq=False)
class _Published:
    """One published payload and how many open streams pin it."""

    ref: str
    size: int
    unlink: Callable[[], None]  # drops the name; attached workers keep their mappings
    keep: Any  # the footage a part was pickled from; keeps the id() in its key sound
    pins: int = 0


def _unpublish_all(entries: "OrderedDict[Any, _Published]", directory: str,
                   owner_pid: int) -> None:
    """Unlink every payload and remove the payload directory."""
    if os.getpid() != owner_pid:
        return  # a forked child never owns its parent's publications
    for entry in entries.values():
        with suppress(OSError):  # already gone
            entry.unlink()
    entries.clear()
    shutil.rmtree(directory, ignore_errors=True)


class _BroadcastPublisher:
    """An engine's out-of-band publication of heavy pickled constants
    (``docs/architecture.md``, "Spec dispatch").

    Footage travels *by reference*: each video is pickled and published once
    per footage **state** (its ``id()`` plus its ``content_token``, which
    ``add_objects`` renews) as its own *part*.  The rest of a stream's
    constants — a kilobyte or two — travel *by value* in a *manifest* whose
    pickle names the parts by ref (:class:`_PartRef`) and which is keyed by
    the sha256 of its own bytes: an identical repeat stream publishes
    nothing.  A ref is a fresh uuid per publication, so a worker-cached ref
    cannot name other bytes.

    The carrier follows the transport: same-host workers attach a named
    shared-memory segment; TCP daemons (possibly remote) read a file, as
    does anyone when a segment could not be created.

    The publisher owns every name.  A stream pins what it is handed until it
    releases; past :data:`_PUBLISHED_BYTES_LIMIT` unpinned payloads are
    unlinked least recently used first; :meth:`close` (engine ``shutdown()``)
    and the finalizer (an engine dropped, or open at interpreter exit)
    unlink the rest; a SIGKILLed coordinator's segments fall to the resource
    tracker, which has held their registration since creation.
    """

    def __init__(self, *, same_host: bool = True) -> None:
        self._shared = same_host and shared_memory is not None
        self._directory = os.path.join(tempfile.gettempdir(),
                                       f"privid-task-{uuid.uuid4().hex}")
        self._entries: "OrderedDict[Any, _Published]" = OrderedDict()  # LRU first
        #: Streams of concurrent service threads publish through one engine.
        self._lock = threading.Lock()
        weakref.finalize(self, _unpublish_all, self._entries, self._directory,
                         os.getpid())

    def publish(self, key: Any, produce: Callable[[], bytes],
                stream: "_StreamBroadcast", keep: Any = None) -> str:
        """Ref of the payload under ``key``, pinned for ``stream``; published
        from ``produce()`` first if no live entry has that key."""
        with self._lock:
            fresh = key not in self._entries
            if fresh:
                self._entries[key] = self._carry(produce(), keep, stream.stats)
            entry = self._entries[key]
            self._entries.move_to_end(key)
            if entry not in stream.pinned:
                entry.pins += 1
                stream.pinned.append(entry)
                stream.stats.broadcast_reuses += not fresh
            self._evict()
            return entry.ref

    def _carry(self, data: bytes, keep: Any, stats: "DispatchStats") -> _Published:
        name = f"privid-bc-{uuid.uuid4().hex}"
        stats.broadcasts += 1
        stats.broadcast_bytes += len(data)
        if self._shared:
            try:
                segment = shared_memory.SharedMemory(name=name, create=True,
                                                     size=len(data))
            except OSError:
                pass  # a full /dev/shm must not kill a broadcast: use the tempdir
            else:
                segment.buf[:len(data)] = data
                segment.close()  # only the name is kept; workers map it themselves
                stats.shm_segments += 1
                return _Published(_SHM_REF_PREFIX + name, len(data), segment.unlink, keep)
        os.makedirs(self._directory, mode=0o700, exist_ok=True)
        path = os.path.join(self._directory, f"{name}.pkl")
        with open(path, "wb") as handle:
            handle.write(data)
        return _Published(path, len(data), partial(os.unlink, path), keep)

    def _evict(self) -> None:
        excess = sum(entry.size for entry in self._entries.values()) - _PUBLISHED_BYTES_LIMIT
        for key, entry in list(self._entries.items()):
            if excess > 0 and not entry.pins:
                del self._entries[key]
                excess -= entry.size
                with suppress(OSError):  # already gone
                    entry.unlink()

    def release(self, stream: "_StreamBroadcast") -> None:
        """Unpin what a stream was handed (call only after all its tasks
        resolved); it stays published for the next one, down to the bound."""
        with self._lock:
            for entry in stream.pinned:
                entry.pins -= 1
            stream.pinned.clear()
            self._evict()

    def close(self) -> None:
        """Unlink everything published (the publisher stays usable)."""
        with self._lock:
            _unpublish_all(self._entries, self._directory, os.getpid())


class _PartRef(str):
    """A part's ref in a manifest's object list: it pickles as the call that
    loads the part through the worker's cache."""

    def __reduce__(self) -> tuple[Callable[[str], Any], tuple[str]]:
        return _load_payload, (str(self),)


class _StreamBroadcast:
    """One stream's side of the publisher: :meth:`chunk_spec` per chunk,
    :meth:`payload_ref` per dispatch, the publisher's ``release`` once no task
    is outstanding; what it publishes and reuses is counted on ``stats``.

    Each distinct heavy object the stream references gets a small integer
    slot in the manifest.  An unseen object — or a seen one in a new footage
    state (``add_objects`` mid-stream) — takes a new slot and makes the
    manifest stale; a slot names one footage state for good, so chunks
    specced before a mutation run on the footage they were cut from.
    """

    def __init__(self, publisher: _BroadcastPublisher, runner: "SandboxRunner",
                 context: "ExecutionContext", stats: "DispatchStats") -> None:
        self._publisher = publisher
        self.stats = stats
        #: Per slot, the object itself or its part's ref; these references
        #: (and the pinned parts' ``keep``) keep the id()-keyed slots sound.
        self._objects: list[Any] = []
        self._manifest = {"runner": runner, "context": context, "objects": self._objects}
        self._slots: dict[tuple[int, Any], int] = {}
        self._ref: str | None = None  # the current manifest; None when stale
        self.pinned: list[_Published] = []

    def _slot_for(self, obj: Any) -> int:
        # Footage (a ``content_token``) goes by reference, the rest by value.
        token = getattr(obj, "content_token", None)
        key = (id(obj), token)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(self._objects)
            self._objects.append(obj if token is None else _PartRef(
                self._publisher.publish(
                    key, lambda: pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
                    self, keep=obj)))
            self._ref = None
        return slot

    def chunk_spec(self, chunk: "Chunk") -> ChunkSpecMessage:
        """The compact per-chunk dispatch message."""
        region = chunk.region
        return (
            self._slot_for(chunk.video),
            chunk.index,
            chunk.interval.start,
            chunk.interval.end,
            self._slot_for(chunk.mask),
            None if region is None else self._slot_for(region),
            chunk.sample_period,
            dict(chunk.metadata) if chunk.metadata else None,
        )

    def payload_ref(self) -> str:
        """Ref of a manifest covering every slot handed out so far."""
        if self._ref is None:
            data = pickle.dumps(self._manifest, protocol=pickle.HIGHEST_PROTOCOL)
            self._ref = self._publisher.publish(
                hashlib.sha256(data).digest(), lambda: data, self)
        return self._ref


@dataclass
class DispatchStats:
    """IPC accounting of a multi-process engine (process pool or shards).

    ``payload_bytes_*`` measure the per-dispatch message (payload ref +
    chunk specs).  ``broadcasts`` / ``broadcast_bytes`` count payloads (parts
    and manifests) and bytes *published*; a stream handed a payload already
    published counts a ``broadcast_reuses`` and no bytes.  ``stages`` sums
    what shards report on result frames — pure observation, never fed back.
    """

    dispatches: int = 0
    chunks: int = 0
    payload_bytes_total: int = 0
    payload_bytes_max: int = 0
    broadcasts: int = 0
    broadcast_bytes: int = 0
    broadcast_reuses: int = 0
    shm_segments: int = 0
    stages: dict[str, float] = field(default_factory=dict)

    def record_dispatch(self, payload_bytes: int, chunks: int) -> None:
        self.dispatches += 1
        self.chunks += chunks
        self.payload_bytes_total += payload_bytes
        if payload_bytes > self.payload_bytes_max:
            self.payload_bytes_max = payload_bytes

    def record_stages(self, stages: Any) -> None:
        """Add one result frame's stage times (anything else is ignored)."""
        if isinstance(stages, dict):
            for name, value in stages.items():
                if isinstance(value, (int, float)):
                    self.stages[name] = self.stages.get(name, 0) + value

    @property
    def payload_bytes_mean(self) -> float:
        """Mean pickled bytes per dispatch (0.0 before any dispatch)."""
        return self.payload_bytes_total / self.dispatches if self.dispatches else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {**asdict(self), "payload_bytes_mean": round(self.payload_bytes_mean, 1)}


@runtime_checkable
class ExecutionEngine(Protocol):
    """Schedules independent chunk executions and preserves chunk order."""

    name: str

    def imap_chunks(self, runner: "SandboxRunner", chunks: Iterable["Chunk"],
                    context: "ExecutionContext", *,
                    count_hint: int | None = None) -> Iterator[ChunkOutcome]:
        """Stream outcomes in chunk order, pulling chunks lazily.

        At most the engine's in-flight window of chunks may be materialized
        (pulled from ``chunks`` but not yet yielded) at any moment.
        ``count_hint`` is the expected chunk count when the caller knows it
        (``None`` whenever a store classifies the stream: the engine sees
        only the misses) — engines may use it to size batches.
        """
        ...  # pragma: no cover - protocol

    def map_chunks(self, runner: "SandboxRunner", chunks: Iterable["Chunk"],
                   context: "ExecutionContext") -> list[ChunkOutcome]:
        """Run every chunk through the runner, returning outcomes in chunk order."""
        ...  # pragma: no cover - protocol


@dataclass
class SerialEngine:
    """Processes chunks one at a time on the calling thread (reference engine)."""

    name: str = field(default="serial", init=False)

    def imap_chunks(self, runner: "SandboxRunner", chunks: Iterable["Chunk"],
                    context: "ExecutionContext", *,
                    count_hint: int | None = None) -> Iterator[ChunkOutcome]:
        for chunk in chunks:
            yield execute_chunk(runner, chunk, context)

    def map_chunks(self, runner: "SandboxRunner", chunks: Iterable["Chunk"],
                   context: "ExecutionContext") -> list[ChunkOutcome]:
        return list(self.imap_chunks(runner, chunks, context))

    def shutdown(self) -> None:
        """No pools to release; present so every engine shuts down uniformly."""

    def __enter__(self) -> "SerialEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


def _default_workers() -> int:
    return max(2, (os.cpu_count() or 2))


def _stream_through_pool(pool_factory: Callable[[], Executor],
                         submit_batch_fn: Callable[[Executor, list["Chunk"]],
                                                   "Future[list[ChunkOutcome]]"],
                         runner: "SandboxRunner", chunks: Iterable["Chunk"],
                         context: "ExecutionContext", *,
                         window: int, batch_size: int = 1,
                         on_finish: Callable[[], None] | None = None
                         ) -> Iterator[ChunkOutcome]:
    """Ordered streaming map over a (lazily created) executor pool.

    Chunks are pulled from the iterable only as in-flight slots free up, so
    at most ``window`` chunks are ever materialized-but-unyielded; outcomes
    are yielded strictly in chunk order (head-of-line completion).  A
    single-chunk stream runs inline without touching the pool, matching the
    historical short-circuit that keeps tiny queries pool-free.
    ``submit_batch_fn`` turns a batch of chunks into a future resolving to
    their outcomes; ``batch_size`` groups chunks per future to amortize IPC
    for process pools.  ``on_finish`` runs once no future is outstanding —
    on normal exhaustion or on early close — so per-stream resources (e.g.
    the pins on broadcast payloads) can be released safely.
    """
    iterator = iter(chunks)
    pending: deque[Any] = deque()  # futures, each resolving to a list of outcomes
    try:
        first = next(iterator, None)
        if first is None:
            return
        second = next(iterator, None)
        if second is None:
            yield execute_chunk(runner, first, context)
            return
        pool = pool_factory()
        window = max(window, batch_size)
        in_flight = 0
        batch: list["Chunk"] = []

        def submit_batch() -> None:
            nonlocal in_flight
            if batch:
                pending.append(submit_batch_fn(pool, list(batch)))
                in_flight += len(batch)
                batch.clear()

        replay: Iterator["Chunk"] = iter((first, second))
        exhausted = False
        while True:
            while not exhausted and in_flight + len(batch) < window:
                chunk = next(replay, None)
                if chunk is None:
                    replay = iterator
                    chunk = next(iterator, None)
                if chunk is None:
                    exhausted = True
                    break
                batch.append(chunk)
                if len(batch) >= batch_size:
                    submit_batch()
            submit_batch()
            if not pending:
                return
            for outcome in pending.popleft().result():
                in_flight -= 1
                yield outcome
    finally:
        if pending:
            # An early close (or an error) can leave futures running that
            # still need the stream's shared resources; wait them out before
            # on_finish reclaims anything.
            wait_futures(list(pending))
        if on_finish is not None:
            on_finish()


@dataclass
class ThreadPoolEngine:
    """Processes chunks on a persistent pool of threads.

    Python threads only overlap executables that release the GIL or wait on
    I/O; for the pure-Python synthetic executables the win is modest, but the
    engine exists so real deployments (whose detectors run in native code) get
    parallelism without pickling requirements.  TIMEOUT enforcement uses
    per-thread CPU time (see :func:`_execute_chunk_thread`), so an executable
    that merely *sleeps* past its timeout is only caught by the serial and
    process engines' wall clocks.

    The pool is created lazily on first use and reused across queries; call
    :meth:`shutdown` to release the worker threads early, or use the engine
    as a context manager (``with ThreadPoolEngine() as engine: ...``).

    ``in_flight_window`` bounds how many chunks may be materialized but not
    yet yielded by :meth:`imap_chunks` (default ``2 x workers``): enough to
    keep every worker busy while the head-of-line result is consumed, small
    enough that streaming a week-long window holds only a handful of chunks.
    """

    max_workers: int | None = None
    in_flight_window: int | None = None
    name: str = field(default="thread", init=False)
    _pool: ThreadPoolExecutor | None = field(default=None, init=False, repr=False,
                                             compare=False)
    _pool_lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                       repr=False, compare=False)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        # Locked: a service-layer engine is driven by concurrent query
        # threads, and two first-users must not each build a pool.
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers or _default_workers())
            return self._pool

    def _window(self) -> int:
        if self.in_flight_window is not None:
            if self.in_flight_window <= 0:
                raise ValueError("in_flight_window must be positive")
            return self.in_flight_window
        return 2 * (self.max_workers or _default_workers())

    def imap_chunks(self, runner: "SandboxRunner", chunks: Iterable["Chunk"],
                    context: "ExecutionContext", *,
                    count_hint: int | None = None) -> Iterator[ChunkOutcome]:
        def submit(pool: Executor, batch: list["Chunk"]) -> "Future[list[ChunkOutcome]]":
            return pool.submit(_execute_chunk_list_thread, runner, batch, context)

        return _stream_through_pool(self._ensure_pool, submit, runner, chunks,
                                    context, window=self._window())

    def map_chunks(self, runner: "SandboxRunner", chunks: Iterable["Chunk"],
                   context: "ExecutionContext") -> list[ChunkOutcome]:
        return list(self.imap_chunks(runner, chunks, context))

    def shutdown(self) -> None:
        """Release the worker threads (the pool is rebuilt on next use)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ThreadPoolEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


#: Per-future batch size when a stream's chunk count is unknown — which is
#: every stream a store classifies: ``SandboxRunner.iter_chunk_rows`` forwards
#: the executor's count only with no store, because behind one the engine
#: sees the misses and their number is unknowable.  ``process:N`` then
#: batches this many; shards ramp (``ShardedEngine._imap``).
_UNKNOWN_COUNT_CHUNKSIZE = 4

#: Upper bound of the adaptive chunksize heuristic — beyond this, larger
#: batches stop amortizing anything and only add head-of-line latency.
_MAX_ADAPTIVE_CHUNKSIZE = 32


@dataclass
class ProcessPoolEngine:
    """Processes chunks on a persistent pool of worker processes.

    Workers never receive pickled chunks: the heavy constants go out once
    through the engine's :class:`_BroadcastPublisher`, and every dispatch
    ships only the manifest ref plus compact per-chunk specs — a few ints
    and floats per chunk (``dispatch_stats`` records the actual bytes).
    Everything the stream references must still be picklable.

    ``chunksize`` batches chunks per future; the default (None) adapts to
    the stream: ``max(1, count_hint // (4 * workers))`` capped at 32, so
    small sweeps are not IPC-bound at one chunk per future while huge sweeps
    amortize scheduling.  The pool is created lazily on first use and reused
    across queries (worker spawn is far too expensive to pay per PROCESS
    statement); call :meth:`shutdown` to release the worker processes early,
    or use the engine as a context manager.

    ``in_flight_window`` bounds the chunks materialized-but-unyielded by
    :meth:`imap_chunks` (default ``2 x workers x batch size``, so every
    worker stays busy even with batched futures).
    """

    max_workers: int | None = None
    chunksize: int | None = None
    in_flight_window: int | None = None
    name: str = field(default="process", init=False)
    dispatch_stats: DispatchStats = field(default_factory=DispatchStats, init=False,
                                          repr=False, compare=False)
    _pool: ProcessPoolExecutor | None = field(default=None, init=False, repr=False,
                                              compare=False)
    _pool_lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                       repr=False, compare=False)
    _publisher: _BroadcastPublisher = field(default_factory=_BroadcastPublisher,
                                            init=False, repr=False, compare=False)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers or _default_workers())
            return self._pool

    def _effective_chunksize(self, count_hint: int | None) -> int:
        if self.chunksize is not None:
            return max(1, self.chunksize)
        if count_hint is None or count_hint <= 0:
            return _UNKNOWN_COUNT_CHUNKSIZE
        workers = self.max_workers or _default_workers()
        return max(1, min(_MAX_ADAPTIVE_CHUNKSIZE, count_hint // (4 * workers)))

    def _window(self, batch_size: int) -> int:
        if self.in_flight_window is not None:
            if self.in_flight_window <= 0:
                raise ValueError("in_flight_window must be positive")
            return self.in_flight_window
        return 2 * (self.max_workers or _default_workers()) * batch_size

    def reset_dispatch_stats(self) -> None:
        """Zero the per-dispatch IPC counters."""
        self.dispatch_stats = DispatchStats()

    def imap_chunks(self, runner: "SandboxRunner", chunks: Iterable["Chunk"],
                    context: "ExecutionContext", *,
                    count_hint: int | None = None) -> Iterator[ChunkOutcome]:
        if count_hint is None and isinstance(chunks, Sized):
            count_hint = len(chunks)
        stats = self.dispatch_stats
        broadcast = _StreamBroadcast(self._publisher, runner, context, stats)

        def submit(pool: Executor, batch: list["Chunk"]) -> "Future[list[ChunkOutcome]]":
            specs = [broadcast.chunk_spec(chunk) for chunk in batch]
            # Registering the specs may have discovered new heavy objects;
            # payload_ref() publishes a manifest covering them first.
            ref = broadcast.payload_ref()
            stats.record_dispatch(
                len(pickle.dumps((ref, specs), protocol=pickle.HIGHEST_PROTOCOL)),
                len(batch))
            return pool.submit(_execute_chunk_specs, ref, specs)

        batch_size = self._effective_chunksize(count_hint)
        return _stream_through_pool(self._ensure_pool, submit, runner, chunks,
                                    context, window=self._window(batch_size),
                                    batch_size=batch_size,
                                    on_finish=partial(self._publisher.release, broadcast))

    def map_chunks(self, runner: "SandboxRunner", chunks: Iterable["Chunk"],
                   context: "ExecutionContext") -> list[ChunkOutcome]:
        return list(self.imap_chunks(runner, chunks, context))

    def shutdown(self) -> None:
        """Release the worker processes and unlink what the engine published
        (both are rebuilt on next use)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self._publisher.close()

    def __enter__(self) -> "ProcessPoolEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


#: Factory signature of a registered engine kind: receives the parsed
#: ``:N`` worker count, the raw suffix string when it is not an integer
#: (transport addresses like ``sharded:hostA:9101,hostB:9101``), or None
#: when the spec had no suffix — and returns a ready engine instance.
EngineFactory = Callable[[int | str | None], ExecutionEngine]

_ENGINE_FACTORIES: dict[str, EngineFactory] = {}


def _int_worker_count(kind: str, workers: int | str | None) -> int | None:
    """Reject non-integer spec suffixes for kinds that only take ``:N``."""
    if isinstance(workers, str):
        raise ValueError(
            f"invalid engine worker count {workers!r} in a {kind!r} spec")
    return workers


def register_engine(kind: str, factory: EngineFactory, *, replace: bool = False) -> None:
    """Register an engine kind under the name spec strings select it by.

    ``create_engine(f"{kind}[:N]")`` will call ``factory(N)`` (``N`` is None
    when the spec has no worker suffix; a suffix that is not an integer is
    passed through as the raw string, so kinds like ``sharded`` can accept
    transport addresses).  The registry is how new execution backends plug
    in behind the engine seam without the executor knowing them —
    :class:`repro.core.remote.ShardedEngine` registers as ``"sharded"``
    this way, and deployments can add their own.
    """
    key = kind.strip().lower()
    if not key:
        raise ValueError("engine kind must be a non-empty string")
    if ":" in key:
        raise ValueError(f"engine kind {kind!r} must not contain ':'")
    if key in _ENGINE_FACTORIES and not replace:
        raise ValueError(f"engine kind {kind!r} is already registered")
    _ENGINE_FACTORIES[key] = factory


def engine_kinds() -> tuple[str, ...]:
    """The registered engine kinds, sorted (the valid spec-string prefixes)."""
    return tuple(sorted(_ENGINE_FACTORIES))


def _make_serial(workers: int | str | None) -> ExecutionEngine:
    if _int_worker_count("serial", workers) is not None:
        raise ValueError("the serial engine takes no worker count")
    return SerialEngine()


def _make_sharded(workers: int | str | None) -> ExecutionEngine:
    # Imported lazily: remote builds on this module, so the registry entry
    # must not import it at load time.
    from repro.core.remote import sharded_engine_from_spec

    return sharded_engine_from_spec(workers)


register_engine("serial", _make_serial)
register_engine("thread", lambda workers: ThreadPoolEngine(
    max_workers=_int_worker_count("thread", workers)))
register_engine("process", lambda workers: ProcessPoolEngine(
    max_workers=_int_worker_count("process", workers)))
register_engine("sharded", _make_sharded)


def create_engine(spec: str | ExecutionEngine | None) -> ExecutionEngine:
    """Build an engine from a spec string (``serial``, ``thread[:N]``,
    ``process[:N]``, ``sharded[:N]``, ``sharded:tcp[:N]``,
    ``sharded:HOST:PORT[,HOST:PORT...]``, or any :func:`register_engine`
    kind).

    Passing an engine instance returns it unchanged; ``None`` or an empty
    string yields the default :class:`SerialEngine`.  The optional ``:N``
    suffix fixes the worker (or shard) count (e.g. ``thread:8``,
    ``sharded:4``); a non-integer suffix is handed to the kind's factory
    verbatim, which is how the sharded engine's TCP transport specs ride
    the same seam.  This is the value of the ``engine=`` argument of
    ``PrividSystem`` and of the ``PRIVID_ENGINE`` benchmark knob.
    """
    if spec is None:
        return SerialEngine()
    if not isinstance(spec, str):
        return spec
    text = spec.strip().lower()
    if text == "":
        return SerialEngine()
    kind, _, workers_text = text.partition(":")
    workers: int | str | None = None
    if workers_text:
        try:
            workers = int(workers_text)
        except ValueError:
            workers = workers_text  # transport suffix; the factory decides
        if isinstance(workers, int) and workers <= 0:
            raise ValueError(f"engine worker count must be positive in spec {spec!r}")
    factory = _ENGINE_FACTORIES.get(kind)
    if factory is None:
        expected = ", ".join(f"'{name}[:N]'" for name in engine_kinds())
        raise ValueError(f"unknown execution engine {spec!r}; expected {expected}")
    return factory(workers)
