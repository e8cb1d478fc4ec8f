"""Pluggable chunk execution engines.

Privid's privacy argument requires every chunk to be processed by an
*independent* instance of the analyst's executable whose only input is that
chunk (Appendix B).  Independence makes the split-process stage embarrassingly
parallel: no chunk's output can depend on another chunk's, so the engine that
schedules chunk work is free to reorder, batch, or distribute it, as long as
the concatenated rows come back in chunk order.

:func:`create_engine` builds an engine from a spec string (``sharded:4``)
over a fixed table of kinds:

* :class:`SerialEngine` (``serial``) — one chunk at a time (the default, and
  the reference behaviour every other engine must reproduce bit for bit);
* :class:`repro.core.remote.ShardedEngine` (``sharded[:N]``, and
  ``process[:N]`` and ``thread[:N]`` as its older names) — a coordinator
  that partitions the chunk stream across N executor shard subprocesses
  speaking a length-prefixed JSON protocol (the single-host stand-in for a
  multi-host deployment), with heartbeat-driven failure detection and
  at-most-once result application.  Everything a stream references must
  pickle; every scene does, because dynamic attributes are declarative
  :mod:`repro.scene.schedules` objects.  A stream that cannot pickle runs
  on ``serial``.

Every engine exposes one entry point, :meth:`~ExecutionEngine.imap_chunks`,
an *ordered streaming map* that pulls chunks lazily from an iterable and
yields outcomes as the head of the stream completes, holding at most a
bounded in-flight window of chunks alive.  Streaming is what keeps memory and
time-to-first-result independent of the query window length: SPLIT produces
chunks on demand (``repro.video.chunking.iter_chunks``) and the executor
appends rows per chunk as outcomes arrive.

Shards do **not** receive pickled chunks.  An engine-lifetime
:class:`_BroadcastPublisher` ships each footage *state* and each distinct
stream *manifest* (runner, context, masks, regions) once, and workers keep
what they decoded, so a repeat stream pays dispatch only: per-dispatch
messages are the manifest ref plus a few ints and floats per chunk
(:class:`_StreamBroadcast` / :func:`chunk_from_spec`).

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
from collections import OrderedDict
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Protocol, \
    runtime_checkable

try:
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - platform without POSIX shared memory
    resource_tracker = shared_memory = None  # type: ignore[assignment]

from repro.relational.table import ColumnarRows
from repro.utils import checks

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
    machine), so the result cache must never store them.
    """

    rows: "list[dict[str, Any]] | ColumnarRows"
    fallback: bool = False


def execute_chunk(runner: "SandboxRunner", chunk: "Chunk",
                  context: "ExecutionContext") -> ChunkOutcome:
    """The pure unit of work every engine schedules (shard workers too).

    Determinism comes from the runner building a fresh executable instance
    and a freshly seeded detector per chunk, so the result depends only on
    the arguments — never on scheduling order.
    """
    return runner.run_chunk_outcome(chunk, context)


#: A compact description of one chunk, shipped to shard workers in place of
#: the chunk object: (video ref, index, interval start, interval end, mask
#: ref, region ref or None, sample period).
ChunkSpecMessage = tuple

#: Worker-side LRU of decoded payloads, parts and manifests alike, keyed by
#: ref (never reused, so never stale).  A part is only useful beside a
#: manifest naming it: at most half are scenes.  A still-published ref reloads.
#: The lock keeps the LRU whole should two threads of one worker fetch at
#: once (a decode runs outside it).
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

    The single decoder of the :data:`ChunkSpecMessage` wire format, called
    by the shard worker (:mod:`repro.core.remote`).
    """
    from repro.utils.timebase import TimeInterval
    from repro.video.chunking import Chunk

    video_ref, index, start, end, mask_ref, region_ref, sample_period = spec
    return Chunk(
        video=objects[video_ref],
        index=index,
        interval=TimeInterval(start, end),
        mask=objects[mask_ref],
        region=None if region_ref is None else objects[region_ref],
        sample_period=sample_period,
    )


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

    The carrier is a named shared-memory segment each shard attaches, or a
    file in a private tempdir when no segment could be created (a full
    ``/dev/shm``).

    The publisher owns every name.  A stream pins what it is handed until it
    releases; past :data:`_PUBLISHED_BYTES_LIMIT` unpinned payloads are
    unlinked least recently used first; :meth:`close` (engine ``shutdown()``)
    and the finalizer (an engine dropped, or open at interpreter exit)
    unlink the rest; a SIGKILLed coordinator's segments fall to the resource
    tracker, which has held their registration since creation.
    """

    def __init__(self) -> None:
        self._shared = shared_memory is not None
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
        )

    def payload_ref(self) -> str:
        """Ref of a manifest covering every slot handed out so far."""
        if self._ref is None:
            data = pickle.dumps(self._manifest, protocol=pickle.HIGHEST_PROTOCOL)
            self._ref = self._publisher.publish(
                hashlib.sha256(data).digest(), lambda: data, self)
        return self._ref


#: What a shard's result frame reports under ``stages`` (see ``core/remote.py``).
_STAGE_NAMES = ("loads", "load_s", "execute_s")


@dataclass
class DispatchStats:
    """IPC accounting of the sharded engine, engine-wide and per shard.

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
        """Add one result frame's stage times: only the names a shard reports
        (a frame is outside input, so any other name or value is ignored)."""
        if isinstance(stages, dict):
            for name in _STAGE_NAMES:
                value = stages.get(name)
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


@dataclass
class SerialEngine:
    """Processes chunks one at a time on the calling thread (reference engine)."""

    name: str = field(default="serial", init=False)

    def imap_chunks(self, runner: "SandboxRunner", chunks: Iterable["Chunk"],
                    context: "ExecutionContext", *,
                    count_hint: int | None = None) -> Iterator[ChunkOutcome]:
        for chunk in chunks:
            yield execute_chunk(runner, chunk, context)

    def shutdown(self) -> None:
        """No pools to release; present so every engine shuts down uniformly."""

    def __enter__(self) -> "SerialEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


def _int_worker_count(kind: str, workers: int | str | None) -> int | None:
    """Reject non-integer spec suffixes for kinds that only take ``:N``."""
    if isinstance(workers, str):
        raise ValueError(
            f"invalid engine worker count {workers!r} in a {kind!r} spec")
    return workers


def _make_serial(workers: int | str | None) -> ExecutionEngine:
    if _int_worker_count("serial", workers) is not None:
        raise ValueError("the serial engine takes no worker count")
    return SerialEngine()


def _make_sharded(workers: int | str | None) -> ExecutionEngine:
    # Imported lazily: remote builds on this module.
    from repro.core.remote import sharded_engine_from_spec

    return sharded_engine_from_spec(workers)


def _make_local_shards(kind: str) -> Callable[[int | str | None], ExecutionEngine]:
    """``kind[:N]``, an older name of ``sharded[:N]`` that takes no address."""
    return lambda workers: _make_sharded(_int_worker_count(kind, workers))


#: Spec kind -> factory of the ``:N`` suffix (an int, the raw string when it
#: is not one, or None when absent).  ``thread`` and ``process`` name local
#: shards.
_ENGINE_FACTORIES: dict[str, Callable[[int | str | None], ExecutionEngine]] = {
    "serial": _make_serial,
    "thread": _make_local_shards("thread"),
    "process": _make_local_shards("process"),
    "sharded": _make_sharded,
}


def create_engine(spec: str | ExecutionEngine | None) -> ExecutionEngine:
    """Build an engine from a spec string (``serial``, ``thread[:N]``,
    ``process[:N]`` or ``sharded[:N]``; all but the first name local
    shards).

    Passing an engine instance returns it unchanged; ``None`` or an empty
    string yields the default :class:`SerialEngine`.  The optional ``:N``
    suffix fixes the shard count (e.g. ``sharded:4``); ``process[:N]`` and
    ``thread[:N]`` are ``sharded[:N]`` under older names.
    A non-integer suffix is handed to the kind's factory verbatim (the
    sharded engine rejects it, naming the spec).  This
    is the value of the ``engine=`` argument of ``PrividSystem`` and of the
    ``PRIVID_ENGINE`` benchmark knob.
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
        if isinstance(workers, int):
            checks.count(f"the worker count of {spec!r}", workers, ValueError, 1)
    factory = _ENGINE_FACTORIES.get(kind)
    if factory is None:
        expected = ", ".join(f"'{name}[:N]'" for name in sorted(_ENGINE_FACTORIES))
        raise ValueError(f"unknown execution engine {spec!r}; expected {expected}")
    return factory(workers)
