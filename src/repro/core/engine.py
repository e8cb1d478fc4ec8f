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
:class:`_BroadcastPublisher` pickles each footage *state* and each distinct
stream *manifest* (runner, context, masks, regions) once and keeps the
bytes; the sharded engine writes each to a shard's own socket before the
first task there that names it, and workers keep what they decoded, so a
repeat stream pays dispatch only: per-dispatch messages are the manifest
ref plus a few ints and floats per chunk (:class:`_StreamBroadcast` /
:func:`chunk_from_spec`).  No engine creates a file or a shared-memory
segment.

Engines are deliberately ignorant of caching — the
:class:`~repro.core.cache.ChunkResultCache` filters out memoized chunks before
the engine ever sees them (see ``SandboxRunner.iter_chunk_rows``).
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Protocol, \
    runtime_checkable

from repro.utils import checks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sandbox.environment import ExecutionContext, SandboxRunner
    from repro.video.chunking import Chunk


@dataclass
class ChunkOutcome:
    """Rows of one chunk execution plus whether they are safe to memoize.

    ``fallback`` marks the schema-default rows substituted on a crash or a
    timeout; those can be transient (a wall-clock overrun on a loaded
    machine), so the result cache must never store them.
    """

    #: The chunk's schema-coerced rows, each a dict keyed in schema order and
    #: then ``chunk`` and ``region`` (the trusted stamp).
    rows: list[dict[str, Any]]
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

#: Worker-side payloads by ref, as ``payload`` frames pushed them (pickled
#: bytes until first use, then the decoded object) less what their ``drop``
#: lists named: the coordinator alone decides what a worker holds.  The lock
#: keeps a decode from putting back an entry a ``drop`` removed meanwhile.
_PAYLOAD_CACHE: dict[str, Any] = {}
_PAYLOAD_CACHE_LOCK = threading.Lock()

#: Bytes one engine keeps published between streams; past it the least
#: recently used payloads no open stream pins are forgotten.
_PUBLISHED_BYTES_LIMIT = 32 * 1024 * 1024


def _hold_payload(ref: str, data: bytes, drop: Iterable[str]) -> None:
    """Apply a ``payload`` frame: forget the refs in ``drop``, keep ``data`` under ``ref``."""
    with _PAYLOAD_CACHE_LOCK:
        for old in drop:
            _PAYLOAD_CACHE.pop(old, None)
        _PAYLOAD_CACHE[ref] = data


def _fetch_payload(ref: str) -> tuple[Any, bool]:
    """One pushed payload, and whether this call had to decode it.

    ``ref`` names a footage part or a stream manifest.  Decoding a manifest
    pulls the parts it names through this same table (:class:`_PartRef`),
    so a worker decodes a footage state once however many streams name it.
    """
    payload = _PAYLOAD_CACHE.get(ref)
    if payload is None:
        raise LookupError(f"payload {ref!r} was never pushed to this shard")
    if not isinstance(payload, bytes):
        return payload, False
    decoded = pickle.loads(payload)
    with _PAYLOAD_CACHE_LOCK:
        if _PAYLOAD_CACHE.get(ref) is payload:
            _PAYLOAD_CACHE[ref] = decoded
    return decoded, True


def _load_payload(ref: str) -> Any:
    """Decode (and memoize) one pushed payload in this process."""
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
    """One published payload: its pickled bytes, the refs a task naming it
    needs (a manifest's parts, then itself) and how many open streams pin it."""

    ref: str
    data: bytes
    needs: tuple[str, ...]
    keep: Any  # the footage a part was pickled from; keeps the id() in its key sound
    pins: int = 0


class _BroadcastPublisher:
    """An engine's registry of heavy pickled constants, each written to a
    shard's own socket once (``docs/architecture.md``, "Spec dispatch").

    Footage travels *by reference*: each video is pickled once per footage
    **state** (its ``id()`` plus its ``content_token``, which
    ``add_objects`` renews) as its own *part*.  The rest of a stream's
    constants — a kilobyte or two — travel *by value* in a *manifest* whose
    pickle names the parts by ref (:class:`_PartRef`) and which is keyed by
    the sha256 of its own bytes: an identical repeat stream publishes
    nothing.  A ref is fresh per publication, so a ref a shard holds cannot
    name other bytes.  A stream pins what it is handed until it releases;
    past :data:`_PUBLISHED_BYTES_LIMIT` unpinned payloads are forgotten
    least recently used first, and :meth:`close` forgets the rest.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[Any, _Published]" = OrderedDict()  # LRU first
        self._by_ref: dict[str, _Published] = {}
        self._refs = count()
        #: Streams of concurrent service threads publish through one engine.
        self._lock = threading.Lock()

    def publish(self, key: Any, produce: Callable[[], bytes],
                stream: "_StreamBroadcast", keep: Any = None,
                parts: tuple[str, ...] = ()) -> str:
        """Ref of the payload under ``key``, pinned for ``stream``; published
        from ``produce()`` first (a manifest naming ``parts``) if no live
        entry has that key."""
        with self._lock:
            fresh = key not in self._entries
            if fresh:
                data, ref = produce(), f"p{next(self._refs)}"
                self._entries[key] = self._by_ref[ref] = _Published(ref, data, (*parts, ref), keep)
                stream.stats.broadcasts += 1
                stream.stats.broadcast_bytes += len(data)
            entry = self._entries[key]
            self._entries.move_to_end(key)
            if entry not in stream.pinned:
                entry.pins += 1
                stream.pinned.append(entry)
                stream.stats.broadcast_reuses += not fresh
            self._evict()
            return entry.ref

    def _evict(self) -> None:
        excess = sum(len(entry.data) for entry in self._entries.values()) - _PUBLISHED_BYTES_LIMIT
        for key, entry in list(self._entries.items()):
            if excess > 0 and not entry.pins:
                del self._entries[key], self._by_ref[entry.ref]
                excess -= len(entry.data)

    def needs(self, ref: str) -> tuple[str, ...]:
        """The refs a task naming ``ref`` needs, parts first (none when it is
        not published).  Entries never change, so lookups take no lock."""
        entry = self._by_ref.get(ref)
        return () if entry is None else entry.needs

    def data(self, ref: str) -> bytes:
        """The pickled bytes published under ``ref``."""
        return self._by_ref[ref].data

    def pinned(self) -> set[str]:
        """The refs some open stream pins."""
        with self._lock:
            return {entry.ref for entry in self._entries.values() if entry.pins}

    def release(self, stream: "_StreamBroadcast") -> None:
        """Unpin what a stream was handed (call only after all its tasks
        resolved); it stays published for the next one, down to the bound."""
        with self._lock:
            for entry in stream.pinned:
                entry.pins -= 1
            stream.pinned.clear()
            self._evict()

    def close(self) -> None:
        """Forget everything published (the publisher stays usable)."""
        with self._lock:
            self._entries.clear()
            self._by_ref.clear()


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
            parts = tuple(str(obj) for obj in self._objects if isinstance(obj, _PartRef))
            self._ref = self._publisher.publish(
                hashlib.sha256(data).digest(), lambda: data, self, parts=parts)
        return self._ref


#: What a shard's result frame reports under ``stages`` (see ``core/remote.py``).
_STAGE_NAMES = ("loads", "load_s", "execute_s")


@dataclass
class DispatchStats:
    """IPC accounting of the sharded engine, engine-wide and per shard.

    ``payload_bytes_*`` measure the per-dispatch message (payload ref +
    chunk specs).  ``broadcasts`` / ``broadcast_bytes`` count payloads (parts
    and manifests) and bytes *published*; a stream handed a payload already
    published counts a ``broadcast_reuses`` and no bytes.  ``pushes`` /
    ``push_bytes`` count the ``payload`` frames written to shards and their
    wire bytes.  ``stages`` sums what shards report on result frames — pure
    observation, never fed back.
    """

    dispatches: int = 0
    chunks: int = 0
    payload_bytes_total: int = 0
    payload_bytes_max: int = 0
    broadcasts: int = 0
    broadcast_bytes: int = 0
    broadcast_reuses: int = 0
    pushes: int = 0
    push_bytes: int = 0
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


def _make_serial(workers: int | None) -> ExecutionEngine:
    if workers is not None:
        raise ValueError("the serial engine takes no worker count")
    return SerialEngine()


def _make_sharded(workers: int | None) -> ExecutionEngine:
    # Imported lazily: remote builds on this module.
    from repro.core.remote import ShardedEngine

    return ShardedEngine(workers)


#: Spec kind -> factory of the ``:N`` suffix (None when absent).  ``thread``
#: and ``process`` name local shards.
_ENGINE_FACTORIES: dict[str, Callable[[int | None], ExecutionEngine]] = {
    "serial": _make_serial,
    "thread": _make_sharded,
    "process": _make_sharded,
    "sharded": _make_sharded,
}


def create_engine(spec: str | ExecutionEngine | None) -> ExecutionEngine:
    """Build an engine from a spec string (``serial``, ``thread[:N]``,
    ``process[:N]`` or ``sharded[:N]``; all but the first name local
    shards).

    Passing an engine instance returns it unchanged; ``None`` or an empty
    string yields the default :class:`SerialEngine`.  The optional ``:N``
    suffix fixes the shard count (e.g. ``sharded:4``); ``process[:N]`` and
    ``thread[:N]`` are ``sharded[:N]`` under older names.  Any other
    suffix, a ``HOST:PORT`` list among them, is refused naming the spec: no
    shard is ever dialed.  This is the value of the ``engine=`` argument of
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
    factory = _ENGINE_FACTORIES.get(kind)
    if factory is None:
        expected = ", ".join(f"'{name}[:N]'" for name in sorted(_ENGINE_FACTORIES))
        raise ValueError(f"unknown execution engine {spec!r}; expected {expected}")
    if not workers_text:
        return factory(None)
    try:
        workers = int(workers_text)
    except ValueError:
        raise ValueError(f"invalid engine spec {spec!r}: the suffix is a shard "
                         "count ('kind[:N]'); shards are local, none is dialed") from None
    return factory(checks.count(f"the worker count of {spec!r}", workers, ValueError, 1))
