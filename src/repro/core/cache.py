"""Memoization of per-chunk sandbox outputs (memory, disk, and tiered).

Chunk processing is the dominant cost of every query, and it is a pure
function of the chunk's identity and the processing configuration: the same
(camera footage, chunk interval, mask, region, sample period) processed by the
same (executable, schema, max_rows, timeout) always yields the same rows,
because the sandbox builds a fresh executable instance and a freshly seeded
detector per chunk.  What-if sweeps (Fig. 6/7), repeated noise re-evaluations,
and overlapping query windows therefore re-process identical chunks over and
over; these stores memoize those executions so only genuinely new
(chunk, configuration) pairs ever reach an execution engine.

Three stores are provided, selectable on ``PrividSystem`` via ``cache=``
(an instance or a spec string, see :func:`create_cache`):

* :class:`ChunkResultCache` (``"memory"``) — the in-process LRU hot tier;
* :class:`DiskChunkStore` (``"disk:PATH"``) — fingerprint-named JSON entry
  files under a directory, shared across ``PrividSystem`` instances *and*
  processes; keys embed the footage's stable content fingerprint
  (``SyntheticVideo.content_fingerprint``), so mutated footage can never hit
  a stale entry;
* :class:`TieredChunkCache` (``"tiered:PATH"``) — memory in front of disk,
  promoting disk hits into the hot tier.

Disk-backed stores are also the sharing substrate of sharded execution:
:func:`shared_spec` reduces a store to the spec string of its cross-process
portion, which the sharded engine ships to its executor shards so every
shard reads and extends the same warm directory
(:meth:`repro.core.remote.ShardedEngine.share_store`).

No store ever affects privacy accounting — budgets are charged per release
by the executor regardless of whether the rows came from a cache — and they
hold only intermediate rows that never leave the system un-noised.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, fields, is_dataclass
from itertools import chain, count
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.faults import FaultInjector
    from repro.sandbox.environment import ExecutionContext, SandboxRunner
    from repro.video.chunking import Chunk

from repro.core.engine import ChunkRows
from repro.core.faults import FaultKind


def canonical_value(value: Any) -> Any:
    """Reduce a configuration value to a stable, hashable-repr structure.

    Handles the value shapes that appear in executable/detector/tracker
    configurations: scalars, enums, (nested) sequences and mappings, and
    dataclasses.  Callables are identified by qualified name (their identity
    in a registry), anything else by ``repr``.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, Enum):
        return (type(value).__name__, value.value)
    if is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,
                tuple((spec.name, canonical_value(getattr(value, spec.name)))
                      for spec in fields(value)))
    if isinstance(value, Mapping):
        return tuple(sorted((str(key), canonical_value(item))
                            for key, item in value.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [canonical_value(item) for item in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return tuple(items)
    if callable(value):
        return getattr(value, "__qualname__", repr(value))
    return repr(value)


def fingerprint(*parts: Any) -> str:
    """Stable hex digest of a sequence of canonicalized configuration parts."""
    canonical = repr(tuple(canonical_value(part) for part in parts))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _chunk_parts(chunk: "Chunk") -> tuple[tuple[Any, ...], ...]:
    """A chunk's canonical form as ``(head, own, tail, extra)`` part groups.

    ``head`` and ``tail`` are constant over a stream (per region of a region
    scheme); only ``own`` — index and interval — changes chunk to chunk.
    Concatenated in this order they name every entry of every store ever
    written, so the form grows only by parts that leave existing chunks'
    bytes alone: ``extra`` holds ``metadata`` (readable by the executable,
    set on no chunk the system itself builds) only when it is non-empty.
    """
    video = chunk.video
    footage_fingerprint = getattr(video, "content_fingerprint", None)
    footage_identity: Any = (footage_fingerprint() if callable(footage_fingerprint)
                             else getattr(video, "content_token", 0))
    interval = chunk.interval
    return ((video.name, footage_identity, video.fps, video.duration),
            (chunk.index, (interval.start, interval.end)),
            (chunk.mask, chunk.region, chunk.sample_period),
            (chunk.metadata,) if chunk.metadata else ())


def chunk_fingerprint(chunk: "Chunk") -> str:
    """Identity of one chunk's *visible content*.

    Footage is identified by the video's name and its stable content
    fingerprint — a digest of the ground-truth scene itself, identical
    across processes for identical footage and changed by any mutation
    (``SyntheticVideo.content_fingerprint``), which keeps distinct footage
    objects with equal names from colliding when a cache is shared and is
    the invalidation story for the on-disk store — plus everything that
    restricts what the executable can see: the interval, the mask, the
    spatial region, the frame sampling period, and any chunk metadata.
    Footage objects without a content fingerprint fall back to the
    session-unique ``content_token`` (entries for those are only valid
    within one process).
    """
    head, own, tail, extra = _chunk_parts(chunk)
    return fingerprint(*head, *own, *tail, *extra)


def runner_fingerprint(runner: "SandboxRunner") -> str:
    """Identity of the processing configuration applied to every chunk."""
    executable = runner.executable
    return fingerprint(
        getattr(executable, "name", type(executable).__name__),
        executable.config_fingerprint(),
        runner.schema,
        runner.max_rows,
        runner.timeout_seconds,
        runner.enforce_wall_clock,
    )


def context_fingerprint(context: "ExecutionContext") -> str:
    """Identity of the chunk-independent execution inputs."""
    return fingerprint(
        context.camera,
        context.fps,
        context.detector_config,
        context.tracker_config,
        context.metadata,
        context.detector_seed,
    )


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`ChunkResultCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of cache lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        """Counters plus hit rate, for benchmark tables and logs."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "hit_rate": round(self.hit_rate, 3)}


#: Stream-constant texts one context memoises before starting over: one per
#: (footage state, mask, region) it has served, and a context serves every
#: stream of its camera while the registration reads the same.
_KEY_TEXT_MEMO_LIMIT = 64


def _canonical_text(parts: tuple[Any, ...]) -> str:
    """``parts`` as they read inside :func:`fingerprint`'s canonical repr."""
    return ", ".join([repr(canonical_value(part)) for part in parts])


def chunk_key(runner: "SandboxRunner", chunk: "Chunk",
              context: "ExecutionContext") -> str:
    """Cache key of one chunk execution, shared by every store tier.

    Byte for byte ``fingerprint(chunk_fingerprint(chunk),
    runner_fingerprint(runner), context_fingerprint(context))`` — existing
    stores are addressed by those bytes — with everything constant over a
    ``(runner, context)`` stream canonicalised once per instance: the two
    stream fingerprints are memoised on their frozen instances, the chunk's
    constant text on the context, keyed by the head's *values* (so a
    mid-stream ``add_objects`` changes every later key) and the frozen mask
    and region's *identity* (pinned by the entry, so no id is reused under
    it).  The query path keeps those instances per registration
    (:func:`repro.sandbox.environment.kept_or_fresh`), so a chunk pays for
    its index, its interval and two ``sha256`` calls.
    """
    head, own, tail, extra = _chunk_parts(chunk)
    mask, region, sample_period = tail
    memo = context.key_text_memo
    memo_key = (head, id(mask), id(region), sample_period)
    texts = memo.get(memo_key)
    if texts is None:
        if len(memo) >= _KEY_TEXT_MEMO_LIMIT:
            memo.clear()
        texts = memo[memo_key] = (f"({_canonical_text(head)}, ",
                                  f", {_canonical_text(tail)}",
                                  mask, region)
    index, (start, end) = own
    if type(index) is int and type(start) is type(end) is float:
        # What _canonical_text(own) reads for the types every SPLIT produces.
        own_text = f"{index}, ({start!r}, {end!r})"
    else:
        own_text = _canonical_text(own)
    canonical = texts[0] + own_text + texts[1]
    if extra:
        canonical += ", " + _canonical_text(extra)
    chunk_digest = hashlib.sha256((canonical + ")").encode("utf-8")).hexdigest()
    return hashlib.sha256(
        f"('{chunk_digest}', '{runner.fingerprint}', '{context.fingerprint}')"
        .encode("utf-8")).hexdigest()


class ChunkResultCache:
    """LRU cache from (chunk, runner, context) identity to sandbox output rows.

    Rows are copied on the way in and on the way out so callers can mutate
    their tables without corrupting cached entries.  ``max_entries`` bounds
    memory; eviction is true LRU — a ``get`` refreshes the entry's recency
    (move-to-end), so a hot key survives any number of cold inserts.
    Thread-safe: a service deployment shares one memory tier across
    concurrent query threads, and LRU reordering during a concurrent insert
    would otherwise corrupt the OrderedDict.
    """

    def __init__(self, max_entries: int = 100_000) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, tuple[dict[str, Any], ...]] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def key_for(self, runner: "SandboxRunner", chunk: "Chunk",
                context: "ExecutionContext") -> str:
        """Cache key of one chunk execution."""
        return chunk_key(runner, chunk, context)

    def get(self, key: str) -> ChunkRows | None:
        """Rows cached under ``key`` (a fresh copy), or None on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
        return [dict(row) for row in entry]

    def put(self, key: str, rows: ChunkRows) -> None:
        """Store the rows of one chunk execution under ``key``."""
        entry = tuple(dict(row) for row in rows)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def promote(self, key: str, rows: ChunkRows) -> None:
        """Adopt rows already persisted elsewhere (this *is* the hot tier)."""
        self.put(key, rows)

    def clear(self) -> None:
        """Drop every entry (counters are kept; use ``reset_stats`` for those)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters."""
        with self._lock:
            self.stats = CacheStats()

    def stats_dict(self) -> dict[str, Any]:
        """Counters plus the live entry count, for ``PrividSystem.cache_stats``."""
        with self._lock:
            return {**self.stats.as_dict(), "entries": len(self._entries)}

    def health(self) -> dict[str, Any]:
        """Liveness snapshot of the memory tier (always writable)."""
        with self._lock:
            return {"tier": "memory", "writable": True,
                    "entries": len(self._entries)}


#: On-disk entry format version; bump on any change to the serialization so
#: stores written by older code read as misses instead of wrong rows.
_DISK_FORMAT = 1


def _read_json_entry(path: str) -> ChunkRows:
    """Read and parse one entry file (the only JSON parse in the store).

    A torn write cannot decode to other rows: an entry is one JSON object,
    and every strict prefix of a JSON object is invalid JSON, so a truncated
    file raises here and the store's self-heal path treats it as a miss.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        data = b""
        while piece := os.read(fd, 1 << 16):
            data += piece
    finally:
        os.close(fd)
    payload = json.loads(data)
    if not isinstance(payload, dict) or payload.get("format") != _DISK_FORMAT:
        raise ValueError("unknown disk store format")
    return [dict(row) for row in payload["rows"]]


class DiskChunkStore:
    """On-disk chunk result store: one fingerprint-named file per entry.

    The cold tier of the tiered cache, and a valid store on its own.  Because
    keys embed the footage's *stable* content fingerprint (not the
    session-unique token), a directory can be shared across ``PrividSystem``
    instances, processes and sessions: identical footage and configuration
    hash to the same file everywhere, while any footage mutation changes the
    fingerprint so stale entries simply stop being addressed.  Writes go
    through a temp file plus :func:`os.replace`, so concurrent readers and
    writers only ever observe complete entries.  Entries are sharded into
    256 subdirectories by key prefix to keep directory listings sane at
    millions of chunks.

    An entry is one JSON object, ``{"format": 1, "rows": [...]}``, at
    ``KEY[:2]/KEY.json`` — the one format that reproduces every row exactly
    (the same encoding carries rows across the shard wire).  A ``KEY.bin``
    left by the retired binary format is never opened, counted or served;
    reclaiming its bytes is deleting the directory.

    Unreadable or corrupt entries read as misses and are removed; write-side
    IO errors (ENOSPC, permission flips, a yanked mount) are *non-fatal* —
    the entry simply is not cached (counted in ``write_errors``), because a
    failing cold tier must degrade a deployment's hit rate, never its
    queries.  Temp files stranded by an interrupted writer are swept on
    store open — but only once they are old enough (``_STALE_TEMP_AGE``)
    that no live writer can own them, because several processes
    (coordinator, every shard daemon) open stores over the same directory
    while others are mid-write.
    """

    _STALE_TEMP_AGE = 60.0  # seconds; in-flight writes live for milliseconds

    def __init__(self, directory: str | os.PathLike[str], *,
                 fault_injector: "FaultInjector | None" = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._root = os.path.join(os.fspath(self.directory), "")
        #: Temp files are ``<entry>.<token>-<n>.tmp``: the token tells this
        #: instance's writes from every other handle on the directory, the
        #: counter tells its own apart (``next`` on it is atomic).
        self._temp_token = os.urandom(6).hex()
        self._temp_serial = count()
        self.stats = CacheStats()
        self.writes = 0
        self.write_errors = 0
        self.read_errors = 0
        self.fault_injector = fault_injector
        self.stale_temps_removed = self._sweep_stale_temps()

    def _sweep_stale_temps(self) -> int:
        """Remove temp files a crashed/interrupted writer left behind.

        Age-gated: a fresh temp file belongs to a concurrent writer in
        another process (shard daemons share this directory), and unlinking
        it would turn that writer's atomic rename into a silently dropped
        entry.
        """
        removed = 0
        horizon = time.time() - self._STALE_TEMP_AGE
        for stale in chain(self.directory.glob("*.tmp"),
                           self.directory.glob("*/*.tmp")):
            try:
                if stale.stat().st_mtime <= horizon:
                    stale.unlink()
                    removed += 1
            except OSError:
                pass
        return removed

    def set_fault_injector(self, injector: "FaultInjector | None") -> None:
        """Route subsequent store operations through a fault plan (chaos)."""
        self.fault_injector = injector

    def _entry_paths(self):
        """Every stored entry."""
        return self.directory.glob("*/*.json")

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def key_for(self, runner: "SandboxRunner", chunk: "Chunk",
                context: "ExecutionContext") -> str:
        """Cache key of one chunk execution (same scheme as every tier)."""
        return chunk_key(runner, chunk, context)

    def _entry_path(self, key: str) -> str:
        return f"{self._root}{key[:2]}{os.sep}{key}.json"

    def _path_for(self, key: str) -> Path:
        return Path(self._entry_path(key))

    def get(self, key: str) -> ChunkRows | None:
        """Rows stored under ``key``, or None on a miss (or corrupt entry)."""
        path = self._entry_path(key)
        rule = self.fault_injector.poll("store.get", token=key) \
            if self.fault_injector is not None else None
        try:
            if rule is not None:
                if rule.kind is FaultKind.DELAY:
                    time.sleep(rule.delay)
                elif rule.kind is FaultKind.IO_ERROR:
                    raise OSError(f"injected store read failure for {key[:12]}")
                elif rule.kind is FaultKind.CORRUPT and os.path.exists(path):
                    # Scribble over the entry so the genuine corrupt-entry
                    # self-heal path below runs against real bytes.
                    with open(path, "wb") as handle:
                        handle.write(b"\x00corrupt")
            rows = _read_json_entry(path)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # A torn or foreign file: treat as a miss and drop it so the slot
            # can be rewritten cleanly.
            self.read_errors += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return rows

    def _write_entry(self, path: str, data: bytes) -> bool:
        """Atomically land one serialized entry at ``path`` (temp+replace).

        The temp file is created beside the entry with ``O_EXCL``, so a name
        collision with another writer is this call's error, never a clobber
        of that writer's bytes, and only a temp this call created is ever
        removed.  The prefix directory is made when the open reports it
        missing — once per prefix per store lifetime, or after someone
        removed it under a live store — not asked for on every put.

        Returns False (and counts ``write_errors``) on IO failure: ENOSPC,
        EACCES, a temp-name collision — non-fatal, the entry just stays cold
        and the next miss recomputes it.
        """
        temp = f"{path}.{self._temp_token}-{next(self._temp_serial)}.tmp"
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
        created = False
        try:
            try:
                fd = os.open(temp, flags, 0o600)
            except FileNotFoundError:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                fd = os.open(temp, flags, 0o600)
            created = True
            try:
                written = os.write(fd, data)
                while written < len(data):
                    written += os.write(fd, data[written:])
            finally:
                os.close(fd)
            os.replace(temp, path)
        except BaseException as exc:
            if created:
                try:
                    os.unlink(temp)
                except OSError:
                    pass
            if isinstance(exc, OSError):
                self.write_errors += 1
                return False
            raise
        return True

    def put(self, key: str, rows: ChunkRows) -> None:
        """Persist the rows of one chunk execution under ``key`` (atomic).

        IO errors are swallowed and counted (``write_errors``): a store that
        cannot write behaves as a cache that never warms, not as a query
        failure.  Serialization bugs (non-JSON rows) still raise — those are
        programming errors, not environment faults.
        """
        rule = self.fault_injector.poll("store.put", token=key) \
            if self.fault_injector is not None else None
        if rule is not None and rule.kind is FaultKind.DELAY:
            time.sleep(rule.delay)
        if not isinstance(rows, list):
            # ColumnarRows (and any other sequence) serialize as the
            # equivalent dict rows.
            rows = [dict(row) for row in rows]
        payload = {"format": _DISK_FORMAT, "rows": rows}
        data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        if rule is not None and rule.kind is FaultKind.IO_ERROR:
            self.write_errors += 1
            return
        if self._write_entry(self._entry_path(key), data):
            self.writes += 1

    def promote(self, key: str, rows: ChunkRows) -> None:
        """No-op: ``promote`` adopts rows a shard already wrote through to
        this very directory, so writing them again would only duplicate the
        atomic rename."""

    def clear(self) -> None:
        """Remove every stored entry (counters are kept)."""
        for entry in self._entry_paths():
            try:
                entry.unlink()
            except OSError:
                pass

    def reset_stats(self) -> None:
        """Zero the hit/miss/write/error counters."""
        self.stats = CacheStats()
        self.writes = 0
        self.write_errors = 0
        self.read_errors = 0

    def stats_dict(self) -> dict[str, Any]:
        """Counters plus write count and directory, for stats reporting."""
        stats = self.stats.as_dict()
        stats.pop("evictions", None)  # the disk tier never evicts
        return {**stats, "writes": self.writes,
                "write_errors": self.write_errors,
                "read_errors": self.read_errors,
                "directory": str(self.directory)}

    def health(self) -> dict[str, Any]:
        """Liveness snapshot of the disk tier, for ``service.health()``."""
        writable = os.access(self.directory, os.W_OK | os.X_OK)
        return {"tier": "disk", "directory": str(self.directory),
                "writable": writable,
                "write_errors": self.write_errors,
                "read_errors": self.read_errors,
                "stale_temps_removed": self.stale_temps_removed}


class TieredChunkCache:
    """Memory tier in front of a disk tier, sharing one fingerprint keyspace.

    ``get`` consults memory first and promotes disk hits into memory, so a
    warm working set is served at in-process LRU speed while the full
    history persists on disk; ``put`` writes through to both tiers.  The
    memory tier bounds residency (LRU eviction), the disk tier is the
    shared, durable record — the standard hot/cold split for this workload
    shape.
    """

    def __init__(self, memory: ChunkResultCache | None = None,
                 disk: DiskChunkStore | str | os.PathLike[str] = "privid-chunk-cache"
                 ) -> None:
        self.memory = memory if memory is not None else ChunkResultCache()
        self.disk = disk if isinstance(disk, DiskChunkStore) \
            else DiskChunkStore(disk)

    def __len__(self) -> int:
        return len(self.memory)

    def key_for(self, runner: "SandboxRunner", chunk: "Chunk",
                context: "ExecutionContext") -> str:
        """Cache key of one chunk execution (same scheme as every tier)."""
        return chunk_key(runner, chunk, context)

    def set_fault_injector(self, injector: "FaultInjector | None") -> None:
        """Route the disk tier's operations through a fault plan (chaos)."""
        self.disk.set_fault_injector(injector)

    def health(self) -> dict[str, Any]:
        """Per-tier liveness; the tiered store is writable iff disk is."""
        disk = self.disk.health()
        return {"tier": "tiered", "writable": disk["writable"],
                "memory": self.memory.health(), "disk": disk}

    def get(self, key: str) -> ChunkRows | None:
        """Rows under ``key`` from the first tier that has them, or None."""
        rows = self.memory.get(key)
        if rows is not None:
            return rows
        rows = self.disk.get(key)
        if rows is not None:
            self.memory.put(key, rows)
        return rows

    def put(self, key: str, rows: ChunkRows) -> None:
        """Write the rows of one chunk execution through to both tiers."""
        self.memory.put(key, rows)
        self.disk.put(key, rows)

    def promote(self, key: str, rows: ChunkRows) -> None:
        """Adopt rows already persisted in the shared disk tier (e.g. by a
        sharded engine's write-through): hot-tier insert only, no second
        disk write."""
        self.memory.put(key, rows)

    def clear(self) -> None:
        """Drop every entry from both tiers."""
        self.memory.clear()
        self.disk.clear()

    def reset_stats(self) -> None:
        """Zero the counters of both tiers."""
        self.memory.reset_stats()
        self.disk.reset_stats()

    def stats_dict(self) -> dict[str, Any]:
        """Combined counters plus per-tier sub-stats.

        The top-level hits/misses describe the tiered store as one cache: a
        lookup is a hit if *either* tier served it, a miss only if both
        missed (every lookup starts at the memory tier, so memory lookups
        count the total).
        """
        memory = self.memory.stats_dict()
        disk = self.disk.stats_dict()
        hits = self.memory.stats.hits + self.disk.stats.hits
        lookups = self.memory.stats.lookups
        return {
            "hits": hits,
            "misses": lookups - hits,
            "hit_rate": round(hits / lookups, 3) if lookups else 0.0,
            "memory": memory,
            "disk": disk,
        }


#: Duck type accepted everywhere a chunk result cache is expected.
ChunkStore = ChunkResultCache | DiskChunkStore | TieredChunkCache


def shared_spec(store: "ChunkStore | None") -> str | None:
    """The spec string of a store's *cross-process shareable* portion.

    Reduces a store instance to the spec another process could open to see
    the same entries: a :class:`DiskChunkStore` (or the disk tier of a
    :class:`TieredChunkCache`) is addressed by its directory, so it reduces
    to ``"disk:DIR"`` / ``"tiered:DIR"``; a pure in-memory
    :class:`ChunkResultCache` lives in one process only and reduces to None.
    This is how the sharded engine points its executor shards at the store
    warm entries should be shared through
    (:meth:`repro.core.remote.ShardedEngine.share_store`): every shard gets
    its own handle — for a tiered spec its own memory LRU — over the same
    disk directory, the stand-in for shared storage across hosts.
    """
    if isinstance(store, DiskChunkStore):
        return f"disk:{store.directory}"
    if isinstance(store, TieredChunkCache):
        return f"tiered:{store.disk.directory}"
    return None


def store_health(store: "ChunkStore | None") -> dict[str, Any]:
    """Health snapshot of any store (``{"enabled": False}`` when off).

    The store half of :meth:`repro.service.QueryService.health`: stores that
    implement ``health()`` report their tier detail; anything else (a
    third-party duck-typed store) reports enabled-and-assumed-writable.
    """
    if store is None:
        return {"enabled": False}
    health = getattr(store, "health", None)
    if health is None:
        return {"enabled": True, "writable": True,
                "tier": type(store).__name__}
    return {"enabled": True, **health()}


def create_cache(spec: "str | ChunkStore | None") -> "ChunkStore | None":
    """Build a chunk result store from a spec string.

    ``None``, ``"off"`` and ``"none"`` disable caching; ``"memory"`` is the
    in-process LRU cache; ``"disk:PATH"`` the shared on-disk store;
    ``"tiered:PATH"`` memory in front of disk.  A store instance passes
    through unchanged.  This is the value of the ``cache=`` argument of
    ``PrividSystem`` and of the ``PRIVID_CACHE`` benchmark knob.
    """
    if spec is None:
        return None
    if not isinstance(spec, str):
        return spec
    text = spec.strip()
    lowered = text.lower()
    if lowered in ("", "off", "none"):
        return None
    if lowered == "memory":
        return ChunkResultCache()
    kind, _, path = text.partition(":")
    kind = kind.lower()
    if kind in ("disk", "tiered") and not path:
        raise ValueError(f"cache spec {spec!r} needs a directory: '{kind}:PATH'")
    if kind == "disk":
        return DiskChunkStore(path)
    if kind == "tiered":
        return TieredChunkCache(disk=path)
    raise ValueError(f"unknown cache spec {spec!r}; "
                     "expected 'off', 'memory', 'disk:PATH' or 'tiered:PATH'")
