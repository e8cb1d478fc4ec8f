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

Three stores are provided, each a ``cache=`` value of ``PrividSystem``
(an instance, or for two of them a spec string, see :func:`create_cache`):

* :class:`ChunkResultCache` (``"memory"``) — the in-process LRU hot tier;
* :class:`DiskChunkStore` (an instance; the tiered store's cold tier) —
  fingerprint-named JSON entry
  files under a directory, shared across ``PrividSystem`` instances *and*
  processes; keys embed the footage's stable content fingerprint
  (``SyntheticVideo.content_fingerprint``), so mutated footage can never hit
  a stale entry;
* :class:`TieredChunkCache` (``"tiered:PATH"``) — memory in front of disk,
  promoting disk hits into the hot tier.

Stores live in the coordinating process only: whatever engine executes the
misses (serial, or the shards of :mod:`repro.core.remote`), the caller looks
every chunk up and writes every non-fallback result here
(:meth:`repro.sandbox.environment.SandboxRunner.iter_chunk_rows`), so a
shard never opens a store.  Several processes may still open one directory.

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
from itertools import count
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.faults import FaultInjector
    from repro.sandbox.environment import ExecutionContext, SandboxRunner
    from repro.video.chunking import Chunk

from repro.core.faults import FaultKind
from repro.utils import checks


#: Exact types :func:`canonical_value` returns as they are, without a call.
_SCALARS = frozenset((type(None), bool, int, float, str, bytes))

#: Type -> the reducer of the rule that type takes, filled on first sight.
_RULES: dict[type, Callable[[Any], Any]] = {}


def canonical_value(value: Any) -> Any:
    """Reduce a configuration value to a stable, hashable-repr structure.

    Handles the value shapes that appear in executable/detector/tracker
    configurations: scalars, enums, (nested) sequences and mappings, and
    dataclasses.  Callables are identified by qualified name (their identity
    in a registry), anything else by ``repr``.  Which of these rules a value
    takes depends on its type alone, so it is decided once per type
    (:func:`_rule_for`); a whole scene's objects are reduced on every
    :meth:`~repro.video.video.SyntheticVideo.content_fingerprint`.
    """
    cls = type(value)
    if cls in _SCALARS:
        return value
    rule = _RULES.get(cls)
    if rule is None:
        rule = _RULES[cls] = _rule_for(cls)
    return rule(value)


def _rule_for(cls: type) -> Callable[[Any], Any]:
    """The reducer of the first rule that matches ``cls``, in this order:
    scalars (subclasses included), enums, dataclass instances, mappings,
    sequences and sets, then callables by name and anything else by ``repr``."""
    if issubclass(cls, (bool, int, float, str, bytes)):
        return _itself
    if issubclass(cls, Enum):
        name = cls.__name__
        return lambda member: (name, member.value)
    if is_dataclass(cls) and not issubclass(cls, type):
        return _dataclass_reducer(cls)
    if issubclass(cls, Mapping):
        return _mapping
    if issubclass(cls, (set, frozenset)):
        return _set
    if issubclass(cls, (list, tuple)):
        return _sequence
    return _callable_or_repr


def _itself(value: Any) -> Any:
    return value


def _dataclass_reducer(cls: type) -> Callable[[Any], Any]:
    name = cls.__name__
    names = tuple(spec.name for spec in fields(cls))

    def reduce(value: Any) -> Any:
        return (name, tuple([
            (field, item if type(item := getattr(value, field)) in _SCALARS
             else canonical_value(item))
            for field in names]))
    return reduce


def _mapping(value: Mapping) -> Any:
    return tuple(sorted([(str(key), item if type(item) in _SCALARS else canonical_value(item))
                         for key, item in value.items()]))


def _sequence(value: list | tuple) -> Any:
    return tuple([item if type(item) in _SCALARS else canonical_value(item) for item in value])


def _set(value: set | frozenset) -> Any:
    return tuple(sorted([canonical_value(item) for item in value], key=repr))


def _callable_or_repr(value: Any) -> Any:
    if callable(value):
        return getattr(value, "__qualname__", repr(value))
    return repr(value)


def fingerprint(*parts: Any) -> str:
    """Stable hex digest of a sequence of canonicalized configuration parts."""
    canonical = repr(tuple(canonical_value(part) for part in parts))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _footage_identity(video: Any) -> Any:
    """The footage state's part of a chunk's key: its stable content
    fingerprint, or the session-unique ``content_token`` without one."""
    footage_fingerprint = getattr(video, "content_fingerprint", None)
    return (footage_fingerprint() if callable(footage_fingerprint)
            else getattr(video, "content_token", 0))


def runner_fingerprint(runner: "SandboxRunner") -> str:
    """Identity of the processing configuration applied to every chunk."""
    executable = runner.executable
    return fingerprint(
        getattr(executable, "name", type(executable).__name__),
        executable.config_fingerprint(),
        runner.schema,
        runner.max_rows,
        runner.timeout_seconds,
        True,  # the retired ``enforce_wall_clock`` flag: every store key holds it
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


#: Stream-constant hash states one context memoises before starting over: one
#: per (footage state, mask, region) it has served, and a context serves every
#: stream of its camera while the registration reads the same.
_KEY_TEXT_MEMO_LIMIT = 64

#: Chunk keys one context memoises before starting over.  The widest measured
#: working set is ``warm_sweep``'s what-if sweep, which keys 960 distinct
#: chunks of its one camera again and again, so 4,096 holds four such sweeps.
#: An entry measured ~470 bytes under ``tracemalloc`` (the probe tuple and its
#: stream part, two fresh ids, the interval's floats, the 64-character key,
#: the value tuple and the dict slot; masks and regions are shared with the
#: chunks that carry them), so a full memo holds ~1.9 MB per context.
_CHUNK_KEY_MEMO_LIMIT = 4096


def _canonical_text(parts: tuple[Any, ...]) -> str:
    """``parts`` as they read inside :func:`fingerprint`'s canonical repr."""
    return ", ".join([repr(canonical_value(part)) for part in parts])


def chunk_key(runner: "SandboxRunner", chunk: "Chunk",
              context: "ExecutionContext") -> str:
    """Cache key of one chunk execution, shared by every store tier.

    Byte for byte ``fingerprint(chunk_part, runner_fingerprint(runner),
    context_fingerprint(context))`` — existing stores are addressed by those
    bytes — where ``chunk_part`` is the ``fingerprint`` of the chunk's
    visible content: the video's name, its footage identity (the stable
    ``content_fingerprint()``, else the session-unique ``content_token``),
    fps and duration, the chunk's index and ``(start, end)``, then its mask,
    region and sample period, in this order.  Everything constant over a
    ``(runner, context)`` stream is canonicalised once per instance: the two
    stream fingerprints are memoised on their frozen instances, the chunk's
    constant head and tail on the context, keyed by the footage state's
    *values* (so a mid-stream ``add_objects`` changes every later key) and
    the frozen mask and region's *identity* (pinned by the entry, so no id
    is reused under it).  The memo holds a ``sha256`` state already fed the
    head and the tail's bytes; a chunk copies the state (``copy`` takes the
    object's lock, so threads may key one stream at once) and feeds it only
    its index and its interval.  The query path keeps those instances per
    registration (:func:`repro.sandbox.environment.kept_or_fresh`).

    A chunk the context keyed before is one probe of a second memo, keyed by
    the same stream part, the runner's fingerprint and the chunk's index and
    interval.  Only an ``int`` index between two ``float`` ends is kept
    there, and a zero end is keyed by its text: ``-0.0 == 0.0``, but they
    print apart.  Each kept key pins its mask and region as the hash state
    does, and :data:`_CHUNK_KEY_MEMO_LIMIT` bounds the memo.
    """
    video = chunk.video
    footage = _footage_identity(video)
    mask, region, sample_period = chunk.mask, chunk.region, chunk.sample_period
    # 1 == 1.0 but their texts differ, so the sample period's type is keyed too.
    stream = (video.name, footage, video.fps, video.duration,
              id(mask), id(region), sample_period, type(sample_period))
    index, interval = chunk.index, chunk.interval
    start, end = interval.start, interval.end
    if type(index) is int and type(start) is type(end) is float:
        keys = context.chunk_key_memo
        seen = (stream, runner.fingerprint, index, start or repr(start), end or repr(end))
        kept = keys.get(seen)
        if kept is not None:
            return kept[0]
        # What _canonical_text reads for the types every SPLIT produces.
        own_text = f"{index}, ({start!r}, {end!r})"
    else:
        seen = None
        own_text = _canonical_text((index, (start, end)))
    memo = context.key_text_memo
    entry = memo.get(stream)
    if entry is None:
        if len(memo) >= _KEY_TEXT_MEMO_LIMIT:
            memo.clear()
        head = _canonical_text((video.name, footage, video.fps, video.duration))
        tail = _canonical_text((mask, region, sample_period))
        entry = memo[stream] = (hashlib.sha256(f"({head}, ".encode("utf-8")),
                                f", {tail}".encode("utf-8"), mask, region)
    head_state, tail_bytes = entry[0], entry[1]
    state = head_state.copy()
    state.update(own_text.encode("utf-8") + tail_bytes + b")")
    chunk_digest = state.hexdigest()
    key = hashlib.sha256(
        f"('{chunk_digest}', '{runner.fingerprint}', '{context.fingerprint}')"
        .encode("utf-8")).hexdigest()
    if seen is not None:
        if len(keys) >= _CHUNK_KEY_MEMO_LIMIT:
            keys.clear()
        keys[seen] = (key, mask, region)
    return key


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
        # A float bound (NaN, inf, 2.5) or a bool would never evict, or evict
        # by accident: only a whole count bounds the tier.
        self.max_entries = checks.count("max_entries", max_entries, ValueError, 1)
        self._entries: OrderedDict[str, tuple[dict[str, Any], ...]] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()
        self.read_errors = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def key_for(self, runner: "SandboxRunner", chunk: "Chunk",
                context: "ExecutionContext") -> str:
        """Cache key of one chunk execution."""
        return chunk_key(runner, chunk, context)

    def get(self, key: str, max_rows: int | None = None) -> list[dict[str, Any]] | None:
        """Rows cached under ``key`` (a fresh copy), or None on a miss — an
        entry over ``max_rows`` is corrupt: dropped and counted in ``read_errors``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and max_rows is not None and len(entry) > max_rows:
                del self._entries[key]
                self.read_errors += 1
                entry = None
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
        return [dict(row) for row in entry]

    def put(self, key: str, rows: list[dict[str, Any]]) -> None:
        """Store the rows of one chunk execution under ``key``."""
        entry = tuple(dict(row) for row in rows)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def stats_dict(self) -> dict[str, Any]:
        """Counters plus the live entry count, for ``PrividSystem.cache_stats``."""
        with self._lock:
            return {**self.stats.as_dict(), "read_errors": self.read_errors,
                    "entries": len(self._entries)}

    def health(self) -> dict[str, Any]:
        """Liveness snapshot of the memory tier (always writable)."""
        with self._lock:
            return {"tier": "memory", "writable": True,
                    "entries": len(self._entries)}


#: On-disk entry format version; bump on any change to the serialization so
#: stores written by older code read as misses instead of wrong rows.
_DISK_FORMAT = 1

#: Every row-less entry's 22 bytes (the smallest entry with a row is 24).
_EMPTY_ENTRY = json.dumps({"format": _DISK_FORMAT, "rows": []},
                          separators=(",", ":")).encode("utf-8")


#: Bytes one ``os.read`` asks for; only an entry that fills it reads again.
_READ_SIZE = 1 << 16


def _read_json_entry(path: str) -> list[dict[str, Any]]:
    """Read and parse one entry file (the only JSON parse in the store).

    A torn write cannot decode to other rows: an entry is one JSON object,
    and every strict prefix of a JSON object is invalid JSON, so a truncated
    file raises here and the store's self-heal path treats it as a miss.  So
    does a foreign one: ``format`` must be the integer ``_DISK_FORMAT`` and
    every row a JSON object.  The row-less entry's exact bytes are known, so
    it is never parsed.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        data = os.read(fd, _READ_SIZE)
        if len(data) == _READ_SIZE:
            while piece := os.read(fd, _READ_SIZE):
                data += piece
    finally:
        os.close(fd)
    if data == _EMPTY_ENTRY:
        return []
    payload = json.loads(data)
    if type(payload) is not dict or type(payload.get("format")) is not int \
            or payload["format"] != _DISK_FORMAT:
        raise ValueError("unknown disk store format")
    rows = payload["rows"]
    if type(rows) is not list or any(type(row) is not dict for row in rows):
        raise ValueError("disk store rows must be JSON objects")
    return rows


class DiskChunkStore:
    """On-disk chunk result store: one fingerprint-named file per entry.

    The cold tier of the tiered cache, and a valid store on its own.  Because
    keys embed the footage's *stable* content fingerprint (not the
    session-unique token), a directory can be shared across ``PrividSystem``
    instances, processes and sessions: identical footage and configuration
    hash to the same file everywhere, while any footage mutation changes the
    fingerprint so stale entries simply stop being addressed.  Writes go
    through a temp file plus :func:`os.replace`, so concurrent readers and
    writers only ever observe complete entries.

    An entry is one JSON object, ``{"format": 1, "rows": [...]}`` — the one
    format that reproduces every row exactly (the same encoding carries rows
    across the shard wire) — at ``KEY.json`` in the store directory itself,
    so a put makes no directory.  Only ``len()``, ``clear()`` and the sweep
    on open list it (ext4 without ``large_dir`` holds ~10M names).  A retired
    ``KEY.bin`` or ``KEY[:2]/KEY.json`` is never opened, counted or served.
    A row-less entry is a name, not a file: a handle's later row-less puts
    land as hard links to the first it wrote (counted in ``links``, too).

    Corrupt entries read as misses and are removed; a failed read is a miss
    that leaves the entry in place (the next get may succeed); write-side
    IO errors (ENOSPC, permission flips, a yanked mount) are *non-fatal* —
    the entry simply is not cached (counted in ``write_errors``), because a
    failing cold tier must degrade a deployment's hit rate, never its
    queries.  Temp files stranded by an interrupted writer are swept on
    store open — but only once they are old enough (``_STALE_TEMP_AGE``)
    that no live writer can own them, because several processes (one
    coordinator each) may open stores over the same directory while others
    are mid-write.
    """

    _STALE_TEMP_AGE = 60.0  # seconds; in-flight writes live for milliseconds

    def __init__(self, directory: str | os.PathLike[str]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._root = os.path.join(os.fspath(self.directory), "")
        #: Temp files are ``<entry>.<token>-<n>.tmp``: the token tells this
        #: instance's writes from every other handle on the directory, the
        #: counter tells its own apart (``next`` on it is atomic).
        self._temp_token = os.urandom(6).hex()
        self._temp_serial = count()
        #: ``(path, inode, device)`` of the row-less entry puts link to.
        self._empty_source: tuple[str, int, int] | None = None
        self.stats = CacheStats()
        self.writes = 0
        self.links = 0
        self.write_errors = 0
        self.read_errors = 0
        #: A chaos plan's injector (:meth:`set_fault_injector`), or None.
        self.fault_injector: "FaultInjector | None" = None
        self.stale_temps_removed = self._sweep_stale_temps()

    def _sweep_stale_temps(self) -> int:
        """Remove temp files a crashed writer left, once older than the sweep
        age: a fresh one may be a concurrent writer's in another process, and
        unlinking it would turn that writer's rename into a dropped entry."""
        removed = 0
        horizon = time.time() - self._STALE_TEMP_AGE
        for stale in self.directory.glob("*.tmp"):
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
        return self.directory.glob("*.json")

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def key_for(self, runner: "SandboxRunner", chunk: "Chunk",
                context: "ExecutionContext") -> str:
        """Cache key of one chunk execution (same scheme as every tier)."""
        return chunk_key(runner, chunk, context)

    def _entry_path(self, key: str) -> str:
        return f"{self._root}{key}.json"

    def get(self, key: str, max_rows: int | None = None) -> list[dict[str, Any]] | None:
        """Rows stored under ``key``, or None on a miss (or corrupt entry,
        which includes one holding more than ``max_rows`` rows)."""
        path = self._entry_path(key)
        try:
            if self.fault_injector is not None and self.fault_injector.strike(
                    "store.get", token=key) is FaultKind.CORRUPT and os.path.exists(path):
                # Rename scribbled bytes over the entry (never in place, see
                # _write_entry) so the self-heal below runs for real.
                self._write_entry(path, b"\x00corrupt")
            rows = _read_json_entry(path)
            if max_rows is not None and len(rows) > max_rows:
                raise ValueError("disk store entry holds more rows than its reader allows")
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            # A read that failed (EIO, an injected IO_ERROR) says nothing
            # about the entry: a miss that leaves the file for the next get.
            self.read_errors += 1
            self.stats.misses += 1
            return None
        except (ValueError, KeyError, TypeError):
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

    def _temp_for(self, path: str) -> str:
        return f"{path}.{self._temp_token}-{next(self._temp_serial)}.tmp"

    def _write_entry(self, path: str, data: bytes, *, source: bool = False) -> bool:
        """Atomically land one serialized entry at ``path`` (temp+replace).

        The temp file is created beside the entry with ``O_EXCL``, so a name
        collision with another writer is this call's error, never a clobber
        of that writer's bytes, and only a temp this call created is ever
        removed.  The store directory is made again only when the open
        reports it missing (someone removed it under a live store).

        Once renamed into place an entry's file is never written again (the
        CORRUPT fault's scribble is a new file too), which is what lets
        row-less entries share one (:meth:`_link_empty`); ``source`` makes
        the file landed here the one they link to.

        Returns False (and counts ``write_errors``) on IO failure: ENOSPC,
        EACCES, a temp-name collision — non-fatal, the entry just stays cold
        and the next miss recomputes it.
        """
        temp = self._temp_for(path)
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
        created = False
        try:
            try:
                fd = os.open(temp, flags, 0o600)
            except FileNotFoundError:
                os.makedirs(self._root, exist_ok=True)
                fd = os.open(temp, flags, 0o600)
            created = True
            try:
                written = os.write(fd, data)
                while written < len(data):
                    written += os.write(fd, data[written:])
                if source:
                    status = os.fstat(fd)
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
        if source:
            self._empty_source = (path, status.st_ino, status.st_dev)
        return True

    def _link_empty(self, path: str) -> bool:
        """Land the row-less entry at ``path`` as a hard link to the source —
        temp + rename, the rename only once the temp's own ``stat`` shows the
        source's inode at 22 bytes; False, leaving nothing behind, if not."""
        source = self._empty_source
        if source is None:
            return False
        source_path, inode, device = source
        temp = self._temp_for(path)
        try:
            os.link(source_path, temp)  # ENOENT: the source (or the store) is gone
        except OSError:
            return False
        try:
            status = os.stat(temp)
            if (status.st_ino, status.st_dev, status.st_size) \
                    != (inode, device, len(_EMPTY_ENTRY)):
                return False
            os.replace(temp, path)
            self.links += 1
            return True
        except OSError:  # e.g. a store opened meanwhile swept the temp
            return False
        finally:
            # rename(2) does nothing when ``path`` already names this very
            # file (a re-put, two threads on one key): the temp outlives it.
            try:
                os.unlink(temp)
            except OSError:
                pass

    def put(self, key: str, rows: list[dict[str, Any]]) -> bool:
        """Persist the rows of one chunk execution under ``key`` (atomic).

        Returns whether the entry landed.  IO errors are swallowed and
        counted (``write_errors``): a store that cannot write behaves as a
        cache that never warms, not as a query failure.  Serialization bugs
        (non-JSON rows) still raise — those are programming errors, not
        environment faults.
        """
        payload = {"format": _DISK_FORMAT, "rows": rows}
        data = (json.dumps(payload, separators=(",", ":")).encode("utf-8")
                if rows else _EMPTY_ENTRY)
        if self.fault_injector is not None:
            try:
                self.fault_injector.strike("store.put", token=key)
            except OSError:
                self.write_errors += 1
                return False
        path = self._entry_path(key)
        landed = (not rows and self._link_empty(path)) \
            or self._write_entry(path, data, source=not rows)
        if landed:
            self.writes += 1
        return landed

    def clear(self) -> None:
        """Remove every stored entry (counters are kept)."""
        for entry in self._entry_paths():
            try:
                entry.unlink()
            except OSError:
                pass

    def stats_dict(self) -> dict[str, Any]:
        """Counters plus write count and directory, for stats reporting."""
        stats = self.stats.as_dict()
        stats.pop("evictions", None)  # the disk tier never evicts
        return {**stats, "writes": self.writes, "links": self.links,
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
        """Stored entries: the disk tier's (memory holds the working set)."""
        return len(self.disk)

    def key_for(self, runner: "SandboxRunner", chunk: "Chunk",
                context: "ExecutionContext") -> str:
        """Cache key of one chunk execution (same scheme as every tier)."""
        return chunk_key(runner, chunk, context)

    @property
    def fault_injector(self) -> "FaultInjector | None":
        """The disk tier's fault plan (the memory tier has no fault site)."""
        return self.disk.fault_injector

    def set_fault_injector(self, injector: "FaultInjector | None") -> None:
        """Route the disk tier's operations through a fault plan (chaos)."""
        self.disk.set_fault_injector(injector)

    def health(self) -> dict[str, Any]:
        """Per-tier liveness; the tiered store is writable iff disk is."""
        disk = self.disk.health()
        return {"tier": "tiered", "writable": disk["writable"],
                "memory": self.memory.health(), "disk": disk}

    def get(self, key: str, max_rows: int | None = None) -> list[dict[str, Any]] | None:
        """Rows under ``key`` from the first tier that has them, or None.  Each
        tier drops an entry over ``max_rows``, on disk before it is promoted."""
        rows = self.memory.get(key, max_rows)
        if rows is not None:
            return rows
        rows = self.disk.get(key, max_rows)
        if rows is not None:
            self.memory.put(key, rows)
        return rows

    def put(self, key: str, rows: list[dict[str, Any]]) -> bool:
        """Write the rows of one chunk execution through to both tiers;
        whether the disk entry landed."""
        self.memory.put(key, rows)
        return self.disk.put(key, rows)

    def clear(self) -> None:
        """Drop every entry from both tiers."""
        self.memory.clear()
        self.disk.clear()

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


def store_health(store: "ChunkStore | None") -> dict[str, Any]:
    """Health snapshot of any store (``{"enabled": False}`` when off).

    The store half of :meth:`repro.service.QueryService.health`: a store
    reports its tier detail through its ``health()``.
    """
    if store is None:
        return {"enabled": False}
    return {"enabled": True, **store.health()}


def create_cache(spec: "str | ChunkStore | None") -> "ChunkStore | None":
    """Build a chunk result store from a spec string.

    ``None``, ``"off"`` and ``"none"`` disable caching; ``"memory"`` is the
    in-process LRU cache; ``"tiered:PATH"`` memory in front of the shared
    on-disk store.  A store instance (a :class:`DiskChunkStore` alone, say)
    passes through unchanged.  This is the value of the ``cache=`` argument of
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
    kind, path = kind.lower(), path.strip()
    if kind == "tiered":
        if not path:
            raise ValueError(f"cache spec {spec!r} needs a directory: 'tiered:PATH'")
        return TieredChunkCache(disk=path)
    raise ValueError(f"unknown cache spec {spec!r}; "
                     "expected 'off', 'memory' or 'tiered:PATH'")
