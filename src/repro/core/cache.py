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
* :class:`DiskChunkStore` (``"disk:PATH"``) — fingerprint-named binary
  columnar entry files under a directory (memory-mapped on the hit path;
  legacy JSON entries still read, and migrate to binary as they are hit),
  shared across ``PrividSystem`` instances *and* processes; keys embed the
  footage's stable content fingerprint
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
import heapq
import json
import mmap
import os
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, fields, is_dataclass
from itertools import chain, count
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

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


#: On-disk JSON entry format version; bump on any change to the
#: serialization so stores written by older code read as misses instead of
#: wrong rows.  JSON is the *legacy* write format (and the fallback for rows
#: the columnar codec cannot represent exactly); new entries are written in
#: the binary columnar format below.
_DISK_FORMAT = 1

# --------------------------------------------------- binary columnar entries
#
# One chunk's rows as an npz-style single file: a struct-packed header, one
# descriptor per column (name, dtype tag, mask flags, buffer offset/length,
# value count), then 8-aligned dtype-tagged column buffers.  The hit path
# memory-maps the file and reads every buffer through ``np.frombuffer`` —
# no JSON (or pickle) parsing anywhere.
#
# Exactness contract: ``decode(encode(rows)) == rows`` including value
# *types* (bool vs int vs float vs str), ``None`` values, missing keys, and
# per-row key order.  Rows the codec cannot reproduce bit-for-bit (a column
# mixing ints and floats, ints beyond int64, key orders that disagree
# between rows) refuse to encode and fall back to the legacy JSON format.

#: Entry magic; the trailing digits are the binary format version.  Bump on
#: any layout change so older stores read as misses, exactly like
#: ``_DISK_FORMAT`` does for JSON entries.
_BINARY_MAGIC = b"PVCHNK02"

#: Fixed-size header: magic, column count, header size (bytes up to the end
#: of the descriptor table), row count, total file size (torn-write check).
_HEADER = struct.Struct("<8sIIQQ")

#: Per-column descriptor tail, after the length-prefixed utf-8 name:
#: dtype tag, mask flags, buffer offset, buffer length, encoded value count.
_DESCRIPTOR = struct.Struct("<BBQQQ")

#: Column dtype tags.
_TAG_FLOAT, _TAG_INT, _TAG_BOOL, _TAG_STR = 0, 1, 2, 3

#: Descriptor flag bits: the column carries a missing-key (presence) mask /
#: an explicit-``None`` mask, each stored as packed bits ahead of the values.
_FLAG_MISSING, _FLAG_NONE = 1, 2

_INT64_MIN, _INT64_MAX = -(2 ** 63), 2 ** 63 - 1

#: Below this many values a column decodes through ``struct.unpack_from``
#: instead of ``np.frombuffer`` — numpy's per-call setup (~µs) dominates
#: short columns, and typical chunk entries hold a handful of rows.
_SMALL_COLUMN_VALUES = 64

#: Entries smaller than this are read with one ``read()`` instead of
#: memory-mapping: below a few pages the mmap syscall plus page-fault cost
#: exceeds the copy it avoids.  Either way the decode is the same
#: zero-parse binary path.
_MMAP_MIN_BYTES = 1 << 14


def _column_order(rows: "list[dict[str, Any]]") -> "list[str] | None":
    """Global key order every row's key sequence is consistent with.

    Per-row key order must survive the columnar round trip (callers compare
    ``repr`` of rows).  Each row's key sequence is a chain of precedence
    constraints; any topological order of the union of those chains lists
    every row's keys as an in-order subsequence, so one exists exactly when
    the union is acyclic.  Rows with genuinely contradictory orders (``a``
    before ``b`` in one row, ``b`` before ``a`` in another) form a cycle and
    the entry falls back to JSON.  First-seen order breaks ties so uniform
    schemas keep their natural column order.
    """
    seen: dict[str, int] = {}
    successors: dict[str, set[str]] = {}
    for row in rows:
        previous = None
        for key in row:
            if type(key) is not str:
                return None
            if key not in seen:
                seen[key] = len(seen)
                successors[key] = set()
            if previous is not None:
                successors[previous].add(key)
            previous = key
    indegree = dict.fromkeys(seen, 0)
    for targets in successors.values():
        for key in targets:
            indegree[key] += 1
    ready = [(seen[key], key) for key, count in indegree.items() if not count]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        _, key = heapq.heappop(ready)
        order.append(key)
        for target in successors[key]:
            indegree[target] -= 1
            if not indegree[target]:
                heapq.heappush(ready, (seen[target], target))
    if len(order) != len(seen):
        return None  # cyclic precedence: no single order reproduces all rows
    return order


def _encode_column(rows: "list[dict[str, Any]]", name: str
                   ) -> "tuple[int, int, int, bytes] | None":
    """One column as (tag, flags, num_values, region bytes), or None.

    The region is the column's self-contained buffer: packed presence/None
    masks (when needed), zero-padding to an 8-byte boundary, then the
    dtype-tagged values of the present-and-not-None rows.
    """
    _MISSING = object()
    raw = [row.get(name, _MISSING) for row in rows]
    present = [value is not _MISSING for value in raw]
    nones = [value is None for value in raw]
    values = [value for value in raw if value is not _MISSING and value is not None]
    flags = 0
    region = bytearray()
    if not all(present):
        flags |= _FLAG_MISSING
        region += np.packbits(np.array(present, dtype=bool)).tobytes()
    if any(nones):
        flags |= _FLAG_NONE
        region += np.packbits(np.array(nones, dtype=bool)).tobytes()
    kinds = {type(value) for value in values}
    if not kinds:
        tag, buffer = _TAG_FLOAT, b""
    elif kinds == {bool}:
        tag = _TAG_BOOL
        buffer = np.array(values, dtype=np.uint8).tobytes()
    elif kinds == {int}:
        if any(not _INT64_MIN <= value <= _INT64_MAX for value in values):
            return None
        tag = _TAG_INT
        buffer = np.array(values, dtype=np.int64).tobytes()
    elif kinds == {float}:
        tag = _TAG_FLOAT
        buffer = np.array(values, dtype=np.float64).tobytes()
    elif kinds == {str}:
        tag = _TAG_STR
        encoded = [value.encode("utf-8") for value in values]
        offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
        np.cumsum([len(piece) for piece in encoded], out=offsets[1:])
        buffer = offsets.tobytes() + b"".join(encoded)
    else:
        return None  # mixed-type column: only JSON reproduces it exactly
    if len(region) % 8:
        region += b"\x00" * (8 - len(region) % 8)
    region += buffer
    return tag, flags, len(values), bytes(region)


def encode_binary_entry(rows: "list[dict[str, Any]]") -> "bytes | None":
    """Serialize one entry's rows into the binary columnar format.

    Returns None when the rows are not representable exactly (the caller
    writes legacy JSON instead): non-dict rows, non-string or
    order-inconsistent keys, mixed-type columns, ints beyond int64.
    """
    if not all(type(row) is dict for row in rows):
        return None
    names = _column_order(rows)
    if names is None:
        return None
    columns = []
    for name in names:
        encoded = _encode_column(rows, name)
        if encoded is None:
            return None
        columns.append(encoded)
    encoded_names = [name.encode("utf-8") for name in names]
    header_size = _HEADER.size + sum(2 + len(name) + _DESCRIPTOR.size
                                     for name in encoded_names)
    data_start = header_size + (-header_size) % 8
    descriptors = bytearray()
    data = bytearray()
    for name, (tag, flags, num_values, region) in zip(encoded_names, columns):
        offset = data_start + len(data)
        descriptors += struct.pack("<H", len(name)) + name
        descriptors += _DESCRIPTOR.pack(tag, flags, offset, len(region), num_values)
        data += region
        if len(data) % 8:
            data += b"\x00" * (8 - len(data) % 8)
    file_size = data_start + len(data)
    header = _HEADER.pack(_BINARY_MAGIC, len(names), header_size,
                          len(rows), file_size)
    return header + descriptors + b"\x00" * (data_start - header_size) + data


def _decode_column(buf: "mmap.mmap | bytes", tag: int, flags: int,
                   num_rows: int, offset: int, length: int, num_values: int
                   ) -> "tuple[list[bool] | None, list[bool] | None, list[Any]]":
    """One column region back into (present flags, None flags, values)."""
    end = offset + length
    mask_bytes = (num_rows + 7) // 8
    present = nones = None
    if flags & _FLAG_MISSING:
        bits = np.frombuffer(buf, dtype=np.uint8, count=mask_bytes, offset=offset)
        present = np.unpackbits(bits, count=num_rows).astype(bool).tolist()
        offset += mask_bytes
    if flags & _FLAG_NONE:
        bits = np.frombuffer(buf, dtype=np.uint8, count=mask_bytes, offset=offset)
        nones = np.unpackbits(bits, count=num_rows).astype(bool).tolist()
        offset += mask_bytes
    offset += (-offset) % 8
    # Short columns decode through struct (numpy's per-call setup dominates
    # a handful of values); long ones through vectorized frombuffer.  Both
    # produce the same Python scalars as ``ndarray.tolist()``.
    small = num_values < _SMALL_COLUMN_VALUES
    if tag == _TAG_FLOAT:
        if end - offset < 8 * num_values:
            raise ValueError("binary entry column buffer out of bounds")
        if small:
            values = list(struct.unpack_from(f"<{num_values}d", buf, offset))
        else:
            values = np.frombuffer(buf, dtype=np.float64, count=num_values,
                                   offset=offset).tolist()
    elif tag == _TAG_INT:
        if end - offset < 8 * num_values:
            raise ValueError("binary entry column buffer out of bounds")
        if small:
            values = list(struct.unpack_from(f"<{num_values}q", buf, offset))
        else:
            values = np.frombuffer(buf, dtype=np.int64, count=num_values,
                                   offset=offset).tolist()
    elif tag == _TAG_BOOL:
        if end - offset < num_values:
            raise ValueError("binary entry column buffer out of bounds")
        if small:
            values = list(struct.unpack_from(f"<{num_values}?", buf, offset))
        else:
            values = np.frombuffer(buf, dtype=np.bool_, count=num_values,
                                   offset=offset).tolist()
    elif tag == _TAG_STR:
        table = 8 * (num_values + 1)
        if end - offset < table:
            raise ValueError("binary entry column buffer out of bounds")
        if small:
            offsets = struct.unpack_from(f"<{num_values + 1}q", buf, offset)
            bad = num_values and (
                offsets[0] != 0
                or any(offsets[i] > offsets[i + 1] for i in range(num_values))
                or offset + table + offsets[-1] > end)
        else:
            offsets = np.frombuffer(buf, dtype=np.int64, count=num_values + 1,
                                    offset=offset)
            bad = num_values and (offsets[0] != 0 or np.any(np.diff(offsets) < 0)
                                  or offset + table + int(offsets[-1]) > end)
        if bad:
            raise ValueError("binary entry string offsets out of bounds")
        blob_start = offset + table
        blob = bytes(buf[blob_start:blob_start + (int(offsets[-1]) if num_values else 0)])
        values = [blob[offsets[index]:offsets[index + 1]].decode("utf-8")
                  for index in range(num_values)]
    else:
        raise ValueError(f"unknown binary entry column tag {tag}")
    return present, nones, values


def decode_binary_entry(buf: "mmap.mmap | bytes") -> ChunkRows:
    """Deserialize a binary columnar entry back into its exact rows.

    Raises ValueError on any structural inconsistency (bad magic, torn
    write, out-of-bounds buffer) so the store's corrupt-entry self-heal path
    treats the entry as a miss.
    """
    if len(buf) < _HEADER.size:
        raise ValueError("binary entry too short for its header")
    magic, num_columns, header_size, num_rows, file_size = \
        _HEADER.unpack_from(buf, 0)
    if magic != _BINARY_MAGIC:
        raise ValueError("not a binary chunk entry")
    if file_size != len(buf) or header_size > file_size or num_columns > 65536:
        raise ValueError("binary entry header inconsistent with file size")
    rows: ChunkRows = [{} for _ in range(num_rows)]
    cursor = _HEADER.size
    for _ in range(num_columns):
        if cursor + 2 > header_size:
            raise ValueError("binary entry descriptor table overruns header")
        (name_len,) = struct.unpack_from("<H", buf, cursor)
        cursor += 2
        if cursor + name_len + _DESCRIPTOR.size > header_size:
            raise ValueError("binary entry descriptor table overruns header")
        name = bytes(buf[cursor:cursor + name_len]).decode("utf-8")
        cursor += name_len
        tag, flags, offset, length, num_values = _DESCRIPTOR.unpack_from(buf, cursor)
        cursor += _DESCRIPTOR.size
        if offset + length > file_size or num_values > num_rows:
            raise ValueError("binary entry column region out of bounds")
        present, nones, values = _decode_column(buf, tag, flags, num_rows,
                                                offset, length, num_values)
        if present is None and nones is None:
            if num_values != num_rows:
                raise ValueError("binary entry value count mismatch")
            for row, value in zip(rows, values):
                row[name] = value
            continue
        values_iter = iter(values)
        count = 0
        for index, row in enumerate(rows):
            if present is not None and not present[index]:
                continue
            if nones is not None and nones[index]:
                row[name] = None
                continue
            row[name] = next(values_iter, None)
            count += 1
        if count != num_values:
            raise ValueError("binary entry value count mismatch")
    return rows


def _read_json_entry(path: str) -> ChunkRows:
    """Parse one legacy JSON entry (the only JSON parse in the store).

    Kept as a dedicated seam so tests can assert the warm binary hit path
    never reaches it (the no-json-load hook).
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


def _read_binary_entry(path: str) -> ChunkRows:
    """Decode one binary entry (the zero-parse hit path).

    One ``read`` of :data:`_MMAP_MIN_BYTES` settles the route: a file that
    ends inside it is the whole entry (an empty or torn one fails the
    header check in :func:`decode_binary_entry`); one that fills it is
    memory-mapped so only the touched pages fault in.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        head = os.read(fd, _MMAP_MIN_BYTES)
        if len(head) < _MMAP_MIN_BYTES:
            return decode_binary_entry(head)
        mapped = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        try:
            return decode_binary_entry(mapped)
        finally:
            mapped.close()
    finally:
        os.close(fd)


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

    Entries are written in the binary columnar format (``KEY.bin``, see
    :func:`encode_binary_entry`) and memory-mapped on the hit path, so a
    warm hit pays zero JSON parsing; rows the codec cannot reproduce exactly
    — and every store with ``entry_format="json"`` — use the legacy JSON
    format (``KEY.json``) instead.  Both formats are read, counted, swept
    and self-healed identically, and a legacy JSON hit is migrated in place
    to binary (``migrations``), so warm directories survive the upgrade and
    converge to the new format as they are read.

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

    #: Entry filename suffixes, one per on-disk format.
    _FORMATS = ("bin", "json")

    def __init__(self, directory: str | os.PathLike[str], *,
                 entry_format: str = "binary",
                 fault_injector: "FaultInjector | None" = None) -> None:
        if entry_format not in ("binary", "json"):
            raise ValueError(f"unknown entry format {entry_format!r}; "
                             "expected 'binary' or 'json'")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._root = os.path.join(os.fspath(self.directory), "")
        #: Temp files are ``<entry>.<token>-<n>.tmp``: the token tells this
        #: instance's writes from every other handle on the directory, the
        #: counter tells its own apart (``next`` on it is atomic).
        self._temp_token = os.urandom(6).hex()
        self._temp_serial = count()
        self.entry_format = entry_format
        self.stats = CacheStats()
        self.writes = 0
        self.write_errors = 0
        self.read_errors = 0
        #: Legacy JSON entries parsed (each one is migrated to binary on the
        #: way out, so a warm directory converges to zero of these).
        self.legacy_json_reads = 0
        #: Legacy JSON entries rewritten as binary after a hit.
        self.migrations = 0
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
        """Every stored entry, whichever format it was written in."""
        return chain.from_iterable(self.directory.glob(f"*/*.{suffix}")
                                   for suffix in self._FORMATS)

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def key_for(self, runner: "SandboxRunner", chunk: "Chunk",
                context: "ExecutionContext") -> str:
        """Cache key of one chunk execution (same scheme as every tier)."""
        return chunk_key(runner, chunk, context)

    def _entry_path(self, key: str, suffix: str = "bin") -> str:
        return f"{self._root}{key[:2]}{os.sep}{key}.{suffix}"

    def _path_for(self, key: str, suffix: str = "bin") -> Path:
        return Path(self._entry_path(key, suffix))

    def _migrate_entry(self, key: str, rows: ChunkRows, json_path: str) -> None:
        """Rewrite a legacy JSON hit as a binary entry (best-effort).

        The migration is an optimization, not a correctness step: any IO
        error leaves the JSON entry in place to be retried (or re-migrated)
        on the next hit.  The JSON file is removed only after the binary
        entry landed, so a reader always finds one complete entry.
        """
        encoded = encode_binary_entry(rows)
        if encoded is None:
            return
        if self._write_entry(self._entry_path(key), encoded):
            self.migrations += 1
            try:
                os.unlink(json_path)
            except OSError:
                pass

    def get(self, key: str) -> ChunkRows | None:
        """Rows stored under ``key``, or None on a miss (or corrupt entry)."""
        path = self._entry_path(key)
        json_path: str | None = None  # built only after a binary miss
        rule = self.fault_injector.poll("store.get", token=key) \
            if self.fault_injector is not None else None
        try:
            if rule is not None:
                if rule.kind is FaultKind.DELAY:
                    time.sleep(rule.delay)
                elif rule.kind is FaultKind.IO_ERROR:
                    raise OSError(f"injected store read failure for {key[:12]}")
                elif rule.kind is FaultKind.CORRUPT:
                    # Scribble over the entry so the genuine corrupt-entry
                    # self-heal path below runs against real bytes.
                    target = path if os.path.exists(path) \
                        else self._entry_path(key, "json")
                    if os.path.exists(target):
                        with open(target, "wb") as handle:
                            handle.write(b"\x00corrupt")
            try:
                rows = _read_binary_entry(path)
            except FileNotFoundError:
                json_path = self._entry_path(key, "json")
                rows = _read_json_entry(json_path)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # A torn or foreign file: treat as a miss and drop it so the slot
            # can be rewritten cleanly.
            self.read_errors += 1
            for stale in (path,) if json_path is None else (json_path, path):
                try:
                    os.unlink(stale)
                except OSError:
                    pass
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if json_path is not None:
            # A warm directory written before the binary format: serve the
            # rows, then migrate the entry so the next hit is parse-free.
            # JSON-format stores leave their entries alone — for them JSON
            # is the configured format, not a legacy leftover.
            self.legacy_json_reads += 1
            if self.entry_format == "binary":
                self._migrate_entry(key, rows, json_path)
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

        Binary-format stores encode the rows columnar; rows the codec cannot
        reproduce exactly (and every ``entry_format="json"`` store) are
        written as legacy JSON.  Whichever format lands, the other format's
        file for the same key is removed so a reader never finds a stale
        twin.  IO errors are swallowed and counted (``write_errors``): a
        store that cannot write behaves as a cache that never warms, not as
        a query failure.  Serialization bugs (non-JSON rows) still raise —
        those are programming errors, not environment faults.
        """
        rule = self.fault_injector.poll("store.put", token=key) \
            if self.fault_injector is not None else None
        if rule is not None and rule.kind is FaultKind.DELAY:
            time.sleep(rule.delay)
        if not isinstance(rows, list):
            # ColumnarRows (and any other sequence) serialize as the
            # equivalent dict rows.
            rows = [dict(row) for row in rows]
        encoded = encode_binary_entry(rows) if self.entry_format == "binary" \
            else None
        if encoded is not None:
            data, path = encoded, self._entry_path(key)
            stale = self._entry_path(key, "json")
        else:
            payload = {"format": _DISK_FORMAT, "rows": rows}
            data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
            path, stale = self._entry_path(key, "json"), self._entry_path(key)
        if rule is not None and rule.kind is FaultKind.IO_ERROR:
            self.write_errors += 1
            return
        if self._write_entry(path, data):
            self.writes += 1
            try:
                os.unlink(stale)
            except OSError:
                pass

    def promote(self, key: str, rows: ChunkRows) -> None:
        """No-op: ``promote`` adopts rows a shard already wrote through to
        this very directory, so writing them again would only duplicate the
        atomic rename."""

    def clear(self) -> None:
        """Remove every stored entry, whichever format (counters are kept)."""
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
        self.legacy_json_reads = 0
        self.migrations = 0

    def stats_dict(self) -> dict[str, Any]:
        """Counters plus write count and directory, for stats reporting."""
        stats = self.stats.as_dict()
        stats.pop("evictions", None)  # the disk tier never evicts
        return {**stats, "writes": self.writes,
                "write_errors": self.write_errors,
                "read_errors": self.read_errors,
                "legacy_json_reads": self.legacy_json_reads,
                "migrations": self.migrations,
                "entry_format": self.entry_format,
                "directory": str(self.directory)}

    def health(self) -> dict[str, Any]:
        """Liveness snapshot of the disk tier, for ``service.health()``."""
        writable = os.access(self.directory, os.W_OK | os.X_OK)
        return {"tier": "disk", "directory": str(self.directory),
                "writable": writable,
                "entry_format": self.entry_format,
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
                 disk: DiskChunkStore | str | os.PathLike[str] = "privid-chunk-cache",
                 *, entry_format: str = "binary") -> None:
        self.memory = memory if memory is not None else ChunkResultCache()
        self.disk = disk if isinstance(disk, DiskChunkStore) \
            else DiskChunkStore(disk, entry_format=entry_format)

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
        return f"{_format_spec('disk', store)}:{store.directory}"
    if isinstance(store, TieredChunkCache):
        return f"{_format_spec('tiered', store.disk)}:{store.disk.directory}"
    return None


def _format_spec(kind: str, disk: DiskChunkStore) -> str:
    """The spec kind token carrying a store's entry format.

    The default (binary) format stays the bare ``disk``/``tiered`` token so
    existing spec strings keep meaning what they meant; a JSON-format store
    reduces to ``disk+json``/``tiered+json`` so shard daemons opening the
    spec write the same entries the coordinator does.
    """
    return kind if disk.entry_format == "binary" else f"{kind}+{disk.entry_format}"


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
    ``"tiered:PATH"`` memory in front of disk.  The disk-backed kinds accept
    an entry-format token (``"disk+json:PATH"``, ``"tiered+binary:PATH"``);
    the bare kind means the binary default.  A store instance passes through
    unchanged.  This is the value of the ``cache=`` argument of
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
    kind, _, entry_format = kind.lower().partition("+")
    entry_format = entry_format or "binary"
    if kind in ("disk", "tiered") and entry_format not in ("binary", "json"):
        raise ValueError(f"cache spec {spec!r} has an unknown entry format "
                         f"{entry_format!r}; expected 'binary' or 'json'")
    if kind in ("disk", "tiered") and not path:
        raise ValueError(f"cache spec {spec!r} needs a directory: '{kind}:PATH'")
    if kind == "disk":
        return DiskChunkStore(path, entry_format=entry_format)
    if kind == "tiered":
        return TieredChunkCache(disk=path, entry_format=entry_format)
    raise ValueError(f"unknown cache spec {spec!r}; "
                     "expected 'off', 'memory', 'disk:PATH' or 'tiered:PATH'")
