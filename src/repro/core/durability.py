"""Crash-consistent durability: a write-ahead log and the per-query journal.

The privacy guarantee is only as strong as the budget accounting, and until
this module existed the accounting lived purely in memory: a ``kill -9`` of
an always-on :class:`~repro.service.QueryService` reset every camera's
budget, letting an adversary replay queries past epsilon.  Here the
accounting survives process death: :class:`WriteAheadLog` is the append-only
log of CRC-framed records (:func:`encode_record`; :func:`decode_records`
trusts exactly the prefix before the first damaged frame) with snapshot
compaction, and :class:`QueryJournal` the per-query state
``submit(..., resume_token=)`` resumes from.
A :class:`repro.core.budget.ServiceLedger` given a log builds the journal
over it and owns both: the log holds the ledger's ``register`` and
``charge`` records, which it applies with the same code live and in
replay; replay dispatches journal records back here, and compaction
snapshots ledger and journal together.  A journal always has a log, and
every start carries the query's fingerprint, so the resume check
(:meth:`QueryJournal.start`) is always on.

Fsync discipline
================

One rule: **before a release leaves the service, every WAL record its query
has written — its ``query_start`` and, if it charges, its ``charge`` — is
covered by an fsync; nothing else on the query path is synced.**  An fsync
covers the whole file, so :attr:`WriteAheadLog.synced_seq`, the highest seq
a *successful* fsync is known to cover, is all the state the rule needs.
``register`` and ``charge`` append with ``sync=True``, fsynced before they
are applied: Privid subtracts the budget before anything is released (§6,
Algorithm 1), so the charge is the one fact that must reach stable storage
first, and its fsync carries the query's earlier start along.
``query_start`` and ``query_finish`` append with ``sync=False``.  The
barrier: ``QueryService._run_query`` calls :meth:`WriteAheadLog.sync_through`
with the start record's seq before it hands the result back — a no-op for a
charged query, the one fsync of a release that wrote no charge.  Fsyncs per
query: admitted 1, denied / failed / cancelled / timed-out 0, uncharged
release 1, resume of a charged token 0.  The crash windows, which
``tests/test_durability.py`` enumerates at and inside every record:

* *Start lost, nothing else written* (power loss; ``kill -9`` keeps the page
  cache): nothing charged, drawn or released; the token is fresh again and
  ``next_query_seq`` may reissue its seq — sound, no draw from that noise
  stream ever left.  The barrier keeps it true for uncharged releases.
* *Charge durable*: so is the start before it (recovery sees a prefix, a
  returned fsync covers it); resume reuses the journaled seq, the
  fingerprint check applies, the charge is skipped.
* *Finish lost*: resume re-executes on the same stream to the same bytes,
  charge skipped.
* *fsync fails on the charge*: file rolled back, seq burned, ``synced_seq``
  unmoved, nothing charged or released; others' unsynced records stay put.
* *Two pool threads*: A's unsynced start at seq 10 is covered by B's synced
  charge at 11; A's own charge at 12 still syncs before A releases.

Fault sites
===========

The log takes a :class:`~repro.core.faults.FaultInjector` at construction
only, because recovery strikes ``wal.read`` while the log opens.
``wal.append`` / ``wal.fsync`` (every fsync of the log) / ``wal.read`` are
struck through :meth:`~repro.core.faults.FaultInjector.strike`, so DELAY and
IO_ERROR mean what they mean at every site (a sleep; an :class:`OSError`
naming the site); the log gives CORRUPT its own meaning at ``wal.read``: a
byte of the loaded log image flips.  ``service.crash_at_seq`` is struck
after every append with the record's seq, and — the WAL being silent
between a query's start and its charge — ``service.crash_at_chunk`` by the
service after each chunk with the count done: a CRASH rule at either
invokes :attr:`WriteAheadLog.crash_hook` (default: raise
:class:`~repro.errors.SimulatedCrashError`; the chaos harness installs a
real ``SIGKILL``), a deterministic kill at an exact spot.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Any, Callable

from repro.errors import DurabilityError, ResumeMismatchError, \
    SimulatedCrashError

_HEADER = struct.Struct("<II")

#: Sanity bound on one record's payload: a length field larger than this is
#: framing garbage, not a record that has not finished arriving.
MAX_RECORD_BYTES = 16 * 1024 * 1024


def encode_record(payload: dict[str, Any]) -> bytes:
    """One CRC-framed WAL record: ``<len><crc32><canonical JSON>``."""
    try:
        body = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise DurabilityError(f"WAL payload is not JSON-serializable: {exc}") from exc
    if len(body) > MAX_RECORD_BYTES:
        raise DurabilityError(
            f"WAL payload of {len(body)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte record bound")
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def decode_records(data: bytes) -> tuple[list[dict[str, Any]], int]:
    """Decode a log image, tolerating a torn or garbage tail.

    Returns ``(records, clean_offset)``: every intact record in order, and
    the byte offset of the first damage (== ``len(data)`` for a clean log).
    Never raises on damaged input — a short header, an insane length, a CRC
    mismatch, or unparseable JSON all end the trustworthy prefix, exactly
    the failure an append torn by a crash leaves behind.
    """
    records: list[dict[str, Any]] = []
    offset = 0
    while offset + _HEADER.size <= len(data):
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        if length > MAX_RECORD_BYTES or start + length > len(data):
            break
        body = data[start:start + length]
        if zlib.crc32(body) != crc:
            break
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            break
        if not isinstance(payload, dict):
            break
        records.append(payload)
        offset = start + length
    return records, offset


def _default_crash_hook() -> None:
    raise SimulatedCrashError(
        "injected service crash (kill -9 stand-in); "
        "abandon this instance and recover over the same WAL directory")


class WriteAheadLog:
    """Append-only record log with snapshot compaction.

    One instance owns one directory holding ``wal.log`` (the live segment)
    and ``snapshot.json`` (the last compaction).  Opening the directory *is*
    recovery: the snapshot state (if any) is exposed as
    :attr:`snapshot_state`, the intact log records appended after it as
    :attr:`pending_records`, a torn tail is truncated away so new appends
    never follow damage, and :attr:`recovery_info` reports what happened.
    Thread-safe; record seqs increase monotonically across compactions and
    reopenings.
    """

    def __init__(self, directory: str | Path, *, fault_injector: Any = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.log_path = self.directory / "wal.log"
        self.snapshot_path = self.directory / "snapshot.json"
        self._lock = threading.RLock()
        # Set before recovery so open-time reads strike ``wal.read`` too.
        self._injector: Any = fault_injector
        self._closed = False
        #: Invoked when a ``service.crash_at_*`` CRASH rule fires; the
        #: default raises SimulatedCrashError, the chaos driver installs
        #: ``os.kill(os.getpid(), SIGKILL)`` for a genuine dirty death.
        self.crash_hook: Callable[[], None] = _default_crash_hook
        self.appends = 0
        self.fsyncs = 0
        self.compactions = 0
        self.appends_since_compact = 0

        self.snapshot_state, snapshot_seq = self._load_snapshot()
        #: Highest seq a successful fsync is known to cover ("Fsync
        #: discipline" above); a snapshot is fsynced whole.
        self.synced_seq = snapshot_seq
        records, clean_offset, durable_records, durable_clean, log_bytes = \
            self._load_log()
        #: Records appended after the snapshot, awaiting replay by the owner.
        self.pending_records = [record for record in records
                                if record.get("seq", 0) > snapshot_seq]
        # Seqs are allocated past every record on the *real* file, not the
        # possibly chaos-doctored replay image: an injected mid-file flip
        # drops records from this run's replay, but they are still framed on
        # disk and a reused seq would collide with them at the next open.
        seqs = [snapshot_seq] + [record.get("seq", 0)
                                 for record in durable_records]
        self._next_seq = max(seqs) + 1
        self._snapshot_seq = snapshot_seq
        self.recovery_info = {
            "snapshot_loaded": self.snapshot_state is not None,
            "snapshot_seq": snapshot_seq,
            "log_records": len(records),
            "pending_records": len(self.pending_records),
            "torn_bytes_dropped": log_bytes - durable_clean,
            "injected_damage_bytes": durable_clean - clean_offset,
        }
        # Open for append at the last intact record: a torn tail is cut off
        # here so the next append extends trustworthy framing, never garbage.
        # Only *genuine* on-disk damage is repaired — damage simulated by an
        # injected wal.read CORRUPT fault exists in the loaded image alone,
        # and truncating the file for it would permanently discard intact,
        # fsynced records (acknowledged charges included).
        self._file = open(self.log_path, "a+b")
        if durable_clean != log_bytes:
            self._file.truncate(durable_clean)
        self._file.seek(0, os.SEEK_END)
        if durable_records:
            # After a kill -9 what was just read may sit in the page cache
            # only, and the owner builds its token -> seq map on it.
            self._fsync(self._next_seq - 1)

    # ------------------------------------------------------------- fault seam

    def crash_point(self, site: str, seq: int) -> None:
        """A ``service.crash_at_*`` site: CRASH fires :attr:`crash_hook`."""
        if self._injector is not None \
                and self._injector.strike(site, seq=seq) == "crash":  # a str enum
            self.crash_hook()

    # --------------------------------------------------------------- recovery

    def _load_snapshot(self) -> tuple[dict[str, Any] | None, int]:
        if not self.snapshot_path.exists():
            return None, 0
        try:
            snapshot = json.loads(self.snapshot_path.read_bytes().decode("utf-8"))
            state = snapshot["state"]
            seq = int(snapshot["wal_seq"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # A snapshot is atomically renamed into place, so damage here is
            # not a torn write — acknowledged charges may be missing, and
            # silently starting fresh would refill spent budgets.
            raise DurabilityError(
                f"WAL snapshot {self.snapshot_path} is unreadable: {exc}") from exc
        return state, seq

    def _load_log(self) -> tuple[list[dict[str, Any]], int,
                                 list[dict[str, Any]], int, int]:
        """Load the log image, twice when chaos doctors it.

        Returns ``(records, clean_offset, durable_records, durable_clean,
        log_bytes)``.  ``records``/``clean_offset`` describe the image
        *recovery replays* — possibly doctored by an injected ``wal.read``
        CORRUPT fault, which flips a byte of the in-memory copy so the
        torn-prefix path runs against damage.  ``durable_records`` /
        ``durable_clean`` always describe the undoctored on-disk bytes:
        physical repair (truncation) and seq allocation must follow the real
        file, or a chaos plan against a live WAL directory would discard
        intact, fsynced charge records — silently refilling spent budgets —
        and hand out seqs that duplicate records still on disk.
        """
        kind = self._injector.strike("wal.read") if self._injector is not None else None
        if not self.log_path.exists():
            return [], 0, [], 0, 0
        data = self.log_path.read_bytes()
        durable_records, durable_clean = decode_records(data)
        if kind == "corrupt" and data:
            position = len(data) // 2
            doctored = data[:position] + bytes([data[position] ^ 0xFF]) \
                + data[position + 1:]
            records, clean_offset = decode_records(doctored)
        else:
            records, clean_offset = durable_records, durable_clean
        return records, clean_offset, durable_records, durable_clean, len(data)

    # ----------------------------------------------------------------- append

    def _fsync(self, seq: int) -> None:
        """fsync the log, whose last record is ``seq`` (holding ``_lock``);
        a failure leaves ``synced_seq`` alone."""
        if self._injector is not None:
            self._injector.strike("wal.fsync", seq=seq)
        os.fsync(self._file.fileno())
        self.fsyncs += 1
        self.synced_seq = seq

    def append(self, payload: dict[str, Any], *, sync: bool = True) -> int:
        """Append one record; returns its seq.

        The record is written (and, with ``sync``, fsynced) before this
        returns — the write-ahead contract: *log first, then mutate memory*.
        ``sync=False`` leaves durability to a later synced append or
        :meth:`sync_through`.  ``service.crash_at_seq`` is polled after the
        append with the new seq, the chaos plans' deterministic kill point.
        """
        with self._lock:
            if self._closed:
                raise DurabilityError("WriteAheadLog is closed")
            seq = self._next_seq
            record = dict(payload)
            record["seq"] = seq
            blob = encode_record(record)
            # Struck before anything touches the file: an injected IO_ERROR
            # here models open/write refusal, with nothing to roll back.
            if self._injector is not None:
                self._injector.strike("wal.append", seq=seq)
            offset = self._file.tell()
            try:
                self._file.write(blob)
                self._file.flush()
                if sync:
                    self._fsync(seq)
            except BaseException:
                # The caller will treat this append as failed, but the bytes
                # may already be in the file (fsync raised after the write
                # landed, e.g. ENOSPC or an injected wal.fsync IO_ERROR).
                # Left in place they would replay on recovery as a phantom
                # mutation nobody acknowledged, so roll the file back to the
                # pre-write offset.  The seq is burned either way: if the
                # truncate itself fails the record may survive on disk, and
                # reusing its seq would frame a duplicate.
                self._next_seq = seq + 1
                try:
                    self._file.truncate(offset)
                    self._file.seek(offset)
                except OSError:  # pragma: no cover - rollback on a dead fd
                    pass
                raise
            self._next_seq = seq + 1
            self.appends += 1
            self.appends_since_compact += 1
            self.crash_point("service.crash_at_seq", seq)
            return seq

    def sync_through(self, seq: int) -> None:
        """The release barrier: return once an fsync covers record ``seq`` —
        at once when a later synced append or a compaction already did."""
        with self._lock:
            if seq <= self.synced_seq:
                return
            if self._closed:
                raise DurabilityError("WriteAheadLog is closed")
            self._fsync(self._next_seq - 1)

    # ------------------------------------------------------------- compaction

    def compact(self, state: dict[str, Any]) -> None:
        """Fold applied state into a snapshot and truncate the log.

        The snapshot (carrying ``wal_seq`` = the last appended record, so a
        crash between rename and truncate leaves only records the snapshot
        already covers — replay skips them by seq) is written to a temp
        file, fsynced, atomically renamed, and the directory fsynced before
        the log is truncated.  At no instant does stable storage lack a full
        account of every acknowledged mutation.
        """
        with self._lock:
            if self._closed:
                raise DurabilityError("WriteAheadLog is closed")
            last_seq = self._next_seq - 1
            body = json.dumps({"wal_seq": last_seq, "state": state},
                              sort_keys=True, separators=(",", ":")).encode("utf-8")
            temp_path = self.snapshot_path.with_name(self.snapshot_path.name + ".tmp")
            with open(temp_path, "wb") as handle:
                handle.write(body)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, self.snapshot_path)
            self._fsync_directory()
            self._file.truncate(0)
            self._file.seek(0)
            os.fsync(self._file.fileno())
            self._snapshot_seq = self.synced_seq = last_seq
            self.compactions += 1
            self.appends_since_compact = 0

    def _fsync_directory(self) -> None:
        try:
            directory_fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir-open
            return
        try:
            os.fsync(directory_fd)
        finally:
            os.close(directory_fd)

    # ------------------------------------------------------------------ state

    def status(self) -> dict[str, Any]:
        """Ops snapshot for ``health()``: position, sizes, fsync accounting."""
        with self._lock:
            try:
                log_bytes = self.log_path.stat().st_size
            except OSError:
                log_bytes = 0
            return {"path": str(self.directory),
                    "last_seq": self._next_seq - 1,
                    "snapshot_seq": self._snapshot_seq,
                    "synced_seq": self.synced_seq,
                    "log_bytes": log_bytes,
                    "appends": self.appends,
                    "fsyncs": self.fsyncs,
                    "compactions": self.compactions,
                    "appends_since_compact": self.appends_since_compact,
                    "closed": self._closed}

    def close(self) -> None:
        """Release the log file handle.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._file.close()
            except OSError:  # pragma: no cover - close on a dead fd
                pass


def _new_entry(token: str, query_seq: int, query_name: str,
               fingerprint: str | None) -> dict[str, Any]:
    return {"token": token, "query_seq": query_seq, "query": query_name,
            "fingerprint": fingerprint, "charged": False, "finished": False,
            "resumes": 0}


class QueryJournal:
    """Per-query durable state: what ``resume_token`` resumes from.

    One entry per journaled query: its resume token, the query seq its noise
    stream is keyed by (resume must reuse it for byte-identity), the query's
    fingerprint, and the charged/finished flags.  Entries mutate through the
    WAL, log first: :meth:`start` and :meth:`finish` append *unsynced* under
    the journal's lock and only then touch memory, so an entry exists only
    once its record is in the file; the release barrier makes the start
    durable before anything leaves on its noise stream ("Fsync discipline"
    above).  Recovery rebuilds entries with :meth:`apply` / :meth:`restore`,
    both idempotent.

    The ``charged`` flag is *not* journal-owned: the ledger's charge record
    is the ground truth, and :class:`~repro.core.budget.ServiceLedger`
    calls :meth:`mark_charged` when it applies one (live or during replay).
    """

    def __init__(self, wal: WriteAheadLog) -> None:
        self.wal = wal
        self._lock = threading.RLock()
        self._entries: dict[str, dict[str, Any]] = {}
        #: token -> WAL seq of the start record this process wrote for it; a
        #: start that recovery read is durable already (the open fsynced it).
        self._start_seqs: dict[str, int] = {}

    # ------------------------------------------------------------------ reads

    def entry(self, token: str) -> dict[str, Any] | None:
        """A snapshot of one journal entry, or None."""
        with self._lock:
            entry = self._entries.get(token)
            return dict(entry) if entry is not None else None

    def next_query_seq(self) -> int:
        """The first query seq no journaled query has used.

        A recovered service starts numbering here so a resumed query's
        reused seq can never collide with a fresh submission's — seq keys
        the per-query noise stream, and a collision would correlate noise
        across queries.
        """
        with self._lock:
            if not self._entries:
                return 0
            return max(entry["query_seq"] for entry in self._entries.values()) + 1

    # ------------------------------------------------------------- mutations

    def start(self, token: str, query_seq: int, query_name: str,
              fingerprint: str) -> int:
        """Journal a query start (unsynced); idempotent on resume (same token).

        Returns the WAL seq the release barrier must see fsynced: the start
        record's if this process wrote it, 0 if recovery read it.

        ``fingerprint`` (:func:`repro.service.query_fingerprint`) rides the
        start record.  A resume whose fingerprint differs from the journaled
        one raises :class:`~repro.errors.ResumeMismatchError` *before*
        anything runs: the token's charge may already have landed, and a
        different query riding it would run charge-free on the original
        noise stream — a budget bypass, the analyst being the adversary.
        Only an entry with no journaled fingerprint lets any resume through:
        the placeholder :meth:`mark_charged` makes for a charge whose start
        is not in the log, or a start from a log older than fingerprints.
        """
        with self._lock:
            existing = self._entries.get(token)
            if existing is not None:
                journaled = existing.get("fingerprint")
                if journaled is not None and fingerprint != journaled:
                    raise ResumeMismatchError(
                        f"resume token {token!r} was journaled for a "
                        f"different query (fingerprint {journaled[:12]}..., "
                        f"resubmitted {fingerprint[:12]}...); a charged "
                        f"token admits only the exact query it charged")
                existing["resumes"] += 1
                return self._start_seqs.get(token, 0)
            # Log first: were the append to raise with the entry already in
            # memory, a retry would take the resume branch above and release
            # on a query seq no record ever named.
            seq = self._start_seqs[token] = self.wal.append(
                {"op": "query_start", "token": token,
                 "query_seq": query_seq, "query": query_name,
                 "fingerprint": fingerprint}, sync=False)
            self._entries[token] = _new_entry(token, query_seq, query_name,
                                              fingerprint)
            return seq

    def mark_charged(self, token: str) -> None:
        """The ledger applied this query's charge (live or replayed)."""
        with self._lock:
            entry = self._entries.setdefault(token,
                                             _new_entry(token, -1, "", None))
            entry["charged"] = True

    def finish(self, token: str) -> None:
        """Journal successful completion (unsynced: losing it costs a resume
        that re-executes to the same bytes and skips the charge)."""
        with self._lock:
            entry = self._entries.get(token)
            if entry is None:
                return
            self.wal.append({"op": "query_finish", "token": token}, sync=False)
            entry["finished"] = True

    # --------------------------------------------------------------- recovery

    def apply(self, record: dict[str, Any]) -> None:
        """Replay one journal record (idempotent; unknown ops are ignored —
        the ``query_progress`` records older logs carry among them)."""
        op = record.get("op")
        token = record.get("token")
        if not isinstance(token, str):
            return
        with self._lock:
            if op == "query_start":
                self._entries.setdefault(token, _new_entry(
                    token, int(record.get("query_seq", -1)),
                    record.get("query", ""), record.get("fingerprint")))
            elif op == "query_finish":
                entry = self._entries.get(token)
                if entry is not None:
                    entry["finished"] = True

    def state_payload(self) -> dict[str, Any]:
        """JSON-safe journal state for snapshot compaction."""
        with self._lock:
            return {token: dict(entry)
                    for token, entry in sorted(self._entries.items())}

    def compact(self, state: dict[str, Any]) -> None:
        """Add the journal to ``state`` and compact the WAL over it, holding
        the journal's lock from the copy to the truncation: a start record
        appended between the two would be in neither snapshot nor log."""
        with self._lock:
            state["journal"] = self.state_payload()
            self.wal.compact(state)

    def restore(self, state: dict[str, Any]) -> None:
        """Load journal state from a compaction snapshot."""
        with self._lock:
            self._entries = {token: dict(entry)
                             for token, entry in state.items()}
