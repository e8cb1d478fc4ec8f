"""Tests for the write-ahead log, journal, and crash-consistent ledger.

The contract under test, bottom-up:

* **record codec** — ``decode_records(encode_record(p) + ...)`` reproduces
  every payload exactly, and *any* damage (truncation, a flipped byte) ends
  the trustworthy prefix without raising — never yields a wrong record;
* **WriteAheadLog** — opening a directory *is* recovery: torn tails are
  truncated away, seqs stay monotonic across reopen and compaction, and the
  ``wal.*`` / ``service.crash_at_seq`` fault sites thread the PR-7 chaos
  machinery through the durability layer;
* **DurableServiceLedger** — registrations and charges are logged before
  they take effect, recover bit-exactly, and replay idempotently: the same
  ``query_id`` can never charge twice, whichever side of the charge append
  a crash lands on;
* **snapshot equivalence** — compacting at any point mid-history changes
  nothing observable: snapshot+log replay equals pure-log replay.
"""

import json
import os
import sys
import tempfile
from concurrent.futures import wait

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.budget import BudgetRequest, DurableServiceLedger, ServiceLedger
from repro.core.durability import (
    MAX_RECORD_BYTES,
    QueryJournal,
    WriteAheadLog,
    decode_records,
    encode_record,
)
from repro.core.faults import FaultKind, FaultPlan, FaultRule
from repro.core.policy import PrivacyPolicy
from repro.errors import (
    BudgetExceededError,
    DurabilityError,
    PolicyError,
    ResumeMismatchError,
    SimulatedCrashError,
)
from repro.query.builder import QueryBuilder
from repro.service import QueryService
from repro.utils.timebase import TimeInterval

from tests.conftest import make_crossing_object, make_simple_video

# ---------------------------------------------------------- codec strategies

_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=24),
)

#: WAL payloads are JSON objects; keep them shallow but varied.
_PAYLOADS = st.dictionaries(st.text(min_size=1, max_size=12), _JSON_SCALARS,
                            max_size=5)


def _encode_all(payloads):
    frames = [encode_record(payload) for payload in payloads]
    offsets = []
    position = 0
    for frame in frames:
        offsets.append((position, position + len(frame)))
        position += len(frame)
    return b"".join(frames), offsets


class TestRecordCodec:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_PAYLOADS, max_size=8))
    def test_roundtrip_is_exact(self, payloads):
        data, _ = _encode_all(payloads)
        records, clean_offset = decode_records(data)
        assert records == payloads
        assert clean_offset == len(data)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_PAYLOADS, min_size=1, max_size=6), st.data())
    def test_truncated_tail_recovers_the_intact_prefix(self, payloads, data):
        image, offsets = _encode_all(payloads)
        cut = data.draw(st.integers(min_value=0, max_value=len(image) - 1))
        records, clean_offset = decode_records(image[:cut])
        # Every frame that survived the cut in full decodes; the torn one
        # (and anything after it) is dropped, never misread.
        intact = sum(1 for _, end in offsets if end <= cut)
        assert records == payloads[:intact]
        assert clean_offset == offsets[intact - 1][1] if intact else clean_offset == 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_PAYLOADS, min_size=1, max_size=6), st.data())
    def test_garbage_byte_ends_the_trustworthy_prefix(self, payloads, data):
        image, offsets = _encode_all(payloads)
        position = data.draw(st.integers(min_value=0, max_value=len(image) - 1))
        damaged = image[:position] \
            + bytes([image[position] ^ 0xFF]) + image[position + 1:]
        records, _ = decode_records(damaged)
        # The prefix property: whatever decodes equals the original records
        # verbatim (CRC framing never lets a damaged frame masquerade as a
        # record), and every frame strictly before the damage survives.
        before_damage = sum(1 for _, end in offsets if end <= position)
        assert records[:before_damage] == payloads[:before_damage]
        assert records == payloads[:len(records)]

    def test_unserializable_payload_is_refused(self):
        with pytest.raises(DurabilityError):
            encode_record({"bad": object()})

    def test_oversized_payload_is_refused(self):
        with pytest.raises(DurabilityError):
            encode_record({"blob": "x" * (MAX_RECORD_BYTES + 1)})

    def test_non_dict_payload_ends_the_prefix(self):
        body = json.dumps([1, 2, 3]).encode("utf-8")
        import struct
        import zlib
        frame = struct.pack("<II", len(body), zlib.crc32(body)) + body
        records, clean_offset = decode_records(
            encode_record({"ok": 1}) + frame)
        assert records == [{"ok": 1}]
        assert clean_offset == len(encode_record({"ok": 1}))


# ------------------------------------------------------------ write-ahead log


class TestWriteAheadLog:
    def test_reopen_replays_appends_and_continues_seqs(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        seqs = [wal.append({"op": "x", "n": n}) for n in range(3)]
        assert seqs == [1, 2, 3]
        wal.close()
        reopened = WriteAheadLog(tmp_path)
        assert [r["n"] for r in reopened.pending_records] == [0, 1, 2]
        assert reopened.recovery_info["torn_bytes_dropped"] == 0
        assert reopened.append({"op": "x", "n": 3}) == 4
        reopened.close()

    def test_torn_tail_is_truncated_and_overwritten(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append({"op": "keep"})
        wal.close()
        intact_size = (tmp_path / "wal.log").stat().st_size
        with open(tmp_path / "wal.log", "ab") as handle:
            handle.write(encode_record({"op": "torn", "seq": 2})[:-3])
        reopened = WriteAheadLog(tmp_path)
        assert [r["op"] for r in reopened.pending_records] == ["keep"]
        assert reopened.recovery_info["torn_bytes_dropped"] > 0
        # The damage was cut away: the next append lands where the torn
        # record began, and a third open sees a fully clean log.
        assert (tmp_path / "wal.log").stat().st_size == intact_size
        reopened.append({"op": "next"})
        reopened.close()
        final = WriteAheadLog(tmp_path)
        assert [r["op"] for r in final.pending_records] == ["keep", "next"]
        assert final.recovery_info["torn_bytes_dropped"] == 0
        final.close()

    def test_compaction_snapshots_and_truncates(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append({"op": "a"})
        last = wal.append({"op": "b"})
        wal.compact({"applied": ["a", "b"]})
        assert (tmp_path / "wal.log").stat().st_size == 0
        assert not list(tmp_path.glob("*.tmp"))
        after = wal.append({"op": "c"})
        assert after == last + 1
        wal.close()
        reopened = WriteAheadLog(tmp_path)
        assert reopened.snapshot_state == {"applied": ["a", "b"]}
        # Only records past the snapshot replay.
        assert [r["op"] for r in reopened.pending_records] == ["c"]
        reopened.close()

    def test_damaged_snapshot_refuses_to_open(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append({"op": "a"})
        wal.compact({"applied": 1})
        wal.close()
        (tmp_path / "snapshot.json").write_bytes(b"{not json")
        with pytest.raises(DurabilityError):
            WriteAheadLog(tmp_path)

    def test_closed_log_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.close()
        wal.close()  # idempotent
        with pytest.raises(DurabilityError):
            wal.append({"op": "late"})

    def test_append_and_fsync_fault_sites_raise_os_error(self, tmp_path):
        plan = FaultPlan(name="wal-io", seed=1, rules=(
            FaultRule(site="wal.append", kind=FaultKind.IO_ERROR, at=(1,),
                      max_fires=1),
            FaultRule(site="wal.fsync", kind=FaultKind.IO_ERROR, at=(1,),
                      max_fires=1),
        ))
        wal = WriteAheadLog(tmp_path, fault_injector=plan.injector())
        wal.append({"op": "fine"})
        with pytest.raises(OSError):
            wal.append({"op": "doomed-write"})
        with pytest.raises(OSError):
            wal.append({"op": "doomed-sync"})
        wal.append({"op": "fine-again"})
        wal.close()

    def test_failed_fsync_leaves_no_phantom_record(self, tmp_path):
        # An fsync that fails *after* the write landed must not leave the
        # record behind: the caller saw the charge fail, so replaying it on
        # recovery would apply a mutation nobody acknowledged.  The burned
        # seq must also never be reused — a duplicate-seq record would
        # shadow or double-apply on replay.
        plan = FaultPlan(name="wal-sync", seed=1, rules=(
            FaultRule(site="wal.fsync", kind=FaultKind.IO_ERROR, at=(1,),
                      max_fires=1),))
        wal = WriteAheadLog(tmp_path, fault_injector=plan.injector())
        first = wal.append({"op": "fine"})
        with pytest.raises(OSError):
            wal.append({"op": "phantom-charge"})
        third = wal.append({"op": "fine-again"})
        assert third > first + 1  # the failed append's seq was burned
        wal.close()
        recovered = WriteAheadLog(tmp_path)
        ops = [r["op"] for r in recovered.pending_records]
        assert ops == ["fine", "fine-again"]
        seqs = [r["seq"] for r in recovered.pending_records]
        assert seqs == sorted(set(seqs))
        recovered.close()

    def test_read_corrupt_fault_drops_the_damaged_tail(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for n in range(4):
            wal.append({"op": "x", "n": n})
        wal.close()
        plan = FaultPlan(name="wal-rot", seed=1, rules=(
            FaultRule(site="wal.read", kind=FaultKind.CORRUPT, at=(0,),
                      max_fires=1),))
        rotted = WriteAheadLog(tmp_path, fault_injector=plan.injector())
        assert rotted.recovery_info["injected_damage_bytes"] > 0
        survived = [r["n"] for r in rotted.pending_records]
        assert survived == list(range(len(survived)))  # intact prefix only
        assert len(survived) < 4  # the injected flip really dropped records
        rotted.close()

    def test_injected_corruption_never_repairs_the_real_file(self, tmp_path):
        # The CORRUPT fault doctors only the loaded image; the on-disk
        # records are intact and fsynced (acknowledged charges!), so the
        # open must not truncate them away, and new appends must not reuse
        # the seqs of records the doctored replay skipped.
        wal = WriteAheadLog(tmp_path)
        for n in range(4):
            wal.append({"op": "x", "n": n})
        wal.close()
        plan = FaultPlan(name="wal-rot", seed=1, rules=(
            FaultRule(site="wal.read", kind=FaultKind.CORRUPT, at=(0,),
                      max_fires=1),))
        rotted = WriteAheadLog(tmp_path, fault_injector=plan.injector())
        assert rotted.recovery_info["torn_bytes_dropped"] == 0
        rotted.append({"op": "x", "n": 4})
        rotted.close()
        clean = WriteAheadLog(tmp_path)
        assert [r["n"] for r in clean.pending_records] == [0, 1, 2, 3, 4]
        seqs = [r["seq"] for r in clean.pending_records]
        assert seqs == sorted(set(seqs))  # no duplicate seqs after the rot
        clean.close()

    def test_crash_at_seq_invokes_the_crash_hook(self, tmp_path):
        plan = FaultPlan(name="kill", seed=1, rules=(
            FaultRule(site="service.crash_at_seq", kind=FaultKind.CRASH,
                      after_seq=2),))
        wal = WriteAheadLog(tmp_path, fault_injector=plan.injector())
        wal.append({"op": "a"})
        with pytest.raises(SimulatedCrashError):
            wal.append({"op": "b"})
        wal.close()
        # The record was durable before the "kill": recovery sees it.
        recovered = WriteAheadLog(tmp_path)
        assert [r["op"] for r in recovered.pending_records] == ["a", "b"]
        recovered.close()


    def test_synced_seq_follows_successful_fsyncs_only(self, tmp_path):
        plan = FaultPlan(name="wal-sync", seed=1, rules=(
            FaultRule(site="wal.fsync", kind=FaultKind.IO_ERROR, at=(1,),
                      max_fires=1),))
        wal = WriteAheadLog(tmp_path, fault_injector=plan.injector())
        assert wal.status()["synced_seq"] == 0
        wal.append({"op": "a"}, sync=False)
        assert (wal.synced_seq, wal.fsyncs) == (0, 0)
        wal.append({"op": "b"})  # an fsync covers the whole file
        assert (wal.synced_seq, wal.fsyncs) == (2, 1)
        wal.append({"op": "c"}, sync=False)
        with pytest.raises(OSError):
            wal.append({"op": "doomed"})
        assert (wal.synced_seq, wal.fsyncs) == (2, 1)
        wal.sync_through(2)  # already covered: no fsync
        assert wal.fsyncs == 1
        wal.sync_through(3)  # covers everything appended so far
        assert (wal.synced_seq, wal.fsyncs) == (4, 2)
        wal.append({"op": "d"}, sync=False)
        wal.compact({"applied": "abcd"})  # the snapshot is fsynced whole
        assert wal.status()["synced_seq"] == 5
        wal.append({"op": "e"}, sync=False)
        wal.close()
        with pytest.raises(DurabilityError):
            wal.sync_through(6)
        # Opening a non-empty log fsyncs what recovery read: after a kill -9
        # it may sit in the page cache only.
        reopened = WriteAheadLog(tmp_path)
        assert (reopened.synced_seq, reopened.fsyncs) == (6, 1)
        reopened.close()

    def test_sync_through_honours_fsync_disabled(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        seq = wal.append({"op": "a"}, sync=False)
        wal.sync_through(seq)
        assert (wal.synced_seq, wal.fsyncs) == (seq, 0)
        wal.close()


# ------------------------------------------------------------ durable ledger


def _request(start=0.0, end=10.0, epsilon=1.0):
    return BudgetRequest(interval=TimeInterval(start, end), epsilon=epsilon)


def _open_ledger(directory, **kwargs):
    wal = WriteAheadLog(directory)
    return wal, DurableServiceLedger(wal, **kwargs)


class TestDurableServiceLedger:
    def test_recovery_is_bit_exact(self, tmp_path):
        wal, ledger = _open_ledger(tmp_path)
        ledger.register("cam-a", 5.0)
        ledger.register("cam-b", 3.0)
        ledger.admit_many({"cam-a": [_request(0, 10, 1.0)],
                           "cam-b": [_request(5, 25, 0.25)]},
                          {"cam-a": 2.0, "cam-b": 2.0}, query_id="q-0")
        ledger.admit_many({"cam-a": [_request(30, 40, 0.5)]}, {},
                          query_id="q-1")
        snapshot = ledger.snapshot()
        wal.close()
        wal2, recovered = _open_ledger(tmp_path)
        assert recovered.snapshot() == snapshot
        assert recovered.query_charged("q-0")
        assert recovered.query_charged("q-1")
        assert recovered.last_recovery["records_replayed"] == 4
        wal2.close()

    def test_replayed_query_id_never_charges_twice(self, tmp_path):
        wal, ledger = _open_ledger(tmp_path)
        ledger.register("cam", 5.0)
        remaining = ledger.admit_many({"cam": [_request()]}, {}, query_id="q-0")
        assert remaining == {"cam": 4.0}
        snapshot = ledger.snapshot()
        # Resubmission (the resume path) is a no-op, not a second charge —
        # even when the duplicate would otherwise be denied for budget — and
        # still reports the remaining budget.
        assert ledger.admit_many({"cam": [_request(epsilon=4.9)]}, {},
                                 query_id="q-0") == remaining
        assert ledger.snapshot() == snapshot
        wal.close()

    def test_crash_between_append_and_apply_recovers_the_charge(self, tmp_path):
        # The nastiest window: the charge record hit stable storage but the
        # in-memory ledger never applied it.  Replay must reconstruct the
        # charge, and the resumed query must skip admission.
        plan = FaultPlan(name="kill-at-charge", seed=1, rules=(
            FaultRule(site="service.crash_at_seq", kind=FaultKind.CRASH,
                      after_seq=2),))
        wal = WriteAheadLog(tmp_path, fault_injector=plan.injector())
        ledger = DurableServiceLedger(wal)
        ledger.register("cam", 5.0)
        with pytest.raises(SimulatedCrashError):
            ledger.admit_many({"cam": [_request()]}, {}, query_id="q-0")
        assert not ledger.query_charged("q-0")  # memory never saw it
        wal.close()
        wal2, recovered = _open_ledger(tmp_path)
        assert recovered.query_charged("q-0")
        remaining = recovered.snapshot()["cam"]["remaining_min"]
        assert remaining == pytest.approx(4.0)
        # ... and the resume is idempotent on top of the replay.
        recovered.admit_many({"cam": [_request()]}, {}, query_id="q-0")
        assert recovered.snapshot()["cam"]["remaining_min"] == pytest.approx(4.0)
        wal2.close()

    def test_denied_admission_logs_and_charges_nothing(self, tmp_path):
        wal, ledger = _open_ledger(tmp_path)
        ledger.register("cam", 1.0)
        appends_before = wal.appends
        with pytest.raises(BudgetExceededError):
            ledger.admit_many({"cam": [_request(epsilon=2.0)]}, {},
                              query_id="q-0")
        assert wal.appends == appends_before
        wal.close()
        wal2, recovered = _open_ledger(tmp_path)
        assert not recovered.query_charged("q-0")
        assert recovered.snapshot()["cam"]["remaining_min"] == pytest.approx(1.0)
        wal2.close()

    def test_invalid_register_writes_no_record(self, tmp_path):
        wal, ledger = _open_ledger(tmp_path)
        with pytest.raises(PolicyError):
            ledger.register("cam", 0.0)
        assert wal.appends == 0
        ledger.register("cam", 5.0)
        with pytest.raises(PolicyError):
            ledger.register("cam", 7.0)  # epsilon mismatch, as in-memory
        assert wal.appends == 1  # re-registration attempts write nothing
        wal.close()

    def test_charge_for_unregistered_camera_fails_recovery(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append({"op": "charge", "query_id": "q",
                    "cameras": {"ghost": [[0.0, 1.0, 0.5]]}})
        wal.close()
        wal2 = WriteAheadLog(tmp_path)
        with pytest.raises(DurabilityError):
            DurableServiceLedger(wal2)
        wal2.close()

    def test_duplicate_charge_record_charges_once(self, tmp_path):
        # One charge record per query_id: a second copy (a resubmission
        # replayed, a crash between rename and truncate) is skipped whole.
        # Records without a query_id are not keyed and charge every time.
        charge = {"op": "charge", "query_id": "q",
                  "cameras": {"cam": [[0.0, 10.0, 1.0], [0.0, 10.0, 1.0]]}}
        wal = WriteAheadLog(tmp_path)
        wal.append({"op": "register", "camera": "cam", "total_epsilon": 9.0})
        for record in (charge, charge, dict(charge, query_id=None),
                       dict(charge, query_id=None)):
            wal.append(record)
        wal.close()
        wal2, ledger = _open_ledger(tmp_path)
        assert ledger.snapshot()["cam"] == {
            "total_epsilon": 9.0, "remaining_min": 3.0, "charges": 6}
        assert ledger._charged_queries == {"q": 2}
        ledger.compact()
        state = json.loads((tmp_path / "snapshot.json").read_text())["state"]
        assert sorted(state["ledger"]) == ["cameras", "charged_queries"]
        wal2.close()

    def test_directory_written_by_the_parent_commit_recovers(self, tmp_path):
        # tests/data/wal_written_by_pr19 is a WAL directory PR 19's code
        # wrote (five queries: two charged, one denied, one uncharged, one
        # killed mid-stream; a snapshot with charge_keys and chunks_done,
        # a log with query_progress records) beside what PR 19's own
        # recovery rebuilt from it.
        import shutil
        from pathlib import Path
        fixture = Path(__file__).parent / "data" / "wal_written_by_pr19"
        expected = json.loads((fixture / "expected.json").read_text())
        for name in ("wal.log", "snapshot.json"):
            shutil.copy(fixture / name, tmp_path / name)

        def recovered_state():
            wal = WriteAheadLog(tmp_path)
            journal = QueryJournal(wal)
            ledger = DurableServiceLedger(wal, journal=journal)
            entries = {token: journal.entry(token) for token in journal.tokens()}
            state = {"budgets": ledger.snapshot(),
                     "charged_queries": dict(ledger._charged_queries),
                     "query_seqs": {t: e["query_seq"] for t, e in entries.items()},
                     "finished": {t: e["finished"] for t, e in entries.items()}}
            return wal, ledger, state

        wal, ledger, state = recovered_state()
        assert state == expected
        assert wal.recovery_info["torn_bytes_dropped"] == 0
        # ... and survives this commit's own snapshot format.
        ledger.compact()
        wal.close()
        wal, _, state = recovered_state()
        assert state == expected
        wal.close()

    def test_compaction_threshold_folds_the_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        ledger = DurableServiceLedger(wal, compact_every=3)
        ledger.register("cam", 50.0)
        for n in range(4):
            ledger.admit_many({"cam": [_request(10.0 * n, 10.0 * n + 5)]},
                              {}, query_id=f"q-{n}")
        assert wal.compactions >= 1
        snapshot = ledger.snapshot()
        wal.close()
        wal2, recovered = _open_ledger(tmp_path)
        assert recovered.last_recovery["snapshot_loaded"] is True
        assert recovered.snapshot() == snapshot
        assert all(recovered.query_charged(f"q-{n}") for n in range(4))
        wal2.close()


# ------------------------------------------- snapshot/log replay equivalence


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("register"),
                  st.sampled_from(["cam-a", "cam-b", "cam-c"]),
                  st.floats(min_value=1.0, max_value=50.0,
                            allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("charge"),
                  st.sampled_from(["cam-a", "cam-b", "cam-c"]),
                  st.floats(min_value=0.0, max_value=100.0,
                            allow_nan=False, allow_infinity=False)),
    ),
    min_size=1, max_size=12)


class TestSnapshotLogEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(_OPS, st.data())
    def test_snapshot_plus_log_equals_pure_log_replay(self, ops, data):
        """Compacting mid-history must not change what recovery rebuilds."""
        compact_after = data.draw(
            st.integers(min_value=0, max_value=len(ops) - 1))
        with tempfile.TemporaryDirectory() as pure_dir, \
                tempfile.TemporaryDirectory() as compacted_dir:
            ledgers = {}
            for name, directory in (("pure", pure_dir),
                                    ("compacted", compacted_dir)):
                wal = WriteAheadLog(directory)
                ledger = DurableServiceLedger(
                    wal, journal=QueryJournal(wal))
                ledgers[name] = (wal, ledger)
                for index, (op, camera, value) in enumerate(ops):
                    try:
                        if op == "register":
                            ledger.register(camera, value)
                        else:
                            ledger.admit_many(
                                {camera: [_request(value, value + 5.0, 0.1)]},
                                {}, query_id=f"q-{index}")
                    except Exception:
                        # Epsilon-mismatch re-registration, unknown camera,
                        # over budget: all rejected before logging anything.
                        pass
                    if name == "compacted" and index == compact_after:
                        ledger.compact()
                wal.close()
            recovered = {}
            for name, directory in (("pure", pure_dir),
                                    ("compacted", compacted_dir)):
                wal = WriteAheadLog(directory)
                journal = QueryJournal(wal)
                ledger = DurableServiceLedger(wal, journal=journal)
                recovered[name] = (ledger.snapshot(), journal.state_payload())
                wal.close()
            assert recovered["pure"] == recovered["compacted"]


# ----------------------------------------------------------------- journal


class TestQueryJournal:
    def test_journal_round_trips_through_the_wal(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        journal = QueryJournal(wal)
        # start hands back its record's WAL seq: what the release barrier
        # must see fsynced.  Neither start nor finish syncs.
        assert journal.start("tok-a", 0, "q") == 1
        assert journal.start("tok-b", 1, "r") == 2
        journal.finish("tok-b")
        assert journal.start("tok-a", 0, "q") == 1  # a resume: same record
        assert (wal.appends, wal.fsyncs, wal.synced_seq) == (3, 0, 0)
        wal.close()
        wal2 = WriteAheadLog(tmp_path)
        replayed = QueryJournal(wal2)
        for record in wal2.pending_records:
            replayed.apply(record)
        assert replayed.entry("tok-a") == {
            "token": "tok-a", "query_seq": 0, "query": "q",
            "fingerprint": None, "charged": False,
            "finished": False, "resumes": 0}
        assert replayed.entry("tok-b")["finished"] is True
        assert replayed.next_query_seq() == 2
        assert replayed.tokens() == ("tok-a", "tok-b")
        # What recovery read is durable (the open fsynced it): nothing owed.
        assert replayed.start("tok-a", 0, "q") == 0
        wal2.close()

    def test_replay_is_idempotent_and_ignores_progress_records(self, tmp_path):
        journal = QueryJournal()  # journal works without a WAL too
        assert journal.start("tok", 0, "q") == 0
        before = journal.entry("tok")
        # Logs written before PR 20 carry one of these per chunk.
        journal.apply({"op": "query_progress", "token": "tok", "chunks_done": 5})
        journal.apply({"op": "query_start", "token": "tok", "query_seq": 9})
        assert journal.entry("tok") == before
        finish = {"op": "query_finish", "token": "tok"}
        journal.apply(finish)
        journal.apply(finish)
        assert journal.entry("tok") == dict(before, finished=True)

    def test_failed_start_append_leaves_no_entry(self, tmp_path):
        # Log first, then mutate: an entry whose record never reached the
        # file would send the retry down the resume branch, which writes no
        # start record at all.
        plan = FaultPlan(name="start-io", seed=1, rules=(
            FaultRule(site="wal.append", kind=FaultKind.IO_ERROR, at=(0,),
                      max_fires=1),))
        wal = WriteAheadLog(tmp_path, fault_injector=plan.injector())
        journal = QueryJournal(wal)
        with pytest.raises(OSError):
            journal.start("tok", 4, "q", "fp")
        assert journal.entry("tok") is None
        assert journal.start("tok", 5, "q", "fp") == 1  # nothing was written
        assert journal.entry("tok")["resumes"] == 0
        wal.close()
        wal2 = WriteAheadLog(tmp_path)
        assert [(r["op"], r["query_seq"]) for r in wal2.pending_records] \
            == [("query_start", 5)]
        wal2.close()

    def test_compaction_cannot_lose_a_concurrent_start(self, tmp_path):
        # A start record appended after the journal was copied into the
        # snapshot but before the log was truncated would be in neither —
        # yet below the synced_seq the snapshot sets.  The journal's lock
        # spans both, so the racing start waits and lands after.
        import threading
        wal = WriteAheadLog(tmp_path)
        journal = QueryJournal(wal)
        ledger = DurableServiceLedger(wal, journal=journal)
        ledger.register("cam", 5.0)
        racer = threading.Thread(target=journal.start, args=("tok", 7, "q"))
        compact = wal.compact

        def compact_while_a_start_races(state):
            racer.start()
            racer.join(timeout=0.2)
            compact(state)

        wal.compact = compact_while_a_start_races
        ledger.compact()
        racer.join(timeout=5.0)
        assert not racer.is_alive()
        wal.close()
        wal2 = WriteAheadLog(tmp_path)
        recovered = QueryJournal(wal2)
        DurableServiceLedger(wal2, journal=recovered)
        assert recovered.entry("tok")["query_seq"] == 7
        wal2.close()

    def test_resume_increments_the_resume_counter_without_logging(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        journal = QueryJournal(wal)
        journal.start("tok", 0, "q")
        appends = wal.appends
        journal.start("tok", 0, "q")  # the resume path
        assert wal.appends == appends  # idempotent: no second record
        assert journal.entry("tok")["resumes"] == 1
        wal.close()

    def test_resume_with_a_different_fingerprint_is_rejected(self, tmp_path):
        # A charged token admits only the query it charged: a resume whose
        # fingerprint differs is a budget bypass, not a convenience.
        wal = WriteAheadLog(tmp_path)
        journal = QueryJournal(wal)
        journal.start("tok", 0, "q", "fp-original")
        journal.start("tok", 0, "q", "fp-original")  # genuine resume: fine
        with pytest.raises(ResumeMismatchError):
            journal.start("tok", 0, "q", "fp-other")
        assert journal.entry("tok")["resumes"] == 1  # rejection is not a resume
        wal.close()
        # The fingerprint rides the query_start record, so the check still
        # holds after a crash and replay.
        wal2 = WriteAheadLog(tmp_path)
        replayed = QueryJournal(wal2)
        for record in wal2.pending_records:
            replayed.apply(record)
        with pytest.raises(ResumeMismatchError):
            replayed.start("tok", 0, "q", "fp-other")
        replayed.start("tok", 0, "q", "fp-original")
        wal2.close()


# ------------------------------------------- the fsync rule, on a live service


def _video(name):
    objects = [make_crossing_object(f"w{i}", start=20.0 + 80.0 * i,
                                    duration=35.0, x=450.0 + 40.0 * i)
               for i in range(6)]
    return make_simple_video(duration=600.0, objects=objects, name=name)


def _query(name, *, cameras=("cam",), epsilon=1.0, chunk=60.0):
    builder = QueryBuilder(name)
    for camera in cameras:
        builder = (builder
                   .split(camera, begin=0, end=600.0, chunk_duration=chunk,
                          into=f"chunks-{camera}")
                   .process(f"chunks-{camera}",
                            executable="count_entering_people.py", max_rows=5,
                            schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0)],
                            into=f"t-{camera}"))
    for camera in cameras:
        builder = builder.select_count(table=f"t-{camera}", bucket_seconds=300.0,
                                       epsilon=epsilon)
    return builder.build()


_VIDEOS = {name: _video(name) for name in ("cam", "lot")}


def _service(wal_dir, store_dir, **kwargs):
    service = QueryService(seed=5, wal_dir=wal_dir, cache=f"tiered:{store_dir}",
                           **kwargs)
    for name, video in _VIDEOS.items():
        service.register_camera(name, video,
                                policy=PrivacyPolicy(rho=30.0, k_segments=1),
                                epsilon_budget=100.0)
    return service


def _log_records(wal_dir):
    return decode_records((wal_dir / "wal.log").read_bytes())[0]


class TestReleaseBarrier:
    def test_every_result_leaves_behind_a_covering_fsync(self, tmp_path):
        """Whenever a future resolves *with a result*, ``synced_seq`` covers
        that query's start record and its charge record (a denied or failed
        query released nothing and owes no fsync)."""
        wal_dir = tmp_path / "wal"
        resolved = []  # (token, synced_seq as the future resolved, exception)

        def submit(service, token, query, **kwargs):
            future = service.submit(query, resume_token=token, **kwargs)
            # Done-callbacks run on the worker thread as the future resolves.
            future.add_done_callback(lambda future: resolved.append(
                (token, service.wal.status()["synced_seq"], future.exception())))
            return future

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _service(wal_dir, tmp_path / "store",
                          max_concurrent_queries=2) as service:
                # Alone on the service: no other query's charge can cover
                # this uncharged release's start for it.
                submit(service, "alone", _query("alone"),
                       charge_budget=False).result(timeout=30)
                mix = []
                for n in range(6):
                    mix.append(submit(service, f"admit-{n}", _query(f"a{n}")))
                    mix.append(submit(service, f"deny-{n}",
                                      _query(f"d{n}", epsilon=500.0)))
                    mix.append(submit(service, f"free-{n}", _query(f"f{n}"),
                                      charge_budget=False))
                wait(mix, timeout=60)
                resumes = [submit(service, f"admit-{n}", _query(f"a{n}"))
                           for n in range(6)]
                resumes += [submit(service, f"free-{n}", _query(f"f{n}"),
                                   charge_budget=False) for n in range(6)]
                wait(resumes, timeout=60)
                assert all(future.done() for future in mix + resumes)
        finally:
            sys.setswitchinterval(switch_interval)
        records = _log_records(wal_dir)
        start_seq = {r["token"]: r["seq"] for r in records
                     if r["op"] == "query_start"}
        charge_seq = {r["query_id"]: r["seq"] for r in records
                      if r["op"] == "charge"}
        assert len(start_seq) == 19 and len(charge_seq) == 6
        released = 0
        for token, synced, error in resolved:
            if error is None:
                released += 1
                assert synced >= start_seq[token], token
                assert synced >= charge_seq.get(token, 0), token
            else:
                assert isinstance(error, BudgetExceededError), error
        assert (released, len(resolved)) == (1 + 12 + 12, 1 + 18 + 12)

    def test_long_query_does_not_trip_compaction(self, tmp_path):
        # compact_every counts WAL records; a query writes three whatever
        # its length (a progress record per chunk used to trip the
        # threshold at the charge, each compaction copying the journal).
        with _service(tmp_path / "wal", tmp_path / "store",
                      compact_every=64) as service:
            before = service.wal.status()
            result = service.execute(_query("long", chunk=3.0))
            assert result.metadata["num_chunks"] == {"t-cam": 200}
            after = service.wal.status()
            assert after["compactions"] == 0
            assert after["appends"] - before["appends"] == 3


class TestEveryCrashPrefix:
    """The crash-window argument of core/durability.py, enumerated: cut the
    log of a finished four-query run at every record boundary and inside
    every record, recover each prefix, and resubmit every token."""

    SCRIPT = (
        ("admitted", lambda: _query("one"), {}),
        ("denied", lambda: _query("two", epsilon=500.0), {}),
        ("uncharged", lambda: _query("three"), {"charge_budget": False}),
        ("two-cameras", lambda: _query("four", cameras=("cam", "lot"),
                                       epsilon=0.5), {}),
    )

    @staticmethod
    def _bytes(result):
        return (repr(result.series()), repr(result.raw_series_unsafe()))

    def _expected_budgets(self, charge_records):
        """Budgets after exactly these charge records, by the plain ledger."""
        ledger = ServiceLedger()
        for name in _VIDEOS:
            ledger.register(name, 100.0)
        for record in charge_records:
            for camera, charges in record["cameras"].items():
                for start, end, epsilon in charges:
                    ledger.ledger(camera).charge(TimeInterval(start, end), epsilon)
        return ledger.snapshot()

    def test_every_prefix_recovers_and_resumes(self, tmp_path):
        store = tmp_path / "store"
        reference = {}
        with _service(tmp_path / "ref-wal", store) as service:
            for token, build, kwargs in self.SCRIPT:
                try:
                    result = service.execute(build(), resume_token=token, **kwargs)
                    reference[token] = (self._bytes(result),
                                        result.metadata["query_seq"])
                except BudgetExceededError:
                    reference[token] = None
            final_budgets = service.stats()["budgets"]
        assert [token for token, value in reference.items() if value is None] \
            == ["denied"]
        image = (tmp_path / "ref-wal" / "wal.log").read_bytes()
        records, clean = decode_records(image)
        assert clean == len(image)
        assert [r["op"] for r in records] == [
            "register", "register",
            "query_start", "charge", "query_finish",    # admitted
            "query_start",                              # denied
            "query_start", "query_finish",              # uncharged
            "query_start", "charge", "query_finish"]    # two-cameras
        ends = []
        for record in records:
            ends.append((ends[-1] if ends else 0) + len(encode_record(record)))
        cuts = [0]
        for begin, end in zip([0] + ends, ends):
            cuts += [(begin + end) // 2, end]
        assert len(cuts) == 2 * len(records) + 1

        for cut in cuts:
            inside = [r for r, end in zip(records, ends) if end <= cut]
            started = {r["token"] for r in inside if r["op"] == "query_start"}
            charges = [r for r in inside if r["op"] == "charge"]
            charged = {r["query_id"] for r in charges}

            # -- a different query under each token: refused iff the start
            # record survived (on a throwaway copy: a token whose start was
            # lost is a fresh submission, and runs).
            wrong_dir = tmp_path / f"wrong-{cut}"
            wrong_dir.mkdir()
            (wrong_dir / "wal.log").write_bytes(image[:cut])
            with _service(wrong_dir, store) as service:
                for token, _, kwargs in self.SCRIPT:
                    wrong = _query("wrong", epsilon=0.125)
                    if token in started:
                        with pytest.raises(ResumeMismatchError):
                            service.submit(wrong, resume_token=token, **kwargs)
                    else:
                        result = service.execute(wrong, resume_token=token,
                                                 **kwargs)
                        assert result.metadata["resumed"] is False

            # -- its own query under each token.
            wal_dir = tmp_path / f"cut-{cut}"
            wal_dir.mkdir()
            (wal_dir / "wal.log").write_bytes(image[:cut])
            with _service(wal_dir, store) as service:
                assert service.stats()["budgets"] == \
                    self._expected_budgets(charges), cut
                assert {token for token, _, _ in self.SCRIPT
                        if service.ledger.query_charged(token)} == charged
                for token, build, kwargs in self.SCRIPT:
                    before = service.stats()["budgets"]
                    try:
                        result = service.execute(build(), resume_token=token,
                                                 **kwargs)
                    except BudgetExceededError:
                        assert reference[token] is None
                        assert service.stats()["budgets"] == before
                        continue
                    released, query_seq = reference[token]
                    assert result.metadata["resumed"] is (token in started)
                    if token in started:
                        # The journaled seq, so the same noise stream: the
                        # uninterrupted run's bytes.
                        assert result.metadata["query_seq"] == query_seq
                        assert self._bytes(result) == released, (cut, token)
                    else:
                        assert self._bytes(result)[1] == released[1]
                    if token in charged or not kwargs.get("charge_budget", True):
                        assert service.stats()["budgets"] == before, (cut, token)
                    else:
                        assert service.ledger.query_charged(token)
                        assert service.stats()["budgets"] != before
                assert service.stats()["budgets"] == final_budgets, cut
            seqs = [record["seq"] for record in _log_records(wal_dir)]
            assert seqs == sorted(set(seqs)), cut
            assert not list(wal_dir.glob("*.tmp"))
