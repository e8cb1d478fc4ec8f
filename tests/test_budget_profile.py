"""Tests for the ledger's incrementally maintained consumption profile.

The contract under test: :class:`FrameBudgetLedger` answers every question
from a profile kept in step by ``charge()`` (sorted edges, per-segment
levels, running peak), and nothing observable moved when that replaced the
charge-list sweeps —

* **bit-identity** — against :class:`SweepLedger`, the brute-force sweep
  kept here as the reference, every admission outcome, denial message and
  float (``requested``, ``consumed_over``, ``remaining_over``,
  ``max_consumed``) is equal by ``float.hex()`` after every step;
* **pinned contract** — one denial message and one ``snapshot()`` dict are
  spelled out, so the two implementations cannot drift together;
* **derived, not durable** — the profile is rebuilt from ``charges`` by the
  constructor, WAL replay and snapshot restore, and replaying a charge the
  snapshot already holds does not charge it twice;
* **flat** — admission cost and profile size follow the number of distinct
  boundaries, not the lifetime charge count.
"""

import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.budget import (
    BudgetRequest,
    DurableServiceLedger,
    FrameBudgetLedger,
    ServiceLedger,
)
from repro.core.durability import WriteAheadLog
from repro.errors import BudgetExceededError, PolicyError
from repro.utils.timebase import TimeInterval


class SweepLedger:
    """Reference ledger: answers by sweeping the whole charge list, O(n) a point."""

    def __init__(self, total_epsilon):
        self.total_epsilon = total_epsilon
        self.charges = []

    def consumed_at(self, timestamp, pending=()):
        consumed = 0  # left fold in charge order, then request order
        for interval, epsilon in (*self.charges, *pending):
            if interval.start <= timestamp < interval.end:
                consumed += epsilon
        return consumed

    def breakpoints(self, window, pending=()):
        edges = (edge for interval, _ in (*self.charges, *pending)
                 for edge in (interval.start, interval.end))
        return sorted({window.start, *(edge for edge in edges
                                       if window.start <= edge < window.end)})

    def consumed_over(self, interval):
        if interval.duration <= 0:
            return self.consumed_at(interval.start)
        return max(self.consumed_at(point) for point in self.breakpoints(interval))

    def max_consumed(self):
        return max((self.consumed_at(interval.start)
                    for interval, _ in self.charges), default=0.0)

    def admit(self, requests, *, margin, charge=True):
        pending = [(request.interval.expand(margin), request.epsilon)
                   for request in requests]
        span = TimeInterval(min(interval.start for interval, _ in pending),
                            max(interval.end for interval, _ in pending))
        for point in self.breakpoints(span, pending):
            consumed = self.consumed_at(point, pending)
            if consumed > self.total_epsilon + 1e-12:
                raise BudgetExceededError(
                    f"insufficient privacy budget at t={point:.1f}s: "
                    f"required {consumed:.4f} exceeds total {self.total_epsilon:.4f}",
                    interval=span, requested=consumed, available=self.total_epsilon)
        if charge:
            self.charges.extend((request.interval, request.epsilon)
                                for request in requests)


def _hex(value):
    return float(value).hex()


def _outcome(ledger, requests, margin, charge):
    try:
        ledger.admit(requests, margin=margin, charge=charge)
    except BudgetExceededError as exc:
        return ("denied", str(exc), _hex(exc.requested), _hex(exc.available),
                exc.interval)
    return ("admitted",)


# Starts and durations sit on a 5 s grid so edges are shared, intervals nest,
# abut and coincide, and zero-duration requests occur; a few starts leave the
# grid.  Margins include 0, rho wider than every gap, and rho large enough
# that ``expand`` clamps the window start at 0.  The epsilons are not dyadic,
# so a different fold order would show in the last bits.
_STARTS = st.one_of(st.integers(0, 12).map(lambda slot: slot * 5.0),
                    st.floats(0.0, 60.0, allow_nan=False))
_REQUESTS = st.lists(
    st.builds(lambda start, slots, epsilon: BudgetRequest(
        TimeInterval(start, start + slots * 5.0), epsilon),
        _STARTS, st.sampled_from([0, 0, 1, 1, 2, 5]),
        st.sampled_from([0.1, 0.05, 0.3, 1 / 3, 0.7])),
    min_size=1, max_size=4)
_STEPS = st.lists(
    st.tuples(_REQUESTS, st.sampled_from([0.0, 0.0, 2.5, 5.0, 12.5, 100.0]),
              st.booleans()),
    min_size=1, max_size=25)


class TestProfileMatchesSweep:
    @settings(max_examples=150, deadline=None)
    @given(total=st.sampled_from([0.3, 1.0, 2.5]), steps=_STEPS,
           probe=st.tuples(_STARTS, st.integers(0, 8)))
    def test_every_step_is_bit_identical(self, total, steps, probe):
        ledger, oracle = FrameBudgetLedger(total), SweepLedger(total)
        windows = [TimeInterval(probe[0], probe[0] + probe[1] * 5.0),
                   TimeInterval(0.0, 200.0)]
        for requests, margin, charge in steps:
            assert _outcome(ledger, requests, margin, charge) \
                == _outcome(oracle, requests, margin, charge)
            for window in windows + [request.interval for request in requests]:
                assert _hex(ledger.consumed_over(window)) \
                    == _hex(oracle.consumed_over(window))
                for point in (window.start, window.end):
                    assert _hex(ledger.remaining_over(TimeInterval(point, point))) \
                        == _hex(total - oracle.consumed_at(point))
            assert _hex(ledger.max_consumed()) == _hex(oracle.max_consumed())
        assert ledger.charges == oracle.charges

    def test_pinned_denial_and_snapshot(self):
        service = ServiceLedger()
        service.register("cam", 1.0)
        service.register("idle", 2.0)
        remaining = service.admit_many(
            {"cam": [BudgetRequest(TimeInterval(0.0, 10.0), 0.3),
                     BudgetRequest(TimeInterval(20.0, 30.0), 0.7)]}, {"cam": 5.0})
        assert remaining == {"cam": 0.30000000000000004}
        service.admit_many({"cam": [BudgetRequest(TimeInterval(5.0, 15.0), 0.3)]},
                           {"cam": 5.0})
        with pytest.raises(BudgetExceededError) as denied:
            service.admit_many(
                {"cam": [BudgetRequest(TimeInterval(16.0, 18.0), 0.4)]}, {"cam": 5.0})
        # The window is [11, 23): 0.3 + 0.4 at t=11 and 0.4 at t=15 fit; the
        # first breakpoint over budget is the charge edge at t=20 (0.7 + 0.4).
        assert str(denied.value) == ("insufficient privacy budget at t=20.0s: "
                                     "required 1.1000 exceeds total 1.0000")
        assert denied.value.interval == TimeInterval(11.0, 23.0)
        assert (denied.value.requested, denied.value.available) == (0.7 + 0.4, 1.0)
        assert service.snapshot() == {
            "cam": {"total_epsilon": 1.0, "remaining_min": 0.30000000000000004,
                    "charges": 3},
            "idle": {"total_epsilon": 2.0, "remaining_min": 2.0, "charges": 0}}


class TestProfileIsDerivedState:
    CHARGES = [(TimeInterval(0.0, 10.0), 0.3), (TimeInterval(5.0, 15.0), 0.3),
               (TimeInterval(7.0, 7.0), 0.2), (TimeInterval(5.0, 10.0), 0.1)]

    def test_constructor_indexes_given_charges(self):
        replayed = FrameBudgetLedger(1.0)
        for interval, epsilon in self.CHARGES:
            replayed.charge(interval, epsilon)
        built = FrameBudgetLedger(1.0, charges=list(self.CHARGES))
        assert built.charges == self.CHARGES
        assert built == replayed
        assert _hex(built.max_consumed()) == _hex(0.3 + 0.3 + 0.1)
        assert _hex(built.remaining_over(TimeInterval(12.0, 12.0))) == _hex(1.0 - 0.3)
        assert built._edges == [0.0, 5.0, 7.0, 10.0, 15.0]
        with pytest.raises(BudgetExceededError):
            built.admit([BudgetRequest(TimeInterval(6.0, 8.0), 0.4)], margin=0.0)

    def test_equality_ignores_the_profile(self):
        assert FrameBudgetLedger(1.0) == FrameBudgetLedger(1.0)
        assert FrameBudgetLedger(1.0) != FrameBudgetLedger(2.0)
        assert FrameBudgetLedger(1.0, charges=list(self.CHARGES)) \
            != FrameBudgetLedger(1.0)
        assert "_edges" not in repr(FrameBudgetLedger(1.0))
        with pytest.raises(PolicyError):
            FrameBudgetLedger(0.0, charges=list(self.CHARGES))



def _state_bytes(ledger):
    return json.dumps(ledger._state_payload(), sort_keys=True).encode()


class TestDurableRecoveryRebuildsTheProfile:
    #: ``register`` / ``charge`` records exactly as the ledger has always
    #: written them; a directory an older build left behind looks like this.
    RECORDS = [
        {"op": "register", "camera": "cam", "total_epsilon": 1.0},
        {"op": "register", "camera": "side", "total_epsilon": 0.5},
        {"op": "charge", "query_id": "q-0",
         "cameras": {"cam": [[0.0, 10.0, 0.3], [20.0, 30.0, 0.7]]}},
        {"op": "charge", "query_id": "q-1",
         "cameras": {"cam": [[5.0, 15.0, 0.3]], "side": [[0.0, 60.0, 0.25]]}},
        {"op": "charge", "query_id": None, "cameras": {"cam": [[5.0, 10.0, 0.1]]}},
    ]
    NEXT = [({"cam": [BudgetRequest(TimeInterval(6.0, 8.0), 0.3)]}, "admitted"),
            ({"cam": [BudgetRequest(TimeInterval(6.0, 8.0), 0.4)]}, "denied"),
            ({"cam": [BudgetRequest(TimeInterval(40.0, 50.0), 1.0)],
              "side": [BudgetRequest(TimeInterval(10.0, 20.0), 0.3)]}, "denied")]

    def _live(self):
        """The same history applied to a plain in-memory ledger."""
        live = ServiceLedger()
        for record in self.RECORDS:
            if record["op"] == "register":
                live.register(record["camera"], record["total_epsilon"])
                continue
            for camera, charges in record["cameras"].items():
                for start, end, epsilon in charges:
                    live.ledger(camera).charge(TimeInterval(start, end), epsilon)
        return live

    def _write(self, directory):
        wal = WriteAheadLog(directory)
        for record in self.RECORDS:
            wal.append(record)
        wal.close()

    def _decisions(self, ledger):
        outcomes = []
        for requests, _ in self.NEXT:
            try:
                outcomes.append(ledger.check(
                    requests, {"cam": 2.0, "side": 2.0}) or "admitted")
            except BudgetExceededError as exc:
                outcomes.append(str(exc))
        return outcomes

    def test_log_replay_and_snapshot_restore_agree_with_live(self, tmp_path):
        self._write(tmp_path / "log")
        self._write(tmp_path / "snap")
        wal = WriteAheadLog(tmp_path / "snap")
        DurableServiceLedger(wal).compact()
        wal.close()

        live = self._live()
        replayed_wal = WriteAheadLog(tmp_path / "log")
        restored_wal = WriteAheadLog(tmp_path / "snap")
        replayed = DurableServiceLedger(replayed_wal)
        restored = DurableServiceLedger(restored_wal)
        assert replayed.last_recovery["records_replayed"] == len(self.RECORDS)
        assert restored.last_recovery["records_replayed"] == 0
        assert restored.last_recovery["snapshot_loaded"]
        assert live.snapshot()["cam"] == {
            "total_epsilon": 1.0, "remaining_min": 0.30000000000000004, "charges": 4}
        assert [decision == "admitted" for decision in self._decisions(live)] \
            == [expected == "admitted" for _, expected in self.NEXT]
        for recovered in (replayed, restored):
            assert recovered.snapshot() == live.snapshot()
            assert self._decisions(recovered) == self._decisions(live)
            for camera in live.cameras():
                assert recovered.ledger(camera) == live.ledger(camera)
                assert recovered.ledger(camera)._edges == live.ledger(camera)._edges
                assert [_hex(level) for level in recovered.ledger(camera)._levels] \
                    == [_hex(level) for level in live.ledger(camera)._levels]
        assert _state_bytes(replayed) == _state_bytes(restored)
        replayed_wal.close()
        restored_wal.close()

    def test_replaying_a_charge_the_snapshot_holds_charges_nothing(self, tmp_path):
        self._write(tmp_path)
        wal = WriteAheadLog(tmp_path)
        before = DurableServiceLedger(wal)
        before.compact()
        cameras, snapshot = before._state_payload()["cameras"], before.snapshot()
        # kill -9 after the snapshot, and the writer's retry logs q-1 again.
        wal.append(self.RECORDS[3])
        wal.close()
        wal = WriteAheadLog(tmp_path)
        after = DurableServiceLedger(wal)
        assert after.last_recovery["records_replayed"] == 1
        assert after.snapshot() == snapshot
        assert after._state_payload()["cameras"] == cameras
        assert _hex(after.ledger("side").max_consumed()) == _hex(0.25)
        wal.close()


class TestAdmissionCostIsFlat:
    SLOTS = 8

    def _filled(self, charges):
        service = ServiceLedger()
        service.register("cam", 1e9)
        for index in range(charges):
            service.admit_many({"cam": [self._request(index)]}, {"cam": 2.0})
        return service

    def _request(self, index):
        start = (index % self.SLOTS) * 20.0
        return BudgetRequest(TimeInterval(start, start + 10.0), 0.1)

    def _best_admit_seconds(self, service):
        best = float("inf")
        for attempt in range(5):
            began = time.perf_counter()
            service.admit_many({"cam": [self._request(attempt)]}, {"cam": 2.0})
            best = min(best, time.perf_counter() - began)
        return best

    def test_cost_and_size_follow_distinct_edges_not_charge_count(self):
        small, large = self._filled(40), self._filled(4000)
        # The sweep's ratio here is over 1,000x; the bound only has to tell
        # flat from linear, so scheduler noise cannot fail it.
        assert self._best_admit_seconds(large) < 5 * self._best_admit_seconds(small)
        ledger = large.ledger("cam")
        assert len(ledger.charges) == 4005
        assert len(ledger._edges) == len(ledger._levels) == 2 * self.SLOTS
        assert large.snapshot()["cam"]["charges"] == 4005
