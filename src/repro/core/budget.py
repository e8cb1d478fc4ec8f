"""Per-frame privacy budgets (Section 6.4, Algorithm 1 lines 1-5).

Rather than one global budget per camera, Privid allocates an epsilon budget
to every *frame*.  A query over interval [a, b] requesting epsilon_Q is
admitted only if every frame in [a - rho, b + rho] still has at least
epsilon_Q remaining; on admission, epsilon_Q is deducted from frames in
[a, b] (not the rho margin).  The margin guarantees that a single protected
segment — which lasts at most rho — can never straddle two queries drawing
from disjoint budgets (Appendix E.2, Case 2).

Storing a value per frame would not scale to year-long videos, so the ledger
records *charged intervals* — the durable record — and derives from them a
consumption *profile* (sorted charge boundaries, the epsilon consumed between
each two, the running peak), so checking or charging costs a bisect plus the
segments in the window however many charges came before.

Two grains of accounting live here:

* :class:`FrameBudgetLedger` — one camera's charges.  Check and charge are
  atomic under a per-ledger lock, so concurrent queries cannot both pass the
  admission check and then both charge past the budget.
* :class:`ServiceLedger` — the per-camera ledger registry a long-lived
  :class:`~repro.service.QueryService` shares across every query it runs.
  Its :meth:`~ServiceLedger.admit_many` makes *multi-camera* admission
  all-or-nothing under one cross-camera lock (check every camera, then
  charge every camera, with no interleaving window).
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import reduce
from typing import Any

from repro.errors import BudgetExceededError, DurabilityError, PolicyError, \
    UnknownCameraError
from repro.utils.timebase import TimeInterval


@dataclass(frozen=True)
class BudgetRequest:
    """One release's budget demand: the frames it covers and its epsilon."""

    interval: TimeInterval
    epsilon: float

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise PolicyError("requested epsilon must be positive")


@dataclass
class FrameBudgetLedger:
    """Tracks per-frame budget consumption for one camera.

    ``charges`` is the ordered, durable record and :meth:`charge` its only
    writer; the profile it keeps in step is derived state — never serialised
    or compared, rebuilt by replaying ``charges``.  Thread-safe: readers,
    :meth:`charge` and :meth:`admit` serialize on a per-ledger lock, and
    admit's check-then-charge is one atomic step — two concurrent queries
    racing for the last epsilon of a frame see exactly one winner.
    """

    total_epsilon: float
    charges: list[tuple[TimeInterval, float]] = field(default_factory=list)
    _lock: threading.RLock = field(default_factory=threading.RLock, init=False,
                                   repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.total_epsilon <= 0:
            raise PolicyError("the per-frame budget must be positive")
        initial, self.charges = self.charges, []
        self._edges: list[float] = []   # sorted distinct charge boundaries
        self._levels: list[float] = []  # [i]: consumed on [_edges[i], _edges[i+1])
        self._peak = 0.0
        for interval, epsilon in initial:
            self.charge(interval, epsilon)

    def _split(self, timestamp: float) -> int:
        """Index of the segment starting at ``timestamp``, created if needed."""
        index = bisect_left(self._edges, timestamp)
        if index == len(self._edges) or self._edges[index] != timestamp:
            self._edges.insert(index, timestamp)
            self._levels.insert(index, self._levels[index - 1] if index else 0.0)
        return index

    def charge(self, interval: TimeInterval, epsilon: float) -> None:
        """Deduct ``epsilon`` from every frame in ``interval``, unchecked.

        A split copies its level to both halves and charges add in arrival
        order, so a level is the left fold of ``+`` over its covering charges
        in charge order: the very float a sweep of ``charges`` would sum.
        """
        with self._lock:
            self.charges.append((interval, epsilon))
            first, last = self._split(interval.start), self._split(interval.end)
            for index in range(first, last):
                self._levels[index] += epsilon
                self._peak = max(self._peak, self._levels[index])

    def _consumed(self, timestamp: float) -> float:
        """Epsilon charged to the frame at ``timestamp`` (holding ``_lock``)."""
        index = bisect_right(self._edges, timestamp) - 1
        return self._levels[index] if index >= 0 else 0.0

    def consumed_over(self, interval: TimeInterval) -> float:
        """Maximum epsilon consumed by any frame in ``interval``."""
        with self._lock:
            inside = slice(bisect_right(self._edges, interval.start),
                           bisect_left(self._edges, interval.end))
            return max([self._consumed(interval.start), *self._levels[inside]])

    def remaining_over(self, interval: TimeInterval) -> float:
        """Minimum remaining budget across frames in ``interval``."""
        return self.total_epsilon - self.consumed_over(interval)

    def remaining_at(self, timestamp: float) -> float:
        """Remaining budget of the frame at ``timestamp``."""
        return self.remaining_over(TimeInterval(timestamp, timestamp))

    def max_consumed(self) -> float:
        """Highest epsilon consumed by any frame (0.0 on a fresh ledger).

        Epsilons are positive, so the running peak is the current maximum;
        ``total - max_consumed`` is the snapshot's worst-frame remaining.
        """
        with self._lock:
            return self._peak

    def admit(self, requests: list[BudgetRequest], *, margin: float, charge: bool = True) -> None:
        """Admit (and by default charge) a query's releases, or raise untouched.

        The admission check extends every request's interval by ``margin``
        (the policy's rho) on both sides; the subsequent charge covers only
        the unexpanded interval, exactly as in Algorithm 1.  ``charge=False``
        performs the admission check only — used to make multi-camera queries
        all-or-nothing (every camera is checked before any is charged).
        """
        if not requests:
            return
        with self._lock:
            pending = [(request.interval.expand(margin), request.epsilon) for request in requests]
            span = reduce(TimeInterval.union_span, (interval for interval, _ in pending))
            points = {span.start, *self._edges[bisect_left(self._edges, span.start):
                                               bisect_left(self._edges, span.end)]}
            for interval, _ in pending:
                points.update(edge for edge in (interval.start, interval.end) if edge < span.end)
            for point in sorted(points):
                consumed = self._consumed(point)
                for interval, epsilon in pending:
                    if interval.start <= point < interval.end:
                        consumed += epsilon
                if consumed > self.total_epsilon + 1e-12:
                    raise BudgetExceededError(
                        f"insufficient privacy budget at t={point:.1f}s: "
                        f"required {consumed:.4f} exceeds total {self.total_epsilon:.4f}",
                        interval=span, requested=consumed, available=self.total_epsilon)
            if charge:
                for request in requests:
                    self.charge(request.interval, request.epsilon)

    def reset(self) -> None:
        """Forget all charges (used by tests and what-if analyses)."""
        with self._lock:
            self.charges.clear()
            self._edges, self._levels, self._peak = [], [], 0.0


class ServiceLedger:
    """Per-camera budget ledgers shared across every query of a deployment.

    One instance backs one deployment's accounting: every
    :class:`~repro.core.executor.PrividSystem` holds a ServiceLedger
    (private by default, preserving the historical one-system-one-ledger
    behaviour), and a :class:`~repro.service.QueryService` passes *the same
    instance* to every per-query system so concurrent queries against the
    same camera contend on one budget.

    Thread-safety is layered: each :class:`FrameBudgetLedger` already makes
    its own check-and-charge atomic, and :meth:`admit_many` additionally
    holds a cross-camera lock around the whole check-all-then-charge-all
    sequence, keeping multi-camera admission all-or-nothing even when
    queries race (without it, two queries could interleave their per-camera
    charges such that each passes its check but a camera ends up
    over-charged, or a denied query leaves partial charges behind).
    """

    #: Admission-timeline entries kept before the timeline stops growing (the
    #: counters keep counting).  Bounds memory on always-on deployments while
    #: leaving any realistic benchmark run fully recorded.
    MAX_TIMELINE_EVENTS = 100_000

    def __init__(self) -> None:
        self._ledgers: dict[str, FrameBudgetLedger] = {}
        self._lock = threading.RLock()
        # Contention accounting for the serving load harness: how often
        # queries queued on the cross-camera lock, how admissions resolved,
        # and a per-admission timeline of worst-frame remaining budgets (the
        # budget-exhaustion curve of a run).  Mutated only while holding
        # ``_lock``.
        self._admit_calls = 0
        self._admitted = 0
        self._denied = 0
        self._lock_contended = 0
        self._timeline: list[dict[str, Any]] = []
        self._timeline_dropped = 0

    def register(self, camera: str, total_epsilon: float) -> FrameBudgetLedger:
        """Get or create the ledger of ``camera`` (idempotent).

        Re-registering with a different ``total_epsilon`` is a
        :class:`~repro.errors.PolicyError`: the budget is the *camera's*
        property, and a second query must not silently re-budget frames
        other queries already drew from.
        """
        with self._lock:
            ledger = self._ledgers.get(camera)
            if ledger is None:
                ledger = FrameBudgetLedger(total_epsilon=total_epsilon)
                self._ledgers[camera] = ledger
            elif abs(ledger.total_epsilon - total_epsilon) > 1e-12:
                raise PolicyError(
                    f"camera {camera!r} is already budgeted at "
                    f"{ledger.total_epsilon} epsilon/frame; cannot re-register "
                    f"it at {total_epsilon}")
            return ledger

    def ledger(self, camera: str) -> FrameBudgetLedger:
        """The ledger of a registered camera."""
        with self._lock:
            if camera not in self._ledgers:
                raise UnknownCameraError(
                    f"no budget ledger for camera {camera!r}; "
                    f"registered: {sorted(self._ledgers)}")
            return self._ledgers[camera]

    def cameras(self) -> tuple[str, ...]:
        """Names of every camera with a ledger, sorted."""
        with self._lock:
            return tuple(sorted(self._ledgers))

    def admit_many(self, requests_by_camera: dict[str, list[BudgetRequest]],
                   margins: dict[str, float], *, charge: bool = True,
                   query_id: str | None = None) -> dict[str, float] | None:
        """Atomically admit one query's demands across all its cameras.

        Checks every camera first, then charges every camera (unchecked — the
        check just passed under the same lock), all under the cross-camera
        lock — the all-or-nothing admission of Algorithm 1, made race-free.
        Raises :class:`~repro.errors.BudgetExceededError` leaving every ledger
        untouched if any camera lacks budget.  A charging call returns each
        camera's remaining budget, read before the lock is released.

        ``query_id`` keys the charge for idempotent crash recovery; the
        in-memory ledger ignores it (every charge is new), while
        :class:`DurableServiceLedger` uses it to make a replayed or resumed
        query's charge land exactly once.
        """
        del query_id  # only meaningful to the durable subclass
        contended = self._acquire_measured()
        try:
            try:
                for camera, requests in requests_by_camera.items():
                    self.ledger(camera).admit(
                        requests, margin=margins.get(camera, 0.0), charge=False)
            except BudgetExceededError:
                if charge:
                    self._note_admission("denied", requests_by_camera, contended)
                raise
            if not charge:
                return None
            for camera, requests in requests_by_camera.items():
                for request in requests:
                    self.ledger(camera).charge(request.interval, request.epsilon)
            self._note_admission("admitted", requests_by_camera, contended)
            return self._remaining(requests_by_camera)
        finally:
            self._lock.release()

    def _remaining(self, requests_by_camera: dict[str, list[BudgetRequest]]) -> dict[str, float]:
        """Remaining budget per camera over its requests' span (holding ``_lock``)."""
        return {camera: self.ledger(camera).remaining_over(reduce(
                    TimeInterval.union_span, (request.interval for request in requests)))
                for camera, requests in sorted(requests_by_camera.items()) if requests}

    # ------------------------------------------------------- contention stats

    def _acquire_measured(self) -> bool:
        """Take the cross-camera lock, recording whether we had to wait.

        Returns True when the lock was held by another thread at arrival —
        the contention signal the serving benchmarks report.  Re-entrant
        acquisitions by the owning thread never count (RLock semantics), so
        internal nesting is invisible.  The caller must release the lock.
        """
        if self._lock.acquire(blocking=False):
            return False
        self._lock.acquire()
        self._lock_contended += 1
        return True

    def _note_admission(self, outcome: str,
                        requests_by_camera: dict[str, list[BudgetRequest]],
                        contended: bool) -> None:
        """Record one charge-bearing admission attempt (holding ``_lock``)."""
        self._admit_calls += 1
        if outcome == "admitted":
            self._admitted += 1
        else:
            self._denied += 1
        if len(self._timeline) >= self.MAX_TIMELINE_EVENTS:
            self._timeline_dropped += 1
            return
        remaining = {}
        for camera in sorted(requests_by_camera):
            ledger = self._ledgers.get(camera)
            if ledger is not None:
                remaining[camera] = ledger.total_epsilon - ledger.max_consumed()
        self._timeline.append({"event": self._admit_calls - 1,
                               "outcome": outcome,
                               "contended": contended,
                               "remaining_min": remaining})

    def contention_stats(self, *, include_timeline: bool = True
                         ) -> dict[str, Any]:
        """Admission/contention accounting for the load harness.

        ``admit_calls`` counts charge-bearing :meth:`admit_many` attempts
        (``admitted`` + ``denied`` partitions them); ``lock_contended`` the
        attempts that queued behind another thread on the cross-camera lock.
        ``timeline`` (optional) lists one entry per attempt — outcome,
        whether it contended, and the worst-frame remaining budget of every
        touched camera *after* the attempt — the budget-exhaustion curve a
        ``BENCH_serving.json`` run reports.  Timeline recording stops after
        ``MAX_TIMELINE_EVENTS`` entries (``timeline_dropped`` counts the
        overflow); the counters keep counting.
        """
        with self._lock:
            stats: dict[str, Any] = {
                "admit_calls": self._admit_calls,
                "admitted": self._admitted,
                "denied": self._denied,
                "lock_contended": self._lock_contended,
                "timeline_dropped": self._timeline_dropped,
            }
            if include_timeline:
                stats["timeline"] = [dict(entry, remaining_min=dict(
                    entry["remaining_min"])) for entry in self._timeline]
            return stats

    def remaining_over(self, camera: str, interval: TimeInterval) -> float:
        """Minimum remaining budget of ``camera`` over ``interval``."""
        return self.ledger(camera).remaining_over(interval)

    def snapshot(self) -> dict[str, dict[str, float | int]]:
        """Point-in-time budget accounting per camera (for service stats).

        ``remaining_min`` is the worst frame's remaining epsilon — the
        number that gates the most-contended query.
        """
        with self._lock:
            ledgers = dict(self._ledgers)
        return {camera: {"total_epsilon": ledger.total_epsilon,
                         "remaining_min": ledger.total_epsilon - ledger.max_consumed(),
                         "charges": len(ledger.charges)}
                for camera, ledger in sorted(ledgers.items())}


class DurableServiceLedger(ServiceLedger):
    """A :class:`ServiceLedger` whose mutations survive ``kill -9``.

    Every budget-bearing mutation — camera registration and the
    all-or-nothing per-query charge set — is appended to a
    :class:`~repro.core.durability.WriteAheadLog` (and fsynced) *before* it
    takes effect in memory, and both the live path and crash recovery apply
    the mutation from the same record payload, so a recovered ledger is
    bit-exact: same charge intervals (floats round-trip through JSON
    exactly), same order, same remaining budgets.

    Charges are keyed idempotently by ``query_id`` — a query has at most one
    charge record, and a record whose ``query_id`` already charged is skipped
    whole — so both crash windows around a charge are safe: *before* the
    append nothing is logged or charged, and the resumed query admits and
    charges normally; *after* it but before the in-memory apply, recovery
    replays the record and the resumed query's :meth:`admit_many` sees its
    ``query_id`` charged and skips admission entirely (no double-charge, no
    spurious denial from counting the charge twice).

    Construction *is* recovery: the snapshot is restored, pending log
    records are replayed (ledger ops here, ``query_*`` ops dispatched to the
    :class:`~repro.core.durability.QueryJournal`), and :attr:`last_recovery`
    reports what happened for ``health()``.
    """

    def __init__(self, wal: Any, *, journal: Any = None,
                 compact_every: int = 1024) -> None:
        if compact_every < 1:
            raise ValueError("compact_every must be at least 1")
        super().__init__()
        self.wal = wal
        self.journal = journal
        self.compact_every = compact_every
        #: query_id -> WAL seq of its charge record (applied charges).
        self._charged_queries: dict[str, int] = {}
        #: Seq of the most recent charge record (the chaos harness uses it
        #: to schedule a crash exactly on the charge append).
        self.last_charge_seq: int | None = None
        self.last_recovery = self._recover()

    # --------------------------------------------------------------- recovery

    def _recover(self) -> dict[str, Any]:
        state = self.wal.snapshot_state
        if state is not None:
            self._restore(state.get("ledger", {}))
            if self.journal is not None:
                self.journal.restore(state.get("journal", {}))
        replayed = 0
        for record in self.wal.pending_records:
            self._apply(record)
            replayed += 1
        return {"records_replayed": replayed,
                "charged_queries": len(self._charged_queries),
                **self.wal.recovery_info}

    def _apply(self, record: dict[str, Any]) -> None:
        op = record.get("op")
        if op == "register":
            self._apply_register(record)
        elif op == "charge":
            self._apply_charge(record)
        elif self.journal is not None:
            self.journal.apply(record)

    def _apply_register(self, record: dict[str, Any]) -> None:
        camera = record["camera"]
        if camera not in self._ledgers:
            self._ledgers[camera] = FrameBudgetLedger(
                total_epsilon=float(record["total_epsilon"]))

    def _apply_charge(self, record: dict[str, Any]) -> None:
        query_id = record.get("query_id")
        if query_id in self._charged_queries:  # never holds None
            return
        for camera, charges in record["cameras"].items():
            ledger = self._ledgers.get(camera)
            if ledger is None:
                # A charge always follows its camera's register record; a
                # charge for an unknown camera means lost state, not a torn
                # tail — refuse to guess at budgets.
                raise DurabilityError(
                    f"WAL charge record for unregistered camera {camera!r}")
            for start, end, epsilon in charges:
                ledger.charge(TimeInterval(float(start), float(end)), float(epsilon))
        self.last_charge_seq = int(record.get("seq", -1))
        if query_id is not None:
            self._charged_queries[query_id] = self.last_charge_seq
            if self.journal is not None:
                self.journal.mark_charged(query_id)

    def _restore(self, state: dict[str, Any]) -> None:
        for camera, payload in state.get("cameras", {}).items():
            self._ledgers[camera] = FrameBudgetLedger(
                total_epsilon=float(payload["total_epsilon"]),
                charges=[(TimeInterval(float(start), float(end)), float(epsilon))
                         for start, end, epsilon in payload.get("charges", [])])
        self._charged_queries = {query_id: int(seq) for query_id, seq
                                 in state.get("charged_queries", {}).items()}

    # -------------------------------------------------------------- mutations

    def register(self, camera: str, total_epsilon: float) -> FrameBudgetLedger:
        """Get-or-create with write-ahead durability.

        Only a genuinely new camera appends a record — re-registration is
        the same idempotent get-or-create (with the same epsilon-mismatch
        :class:`~repro.errors.PolicyError`) as the in-memory ledger, so a
        recovered deployment re-running its setup code writes nothing.
        """
        with self._lock:
            if camera not in self._ledgers:
                if total_epsilon <= 0:
                    # Validate before logging: a record that cannot replay
                    # (FrameBudgetLedger rejects it) must never be written.
                    raise PolicyError("the per-frame budget must be positive")
                self.wal.append({"op": "register", "camera": camera,
                                 "total_epsilon": float(total_epsilon)})
                self._apply_register({"camera": camera,
                                      "total_epsilon": total_epsilon})
                self._maybe_compact()
            return super().register(camera, total_epsilon)

    def admit_many(self, requests_by_camera: dict[str, list[BudgetRequest]],
                   margins: dict[str, float], *, charge: bool = True,
                   query_id: str | None = None) -> dict[str, float] | None:
        """All-or-nothing admission, logged before it takes effect.

        The admission *check* runs purely in memory; on success the full
        charge set is appended (and fsynced) as one ``charge`` record, then
        applied from that same record.  A ``query_id`` that already charged
        — replayed after a crash, or resubmitted with its resume token —
        touches no ledger and only reads the remaining budgets.
        """
        contended = self._acquire_measured()
        try:
            if charge and query_id in self._charged_queries:
                return self._remaining(requests_by_camera)
            try:
                super().admit_many(requests_by_camera, margins, charge=False)
            except BudgetExceededError:
                if charge:
                    self._note_admission("denied", requests_by_camera,
                                         contended)
                raise
            if not charge:
                return None
            record = {"op": "charge", "query_id": query_id,
                      "cameras": {camera: [[request.interval.start,
                                            request.interval.end,
                                            request.epsilon]
                                           for request in requests]
                                  for camera, requests
                                  in sorted(requests_by_camera.items())}}
            seq = self.wal.append(record)
            self._apply_charge({**record, "seq": seq})
            self._note_admission("admitted", requests_by_camera, contended)
            self._maybe_compact()
            return self._remaining(requests_by_camera)
        finally:
            self._lock.release()

    def query_charged(self, query_id: str) -> bool:
        """Has this query's charge set already been durably applied?"""
        with self._lock:
            return query_id in self._charged_queries

    # ------------------------------------------------------------- compaction

    def _maybe_compact(self) -> None:
        if self.wal.appends_since_compact >= self.compact_every:
            self.compact()

    def compact(self) -> None:
        """Snapshot the full ledger (+ journal) state and truncate the log."""
        with self._lock:
            state: dict[str, Any] = {"ledger": self._state_payload()}
            if self.journal is None:
                self.wal.compact(state)
            else:
                self.journal.compact(self.wal, state)

    def _state_payload(self) -> dict[str, Any]:
        cameras = {}
        for camera, ledger in sorted(self._ledgers.items()):
            with ledger._lock:
                cameras[camera] = {
                    "total_epsilon": ledger.total_epsilon,
                    "charges": [[interval.start, interval.end, epsilon]
                                for interval, epsilon in ledger.charges]}
        return {"cameras": cameras,
                "charged_queries": dict(self._charged_queries)}
