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

* :class:`FrameBudgetLedger` — one camera's charges: a pure
  :meth:`~FrameBudgetLedger.check` and the unchecked
  :meth:`~FrameBudgetLedger.charge`.
* :class:`ServiceLedger` — the per-camera ledger registry one deployment
  shares across every query.  Its state is a fold over records: a
  ``register`` or ``charge`` record is built once and applied by
  :meth:`~ServiceLedger._apply`, the same code crash recovery replays.  Its
  :meth:`~ServiceLedger.admit_many` makes *multi-camera* admission
  all-or-nothing under one cross-camera lock (check every camera, then
  charge every camera, with no interleaving window).  Over a
  :class:`~repro.core.durability.WriteAheadLog` every record is logged before
  it takes effect, and the ledger recovers from, compacts and shares the log
  with the :class:`~repro.core.durability.QueryJournal` it builds and owns.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce
from typing import Any, Iterator

from repro.core.durability import QueryJournal, WriteAheadLog
from repro.errors import BudgetExceededError, DurabilityError, PolicyError, \
    UnknownCameraError
from repro.utils import checks
from repro.utils.timebase import TimeInterval


@dataclass(frozen=True)
class BudgetRequest:
    """One release's budget demand: the frames it covers and its epsilon."""

    interval: TimeInterval
    epsilon: float

    def __post_init__(self) -> None:
        checks.real("requested epsilon", self.epsilon, PolicyError, above=0)


@dataclass
class FrameBudgetLedger:
    """Tracks per-frame budget consumption for one camera.

    ``charges`` is the ordered, durable record and :meth:`charge` its only
    writer; the profile it keeps in step is derived state — never serialised
    or compared, rebuilt by replaying ``charges``.  :meth:`check` changes
    nothing.  A per-ledger lock serialises readers and :meth:`charge`:
    :class:`ServiceLedger` checks and charges under its cross-camera lock,
    but readers such as remaining budgets and snapshots come without it.
    """

    total_epsilon: float
    charges: list[tuple[TimeInterval, float]] = field(default_factory=list)
    _lock: threading.RLock = field(default_factory=threading.RLock, init=False,
                                   repr=False, compare=False)

    def __post_init__(self) -> None:
        # Every comparison with NaN is false, so a NaN budget would admit all.
        checks.real("the per-frame budget", self.total_epsilon, PolicyError, above=0)
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

    def max_consumed(self) -> float:
        """Highest epsilon consumed by any frame (0.0 on a fresh ledger).

        Epsilons are positive, so the running peak is the current maximum;
        ``total - max_consumed`` is the snapshot's worst-frame remaining.
        """
        with self._lock:
            return self._peak

    def check(self, requests: list[BudgetRequest], *, margin: float) -> None:
        """Raise :class:`~repro.errors.BudgetExceededError` unless every
        request fits; charges nothing.

        The check extends every request's interval by ``margin`` (the
        policy's rho) at both ends; the charge an admission makes covers only
        the unexpanded interval, exactly as in Algorithm 1.
        """
        # A NaN margin makes every expanded interval NaN, and a NaN interval
        # covers no point the check below looks at.
        checks.real("the admission margin", margin, PolicyError, at_least=0)
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


class ServiceLedger:
    """Per-camera budget ledgers shared across every query of a deployment.

    One instance backs one deployment's accounting: every
    :class:`~repro.core.executor.PrividSystem` holds a ServiceLedger
    (private by default, preserving the historical one-system-one-ledger
    behaviour), and a :class:`~repro.service.QueryService` passes *the same
    instance* to every per-query system so concurrent queries against the
    same camera contend on one budget.

    Every change of state is a record — a camera's ``register`` or one
    query's all-or-nothing ``charge`` set — built once and applied by
    :meth:`_apply`, the one writer of the ledgers and of their charges.
    Given a :class:`~repro.core.durability.WriteAheadLog`, the record is
    appended (and fsynced) *before* it is applied, and crash recovery applies
    the logged records with the same :meth:`_apply`, so a recovered ledger is
    bit-exact: same charge intervals (floats round-trip through JSON
    exactly), same order, same remaining budgets.  The log brings three
    things an in-memory ledger lacks (its :attr:`journal` and
    :attr:`last_recovery` are ``None``): construction *is* recovery (the
    snapshot restored, pending records replayed, ``query_*`` ops dispatched
    to the journal; :attr:`last_recovery` reports it for ``health()``),
    every ``compact_every`` appends fold the log into a snapshot, and
    :attr:`journal` is the log's
    :class:`~repro.core.durability.QueryJournal`, built and owned here.

    Charges are keyed idempotently by ``query_id`` in both deployments — a
    query has at most one charge record, and a record whose ``query_id``
    already charged is skipped whole — so both crash windows around a charge
    are safe: *before* the append nothing is logged or charged, and the
    resumed query admits and charges normally; *after* it but before the
    in-memory apply, recovery replays the record and the resumed query's
    :meth:`admit_many` sees its ``query_id`` charged and skips admission
    entirely (no double-charge, no spurious denial from counting the charge
    twice).

    Thread-safety: :meth:`admit_many` holds a cross-camera lock around the
    whole check-all-then-charge-all sequence, keeping multi-camera admission
    all-or-nothing even when queries race (without it, two queries could
    interleave their per-camera charges such that each passes its check but
    a camera ends up over-charged, or a denied query leaves partial charges
    behind).  Each :class:`FrameBudgetLedger` keeps its own lock for the
    readers that reach it without this one.
    """

    #: Admission-timeline entries kept before the timeline stops growing (the
    #: counters keep counting).  Bounds memory on always-on deployments while
    #: leaving any realistic benchmark run fully recorded.
    MAX_TIMELINE_EVENTS = 100_000

    def __init__(self, wal: WriteAheadLog | None = None, *,
                 compact_every: int = 1024) -> None:
        self.wal = wal
        self.compact_every = checks.count("compact_every", compact_every, ValueError, 1)
        self._ledgers: dict[str, FrameBudgetLedger] = {}
        #: query_id -> WAL seq of its charge record (None without a log).
        self._charged_queries: dict[str, int | None] = {}
        #: Seq of the most recent charge record (the chaos harness uses it
        #: to schedule a crash exactly on the charge append).
        self.last_charge_seq: int | None = None
        self._lock = threading.RLock()
        # Contention accounting for service stats: how often queries
        # queued on the cross-camera lock, how admissions resolved,
        # and a per-admission timeline of worst-frame remaining budgets (the
        # budget-exhaustion curve of a run).  Mutated only while holding
        # ``_lock``.
        self._admit_calls = 0
        self._admitted = 0
        self._denied = 0
        self._lock_contended = 0
        self._timeline: list[dict[str, Any]] = []
        self._timeline_dropped = 0
        #: The per-query journal sharing this ledger's log.
        self.journal = QueryJournal(wal) if wal is not None else None
        self.last_recovery = self._recover() if wal is not None else None

    # ----------------------------------------------------- records and replay

    def _commit(self, record: dict[str, Any]) -> None:
        """Log ``record`` (fsynced) when there is a log, then apply it;
        holding ``_lock``."""
        if self.wal is None:
            self._apply(record)
            return
        record["seq"] = self.wal.append(record)
        self._apply(record)
        if self.wal.appends_since_compact >= self.compact_every:
            self.compact()

    def _apply(self, record: dict[str, Any]) -> None:
        """Apply one record, live or replayed (idempotent by ``query_id``)."""
        op = record.get("op")
        if op == "register":
            camera = record["camera"]
            if camera not in self._ledgers:
                self._ledgers[camera] = FrameBudgetLedger(
                    total_epsilon=float(record["total_epsilon"]))
        elif op == "charge":
            query_id = record.get("query_id")
            if query_id in self._charged_queries:  # never holds None
                return
            for camera, charges in record["cameras"].items():
                ledger = self._ledgers.get(camera)
                if ledger is None:
                    # A charge always follows its camera's register record; a
                    # charge for an unknown camera means lost state, not a
                    # torn tail — refuse to guess at budgets.
                    raise DurabilityError(
                        f"WAL charge record for unregistered camera {camera!r}")
                for start, end, epsilon in charges:
                    ledger.charge(TimeInterval(float(start), float(end)), float(epsilon))
            self.last_charge_seq = record.get("seq")
            if query_id is not None:
                self._charged_queries[query_id] = self.last_charge_seq
                if self.journal is not None:
                    self.journal.mark_charged(query_id)
        else:
            self.journal.apply(record)

    def _recover(self) -> dict[str, Any]:
        state = self.wal.snapshot_state
        if state is not None:
            self._restore(state.get("ledger", {}))
            self.journal.restore(state.get("journal", {}))
        for record in self.wal.pending_records:
            self._apply(record)
        return {"records_replayed": len(self.wal.pending_records),
                "charged_queries": len(self._charged_queries),
                **self.wal.recovery_info}

    def _restore(self, state: dict[str, Any]) -> None:
        """Fold a compaction snapshot in: each camera as a ``register`` and
        one unkeyed ``charge`` record, then the charged-query index."""
        for camera, payload in state.get("cameras", {}).items():
            self._apply({"op": "register", "camera": camera,
                         "total_epsilon": payload["total_epsilon"]})
            self._apply({"op": "charge", "query_id": None,
                         "cameras": {camera: payload.get("charges", [])}})
        self._charged_queries = {query_id: int(seq) for query_id, seq
                                 in state.get("charged_queries", {}).items()}

    # -------------------------------------------------------------- mutations

    def register(self, camera: str, total_epsilon: float) -> FrameBudgetLedger:
        """Get or create the ledger of ``camera`` (idempotent).

        Re-registering with a different ``total_epsilon`` is a
        :class:`~repro.errors.PolicyError`: the budget is the *camera's*
        property, and a second query must not silently re-budget frames
        other queries already drew from.  Only a new camera makes a record,
        so a recovered deployment re-running its setup code writes nothing;
        the budget is checked first, because a record that cannot replay
        must never be logged.
        """
        checks.real("the per-frame budget", total_epsilon, PolicyError, above=0)
        with self._lock:
            if camera not in self._ledgers:
                self._commit({"op": "register", "camera": camera,
                              "total_epsilon": float(total_epsilon)})
            ledger = self._ledgers[camera]
            if abs(ledger.total_epsilon - total_epsilon) > 1e-12:
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

    def check(self, requests_by_camera: dict[str, list[BudgetRequest]],
              margins: dict[str, float], *, query_id: str | None = None) -> bool:
        """Check one query's demands on every camera, charging nothing.

        Raises :class:`~repro.errors.BudgetExceededError`, counted once as a
        denial, if any camera lacks budget.  Returns True, checking nothing,
        when ``query_id``'s charge has already landed (a resumed query): its
        own charge must not deny it.  The executor calls this before any
        chunk runs, and :meth:`admit_many` checks again under the lock it
        charges under.
        """
        with self._measured_lock() as contended:
            return self._check_locked(requests_by_camera, margins, query_id, contended)

    def _check_locked(self, requests_by_camera: dict[str, list[BudgetRequest]],
                      margins: dict[str, float], query_id: str | None,
                      contended: bool) -> bool:
        """:meth:`check`, holding ``_lock``; a denial is recorded with the
        caller's ``contended``."""
        if query_id is not None and self.query_charged(query_id):
            return True
        try:
            for camera, requests in requests_by_camera.items():
                self.ledger(camera).check(requests, margin=margins.get(camera, 0.0))
        except BudgetExceededError:
            self._note_admission("denied", requests_by_camera, contended)
            raise
        return False

    def admit_many(self, requests_by_camera: dict[str, list[BudgetRequest]],
                   margins: dict[str, float], *,
                   query_id: str | None = None) -> dict[str, float]:
        """Atomically admit one query's demands across all its cameras.

        :meth:`check` every camera first, then commit the full charge set as
        one ``charge`` record, all under the cross-camera lock — the
        all-or-nothing admission of Algorithm 1, made race-free.  Raises
        :class:`~repro.errors.BudgetExceededError` leaving every ledger (and
        the log) untouched if any camera lacks budget.  A ``query_id`` that
        already charged — replayed after a crash, or resubmitted with its
        resume token — touches no ledger.  Returns each camera's remaining
        budget, read before the lock is released.
        """
        with self._measured_lock() as contended:
            if not self._check_locked(requests_by_camera, margins, query_id, contended):
                self._commit({"op": "charge", "query_id": query_id,
                              "cameras": {camera: [[request.interval.start,
                                                    request.interval.end,
                                                    request.epsilon]
                                                   for request in requests]
                                          for camera, requests
                                          in sorted(requests_by_camera.items())}})
                self._note_admission("admitted", requests_by_camera, contended)
            return self._remaining(requests_by_camera)

    def query_charged(self, query_id: str) -> bool:
        """Has this query's charge set already been applied?"""
        with self._lock:
            return query_id in self._charged_queries

    def _remaining(self, requests_by_camera: dict[str, list[BudgetRequest]]) -> dict[str, float]:
        """Remaining budget per camera over its requests' span (holding ``_lock``)."""
        return {camera: self.ledger(camera).remaining_over(reduce(
                    TimeInterval.union_span, (request.interval for request in requests)))
                for camera, requests in sorted(requests_by_camera.items()) if requests}

    # ------------------------------------------------------------- compaction

    def compact(self) -> None:
        """Snapshot the full ledger (+ journal) state and truncate the log."""
        with self._lock:
            self.journal.compact({"ledger": self._state_payload()})

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

    # ------------------------------------------------------- contention stats

    @contextmanager
    def _measured_lock(self) -> Iterator[bool]:
        """Hold the cross-camera lock, yielding whether we had to wait.

        True when the lock was held by another thread at arrival — the
        contention signal the serving benchmarks report.  Re-entrant
        acquisitions by the owning thread never count (RLock semantics), so
        internal nesting is invisible.
        """
        contended = not self._lock.acquire(blocking=False)
        if contended:
            self._lock.acquire()
            self._lock_contended += 1
        try:
            yield contended
        finally:
            self._lock.release()

    def _note_admission(self, outcome: str,
                        requests_by_camera: dict[str, list[BudgetRequest]],
                        contended: bool) -> None:
        """Record one admission decision (holding ``_lock``): a denial by
        :meth:`check` or an admission by :meth:`admit_many`."""
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
        """Admission/contention accounting for service stats and benchmarks.

        ``admit_calls`` counts admission decisions, one per charged query at
        most (``admitted`` + ``denied`` partitions them: a query is denied by
        the :meth:`check` before its chunks run, or by the one inside
        :meth:`admit_many`); ``lock_contended`` the :meth:`check` and
        :meth:`admit_many` calls that queued behind another thread on the
        cross-camera lock.
        ``timeline`` (optional) lists one entry per attempt — outcome,
        whether it contended, and the worst-frame remaining budget of every
        touched camera *after* the attempt — the budget-exhaustion curve of
        a run.  Timeline recording stops after
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


#: ``benchmarks/system/tracing.py`` imports this name and patches
#: ``DurableServiceLedger.__dict__["admit_many"]``; with the alias it wraps
#: the one ``admit_many`` twice, and its analysis keeps the outer span only.
DurableServiceLedger = ServiceLedger
