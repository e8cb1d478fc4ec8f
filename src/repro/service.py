"""The long-lived multi-query service layer.

The paper's deployment model is an always-on system: a video owner stands up
Privid over their cameras once, and many analysts submit queries against it
over time — all drawing from the *same* per-camera privacy budgets, all
sharing the same execution resources.  :class:`PrividSystem` alone models a
single deployment-shaped object but historically ran one query at a time
with a private ledger per instance; :class:`QueryService` is the always-on
wrapper that makes the sharing explicit:

* **one engine** (and its shard pool, for ``sharded:...`` specs: local
  workers over socketpairs) executes every query's chunks — the engine's seq-keyed bookkeeping supports concurrent streams
  from different threads;
* **one chunk store** memoizes chunk outputs across all queries, so
  overlapping windows from different analysts hit the same warm entries;
* **one ledger** (:class:`~repro.core.budget.ServiceLedger`) accounts every
  camera's per-frame budget across all queries — two concurrent queries
  against the same camera contend on one budget, check-and-charge is
  atomic, and multi-camera admission stays all-or-nothing under races.

A query enters through one of two doors, and both pass the same admission
step (closed check, load shedding, seq allocation, resume lookup, journal
start).  ``submit`` hands it to a thread pool and returns a future;
``execute`` runs it on the calling thread, which would otherwise only sleep
on that future.  Either way it runs inside one of ``max_concurrent_queries``
slots, so one bound covers both doors.  Each
query gets its own lightweight :class:`PrividSystem` view sharing the
service's engine/store/ledger/camera registry, plus a *per-query noise
stream* (``privid/query-{n}`` keyed by submission order): noise draws are
deterministic for a given submission order and can never race between
queries, while raw (pre-noise) values are byte-identical to a standalone
system run — the engines guarantee that independently of placement.

Quickstart::

    service = QueryService(seed=7, engine="sharded:4", cache="tiered:/tmp/warm")
    service.register_camera("lobby", video, policy=policy, epsilon_budget=2.0)
    futures = [service.submit(query_a), service.submit(query_b)]
    results = [future.result() for future in futures]   # shared budget!
    print(service.stats()["budgets"]["lobby"]["remaining_min"])
    service.close()

``sharded:4`` starts four local workers, each at the far end of a
socketpair; no shard is reachable over a network.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Any

from repro.core.budget import ServiceLedger
from repro.core.cache import ChunkStore, store_health
from repro.core.durability import QueryJournal, WriteAheadLog
from repro.core.engine import ExecutionEngine
from repro.core.executor import CameraRegistration, PrividSystem, cache_stats_dict, \
    engine_stats_dict
from repro.core.faults import FaultInjector
from repro.core.resilience import CancellationToken
from repro.core.result import QueryResult
from repro.errors import BudgetExceededError, QueryCancelledError, \
    QueryTimeoutError, ResumeConflictError, ServiceOverloadedError
from repro.query.ast import PrividQuery
from repro.sandbox.registry import ExecutableRegistry
from repro.utils import checks


#: The ``execute`` options that change what a query releases or charges —
#: the part of a submission, beyond the AST itself, a resume must replay
#: verbatim for byte-identity and exactly-once charging to be meaningful.
_RELEASE_KWARGS = ("default_epsilon", "charge_budget")


def query_fingerprint(query: PrividQuery, kwargs: dict[str, Any]) -> str:
    """Canonical hash binding a resume token to one exact submission.

    Hashes the query's AST (every statement is a plain dataclass, so
    ``repr`` is a deterministic, address-free canonical form that is stable
    across processes — required, since resume happens after a restart)
    together with the release-affecting execute options.  Journaled at
    ``query_start``; a resume whose fingerprint differs is rejected, because
    a token whose charge already landed would otherwise run an arbitrary
    different query with zero budget charge on a shared noise stream.
    """
    options = [(key, kwargs[key]) for key in _RELEASE_KWARGS if key in kwargs]
    body = repr((query, options))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class QueryService:
    """An always-on Privid deployment serving many concurrent queries.

    Construction mirrors :class:`~repro.core.executor.PrividSystem` (same
    ``seed`` / ``registry`` / ``engine`` / ``cache`` arguments, same spec
    strings) plus ``wal_dir`` for a durable ledger and
    ``max_concurrent_queries`` bounding how many queries run at once,
    submitted and executed alike.  An engine
    built here from a spec string belongs to the service (``close`` shuts
    it down, shard pools included); an engine *instance* passed in is
    shared property and is left running.
    """

    def __init__(self, *, seed: int = 0,
                 registry: ExecutableRegistry | None = None,
                 engine: ExecutionEngine | str | None = None,
                 cache: ChunkStore | str | None = None,
                 wal_dir: str | Path | None = None,
                 compact_every: int = 1024,
                 max_concurrent_queries: int = 4,
                 max_queue_depth: int | None = None,
                 default_query_timeout: float | None = None,
                 fault_injector: FaultInjector | None = None) -> None:
        checks.count("max_concurrent_queries", max_concurrent_queries, ValueError, 1)
        if max_queue_depth is not None:
            checks.count("max_queue_depth", max_queue_depth, ValueError)
        if default_query_timeout is not None:
            checks.real("default_query_timeout", default_query_timeout, ValueError, above=0)
        # ``wal_dir`` makes the deployment crash-consistent: registrations
        # and charges are write-ahead logged (and fsynced) before they take
        # effect, every query is journaled under a resume token, and opening
        # a service over an existing WAL directory *is* recovery — budgets
        # come back bit-exactly, and interrupted queries resume via
        # ``submit(..., resume_token=)``.
        self.wal: WriteAheadLog | None = None
        if wal_dir is not None:
            self.wal = WriteAheadLog(wal_dir, fault_injector=fault_injector)
        try:
            self.ledger = ServiceLedger(self.wal, compact_every=compact_every)
            self.journal: QueryJournal | None = self.ledger.journal
            # The template system owns the shared resources: it builds the
            # engine/store from specs and registers cameras.  Per-query
            # systems are thin views over it.
            self._template = PrividSystem(seed=seed, registry=registry,
                                          engine=engine, cache=cache,
                                          ledger=self.ledger)
        except BaseException:
            # Recovery refused the log, or a spec or option was bad: the
            # service never existed, so neither does its open log file.
            if self.wal is not None:
                self.wal.close()
            raise
        self.engine: ExecutionEngine = self._template.engine
        self.cache: ChunkStore | None = self._template.chunk_cache
        self.registry: ExecutableRegistry = self._template.registry
        self.max_concurrent_queries = max_concurrent_queries
        self.max_queue_depth = max_queue_depth
        self.default_query_timeout = default_query_timeout
        self.fault_injector = fault_injector
        if fault_injector is not None:
            # Opt-in chaos: any shared resource that exposes the hook gets
            # the same injector, so one seeded plan drives the whole stack
            # (the WAL received it at construction: recovery polls too).
            for resource in (self.engine, self.cache):
                hook = getattr(resource, "set_fault_injector", None)
                if hook is not None:
                    hook(fault_injector)
        self._pool = ThreadPoolExecutor(max_workers=max_concurrent_queries,
                                        thread_name_prefix="privid-query")
        # The running slots: _run_query holds one for the whole query,
        # on a pool thread (submit) or on the caller's (execute).
        self._slots = threading.BoundedSemaphore(max_concurrent_queries)
        self._lock = threading.Lock()
        # Notified whenever a query leaves ``active``; close(wait=True)
        # waits on it for the queries running on callers' threads.
        self._settled = threading.Condition(self._lock)
        # A recovered service numbers fresh queries past every journaled
        # seq: a resumed query reuses its original seq (its noise stream),
        # which must never collide with a new submission's.
        self._next_query = self.journal.next_query_seq() \
            if self.journal is not None else 0
        # Lifetime counters (``stats()["queries"]``): every admitted query
        # is ``active`` until it settles into exactly one outcome.
        self._queries = dict.fromkeys(
            ("submitted", "completed", "denied", "failed", "timed_out",
             "cancelled", "rejected", "active"), 0)
        # Journal tokens with a submission currently in flight: a second
        # submit for one of these would run the same journaled query twice
        # concurrently — same query seq, same noise stream, racing on one
        # idempotent charge key — so it is rejected at submit time.
        self._inflight_tokens: set[str] = set()
        self._closed = False

    # ------------------------------------------------------------------ setup

    @property
    def cameras(self) -> dict[str, CameraRegistration]:
        """The shared camera registry (read through to the template system)."""
        return self._template.cameras

    def register_camera(self, name: str, *args: Any, **kwargs: Any
                        ) -> CameraRegistration:
        """Register a camera once, visible to every query (see
        :meth:`PrividSystem.register_camera` for the parameters)."""
        return self._template.register_camera(name, *args, **kwargs)

    def register_executable(self, name: str, executable: Any, *,
                            replace: bool = False) -> None:
        """Register an analyst executable under the name queries refer to."""
        self._template.registry.register(name, executable, replace=replace)

    def remaining_budget(self, camera: str, interval: Any) -> float:
        """Minimum remaining per-frame budget of a camera over an interval."""
        return self._template.remaining_budget(camera, interval)

    # -------------------------------------------------------------- execution

    def _settle(self, token: str | None, outcome: str | None) -> None:
        """Count a query's outcome and free its place in ``active`` and its
        in-flight token.  ``outcome=None`` takes back an admission that never
        ran; a journal entry it wrote stays resumable."""
        with self._lock:
            if outcome is None:
                self._queries["submitted"] -= 1
            else:
                self._queries[outcome] += 1
            self._queries["active"] -= 1
            self._inflight_tokens.discard(token)
            self._settled.notify_all()

    def _run_query(self, token: str | None, query_seq: int,
                   query: PrividQuery, kwargs: dict[str, Any], resumed: bool,
                   timing: dict[str, float], start_seq: int) -> QueryResult:
        outcome = "failed"
        try:
            with self._slots:  # held for the whole query, on either door
                timing["started_at"] = time.perf_counter()
                # The query's own noise stream (module docstring), nothing else its own.
                view = self._template.query_view(f"privid/query-{query_seq}")
                result = view.execute(query, **kwargs)
                if token is not None and self.journal is not None:
                    self.journal.finish(token)
                    # The release barrier (core/durability.py, "Fsync
                    # discipline"): the start record is durable before the
                    # result leaves; a charge fsync has covered it already.
                    self.wal.sync_through(start_seq)
                    result.metadata["resume_token"] = token
                    result.metadata["resumed"] = resumed
                outcome = "completed"
        except BudgetExceededError:
            outcome = "denied"
            raise
        except QueryTimeoutError:
            outcome = "timed_out"
            raise
        except QueryCancelledError:
            outcome = "cancelled"
            raise
        finally:
            self._settle(token, outcome)
        result.metadata["query_seq"] = query_seq
        # Pure observation for latency measurements: wall-clock deltas
        # measured around the execution, never fed back into it —
        # results stay byte-identical with or without a reader.
        submitted_at = timing["submitted_at"]
        first_chunk_at = timing.get("first_chunk_at")
        result.metadata["timing"] = {
            "queue_s": timing["started_at"] - submitted_at,
            "first_row_s": first_chunk_at - submitted_at
            if first_chunk_at is not None else None,
            "total_s": time.perf_counter() - submitted_at,
        }
        return result

    def _admit(self, query: PrividQuery, timeout: float | None,
               cancel: CancellationToken | None, resume_token: str | None,
               kwargs: dict[str, Any]) -> tuple:
        """The admission both doors share; returns ``_run_query``'s arguments.

        Refuses a closed service, sheds load past ``max_queue_depth``,
        assigns the query seq (a resume reuses its journaled one), claims the
        in-flight token, arms the deadline and writes the journal start.
        From here the query is ``active`` until :meth:`_settle`.  A caller's
        ``query_id`` is refused: it is the service's own journal token, and
        a repeated one would release fresh noise on a charge already made.
        """
        if "query_id" in kwargs:
            raise TypeError("query_id is QueryService's own charge key; a durable "
                            "service resumes a query by resume_token=")
        if resume_token is not None and self.journal is None:
            raise ValueError(
                "resume_token requires a durable service (wal_dir=...)")
        # Admission→first-row / admission→result timing for latency
        # measurements (``result.metadata["timing"]``): absolute perf_counter
        # marks, written by at most one thread at a time (this one, then the
        # thread running the query), reduced to deltas in _run_query.
        timing: dict[str, float] = {"submitted_at": time.perf_counter()}
        effective_timeout = timeout if timeout is not None \
            else self.default_query_timeout
        token = cancel
        if effective_timeout is not None:
            if token is None:
                token = CancellationToken.with_timeout(effective_timeout)
            else:
                token.set_timeout(effective_timeout)
        fingerprint = query_fingerprint(query, kwargs) \
            if self.journal is not None else None
        queries = self._queries
        with self._lock:
            if self._closed:
                raise RuntimeError("QueryService is closed")
            if self.max_queue_depth is not None:
                queued = max(0, queries["active"] - self.max_concurrent_queries)
                if queued >= self.max_queue_depth:
                    queries["rejected"] += 1
                    raise ServiceOverloadedError(
                        f"query rejected: {queued} queries already queued "
                        f"behind {self.max_concurrent_queries} running slots "
                        f"(max_queue_depth={self.max_queue_depth})",
                        active=queries["active"], queue_depth=queued,
                        limit=self.max_queue_depth)
            # The journal lookup happens under the service lock, and the
            # token is claimed before the lock drops: two racing submits for
            # one resume token must not both reach execution, or the same
            # journaled query runs twice concurrently on one noise stream.
            resumed_entry = None
            if resume_token is not None:
                resumed_entry = self.journal.entry(resume_token)
            if resumed_entry is not None:
                # Resume: reuse the interrupted query's seq so its noise
                # stream — a pure function of (service seed, seq) — replays.
                query_seq = resumed_entry["query_seq"]
            else:
                query_seq = self._next_query
                self._next_query += 1
            journal_token: str | None = None
            if self.journal is not None:
                journal_token = resume_token if resume_token is not None \
                    else f"query-{query_seq}"
                if journal_token in self._inflight_tokens:
                    raise ResumeConflictError(
                        f"resume token {journal_token!r} already has a "
                        f"submission in flight; wait for its future instead "
                        f"of racing a second execution onto the same query "
                        f"seq and noise stream")
                self._inflight_tokens.add(journal_token)
            queries["submitted"] += 1
            queries["active"] += 1
        if token is not None:
            kwargs = dict(kwargs, cancel=token)

        def on_chunk(done: int) -> None:
            # First completed chunk == first rows landed: the admission→
            # first-row mark.  Called from the thread running the query only.
            if "first_chunk_at" not in timing:
                timing["first_chunk_at"] = time.perf_counter()
            if self.wal is not None:
                # The chaos plans' mid-stream kill point: between a query's
                # start and its charge the WAL writes nothing to crash on.
                self.wal.crash_point("service.crash_at_chunk", done)

        kwargs = dict(kwargs, on_chunk=on_chunk)
        start_seq = 0
        if self.journal is not None:
            try:
                # May raise ResumeMismatchError (resubmitted query differs
                # from the journaled one) or a WAL write failure.
                start_seq = self.journal.start(journal_token, query_seq,
                                               query.name, fingerprint)
            except BaseException:
                # Take the admission back, or a failed start would inflate
                # `active` forever and eventually shed load spuriously.
                self._settle(journal_token, None)
                raise
            kwargs = dict(kwargs, query_id=journal_token)
        return (journal_token, query_seq, query, kwargs,
                resumed_entry is not None, timing, start_seq)

    def submit(self, query: PrividQuery, *, timeout: float | None = None,
               cancel: CancellationToken | None = None,
               resume_token: str | None = None,
               **kwargs: Any) -> "Future[QueryResult]":
        """Enqueue a query; returns a future resolving to its result.

        ``kwargs`` are forwarded to :meth:`PrividSystem.execute`
        (``default_epsilon``, ``charge_budget``).  A query
        denied for budget raises :class:`~repro.errors.BudgetExceededError`
        out of the future — with *no* camera charged (all-or-nothing).

        ``timeout`` (falling back to the service's ``default_query_timeout``)
        arms a deadline on the query's
        :class:`~repro.core.resilience.CancellationToken`; a query past its
        deadline raises :class:`~repro.errors.QueryTimeoutError` out of the
        future *before* any budget is charged.  Pass ``cancel`` to keep a
        handle for manual cancellation (``cancel.cancel()`` →
        :class:`~repro.errors.QueryCancelledError`).

        When ``max_queue_depth`` is set and that many queries are already
        waiting behind the ``max_concurrent_queries`` running slots, submit
        sheds load immediately with
        :class:`~repro.errors.ServiceOverloadedError` instead of growing the
        backlog without bound.

        On a durable service (``wal_dir=``) every query is journaled under a
        ``resume_token`` (auto-generated ``query-{seq}`` unless supplied).
        Re-submitting the *same query* with the token of a journaled query —
        typically after a crash and restart over the same WAL directory —
        resumes it byte-identically: the original query seq (and therefore
        its noise stream) is reused, chunks completed before the interruption
        are served warm from the shared chunk store, and a charge that
        already landed durably is skipped instead of charged twice.  The
        token and a ``resumed`` flag are reported in
        ``result.metadata``.

        Every completed result carries ``metadata["timing"]`` — ``queue_s``
        (submit → a running slot), ``first_row_s`` (submit → first chunk's
        rows landed, ``None`` for a query with no chunk progress) and
        ``total_s`` (submit → result).  Timing is pure observation: the marks are taken
        around the execution and never feed back into it, so results are
        byte-identical with or without a reader (pinned by the
        no-perturbation test in ``tests/test_service.py``).

        A resume token admits only the exact submission it journaled: the
        query's canonical fingerprint (AST plus the release-affecting
        options) is journaled at first submission, and a resubmission whose
        fingerprint differs is rejected with
        :class:`~repro.errors.ResumeMismatchError` — otherwise a token whose
        charge already landed would run an arbitrary different query with
        zero budget charge on the original noise stream.  A token whose
        query is still in flight is rejected with
        :class:`~repro.errors.ResumeConflictError`; wait on the first
        future instead.
        """
        call = self._admit(query, timeout, cancel, resume_token, kwargs)
        token = call[0]
        try:
            future = self._pool.submit(self._run_query, *call)
        except BaseException:
            # Nothing was enqueued (a racing close shut the pool down).
            self._settle(token, None)
            raise

        def settle_if_cancelled(done: "Future[QueryResult]") -> None:
            # A future cancelled before it ran (``Future.cancel``, or
            # close(wait=False)) never reaches _run_query to settle itself.
            if done.cancelled():
                self._settle(token, "cancelled")

        future.add_done_callback(settle_if_cancelled)
        return future

    def execute(self, query: PrividQuery, *, timeout: float | None = None,
                cancel: CancellationToken | None = None,
                resume_token: str | None = None,
                **kwargs: Any) -> QueryResult:
        """Run one query on the calling thread and return its result.

        Admission, options, errors, journaling and ``result.metadata`` are
        :meth:`submit`'s (``queue_s`` is the wait for a slot), but there is
        no pool hop: the caller takes one of the ``max_concurrent_queries``
        running slots that pool tasks also take, and runs the query itself
        instead of sleeping on a future while a pool thread wakes up on
        another core.  So a blocking call never runs beside more queries
        than the bound allows, and :meth:`close` waits for it like any other.

        An interrupt (``KeyboardInterrupt``, ``SystemExit``) that escapes
        the query closes the service, as ``close(wait=False)``: it may have
        landed between a charge's WAL append and its in-memory apply, so the
        ledger may hold a logged-but-unapplied charge.  Every later call
        raises ``RuntimeError``; reopening a service over the same
        ``wal_dir`` recovers the logged state, exactly as after a crash.
        """
        call = self._admit(query, timeout, cancel, resume_token, kwargs)
        try:
            return self._run_query(*call)
        except BaseException as exc:
            if not isinstance(exc, Exception):
                self.close(wait=False)
            raise

    # ------------------------------------------------------------------ stats

    def stats(self) -> dict[str, Any]:
        """One merged service snapshot: queries, engine, store, budgets.

        ``queries`` counts this service's lifetime admissions (``denied``
        are budget rejections, ``failed`` everything else); ``engine`` is
        :func:`~repro.core.executor.engine_stats_dict` over the shared
        engine (per-shard byte breakdown for sharded specs); ``cache``
        is the shared store's tier counters; ``budgets`` the ledger's
        per-camera remaining-budget snapshot; ``ledger`` its admission and
        lock-contention counters (the full per-admission timeline is on
        :meth:`~repro.core.budget.ServiceLedger.contention_stats`).
        """
        with self._lock:
            queries = dict(self._queries)
        return {"queries": queries,
                "engine": engine_stats_dict(self.engine),
                "cache": cache_stats_dict(self.cache),
                "budgets": self.ledger.snapshot(),
                "ledger": self.ledger.contention_stats(include_timeline=False)}

    def health(self) -> dict[str, Any]:
        """A liveness/degradation snapshot suitable for an ops probe.

        ``status`` is ``"ok"``, ``"degraded"`` (the engine is short of
        shards, or the store's directory stopped being writable — the
        service still answers queries, possibly more slowly or with cold
        caches), or ``"closed"``.  ``queries`` splits ``active``
        into ``running`` (holding one of the ``capacity`` slots) and
        ``queued`` (waiting for a slot, bounded by ``queue_limit``).

        On a durable service ``durability`` reports the write-ahead log's
        status (path, record counts, torn bytes dropped at open) and the
        outcome of the last recovery — how many records replayed and whether
        a snapshot seeded the state — so an operator can confirm after a
        restart that the ledger came back from disk rather than from zero.
        """
        with self._lock:
            closed = self._closed
            active = self._queries["active"]
        running = min(active, self.max_concurrent_queries)
        engine_health = getattr(self.engine, "health", None)
        engine = engine_health() if callable(engine_health) \
            else {"engine": type(self.engine).__name__, "degraded": False}
        store = store_health(self.cache)
        degraded = bool(engine.get("degraded")) or \
            not store.get("writable", True)
        durability: dict[str, Any] = {"enabled": self.wal is not None}
        if self.wal is not None:
            durability["wal"] = self.wal.status()
            durability["last_recovery"] = self.ledger.last_recovery
        return {"status": "closed" if closed
                else ("degraded" if degraded else "ok"),
                "queries": {"active": active, "running": running,
                            "queued": active - running,
                            "capacity": self.max_concurrent_queries,
                            "queue_limit": self.max_queue_depth},
                "engine": engine,
                "store": store,
                "durability": durability,
                "budgets": self.ledger.snapshot()}

    # -------------------------------------------------------------- lifecycle

    def close(self, *, wait: bool = True) -> None:
        """Stop admitting, then release service-owned resources.

        With ``wait=True`` every admitted query finishes first: submitted
        ones, queued or running, and ones running on callers' threads in
        :meth:`execute`.  With ``wait=False`` the queued submissions are
        cancelled (their futures report ``cancelled()``, they count as
        ``cancelled``, and their journal entries stay resumable), while
        queries already running are abandoned: they run on against the
        closed engine and log, which may fail them.  The engine is shut
        down only when the service built it from a spec string.  The
        ``fault_injector`` given at construction leaves every engine or
        store that still holds it, so a caller's engine or store fires it
        nowhere, not even on a shard already running.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=wait, cancel_futures=not wait)
        if wait:
            with self._settled:
                self._settled.wait_for(lambda: self._queries["active"] == 0)
        if self.fault_injector is not None:
            # The plan goes with the service: an engine or store passed in
            # outlives it, so take the plan off every resource still holding it.
            for resource in (self.engine, self.cache):
                if getattr(resource, "fault_injector", None) is self.fault_injector:
                    resource.set_fault_injector(None)
        self._template.close()
        if self.wal is not None:
            self.wal.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
