"""The long-lived multi-query service layer.

The paper's deployment model is an always-on system: a video owner stands up
Privid over their cameras once, and many analysts submit queries against it
over time — all drawing from the *same* per-camera privacy budgets, all
sharing the same execution resources.  :class:`PrividSystem` alone models a
single deployment-shaped object but historically ran one query at a time
with a private ledger per instance; :class:`QueryService` is the always-on
wrapper that makes the sharing explicit:

* **one engine** (and its shard pool, for ``sharded:...`` specs) executes
  every query's chunks — the engine's seq-keyed bookkeeping supports
  concurrent streams from different threads;
* **one chunk store** memoizes chunk outputs across all queries, so
  overlapping windows from different analysts hit the same warm entries;
* **one ledger** (:class:`~repro.core.budget.ServiceLedger`) accounts every
  camera's per-frame budget across all queries — two concurrent queries
  against the same camera contend on one budget, check-and-charge is
  atomic, and multi-camera admission stays all-or-nothing under races.

Queries run on a bounded thread pool (``max_concurrent_queries``).  Each
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

For genuinely remote shards, start daemons with
``python -m repro.core.remote --listen HOST:PORT`` and pass
``engine="sharded:hostA:9101,hostB:9101"``.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Any

from repro.core.budget import DurableServiceLedger, ServiceLedger
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
_RELEASE_KWARGS = ("default_epsilon", "add_noise", "charge_budget")


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
    strings) plus ``ledger`` to adopt an existing
    :class:`~repro.core.budget.ServiceLedger` and
    ``max_concurrent_queries`` bounding the query thread pool.  An engine
    built here from a spec string belongs to the service (``close`` shuts
    it down, shard pools included); an engine *instance* passed in is
    shared property and is left running.
    """

    def __init__(self, *, seed: int = 0,
                 registry: ExecutableRegistry | None = None,
                 engine: ExecutionEngine | str | None = None,
                 cache: ChunkStore | str | None = None,
                 ledger: ServiceLedger | None = None,
                 wal_dir: str | Path | None = None,
                 compact_every: int = 1024,
                 max_concurrent_queries: int = 4,
                 max_queue_depth: int | None = None,
                 default_query_timeout: float | None = None,
                 on_engine_failure: str = "fail",
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
        self.journal: QueryJournal | None = None
        if wal_dir is not None:
            if ledger is not None:
                raise ValueError(
                    "pass either wal_dir (the service builds its durable "
                    "ledger over it) or ledger, not both")
            self.wal = WriteAheadLog(wal_dir, fault_injector=fault_injector)
            try:
                self.journal = QueryJournal(self.wal)
                ledger = DurableServiceLedger(self.wal, journal=self.journal,
                                              compact_every=compact_every)
            except BaseException:
                self.wal.close()  # recovery refused the log
                raise
        self.ledger = ledger if ledger is not None else ServiceLedger()
        # The template system owns the shared resources: it builds the
        # engine/store from specs, wires share_store for engines it built,
        # and registers cameras.  Per-query systems are thin views over it.
        self._template = PrividSystem(seed=seed, registry=registry,
                                      engine=engine, cache=cache,
                                      ledger=self.ledger,
                                      on_engine_failure=on_engine_failure)
        self.engine: ExecutionEngine = self._template.engine
        self.cache: ChunkStore | None = self._template.chunk_cache
        self.registry: ExecutableRegistry = self._template.registry
        self.max_concurrent_queries = max_concurrent_queries
        self.max_queue_depth = max_queue_depth
        self.default_query_timeout = default_query_timeout
        self.on_engine_failure = on_engine_failure
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
        self._lock = threading.Lock()
        # A recovered service numbers fresh queries past every journaled
        # seq: a resumed query reuses its original seq (its noise stream),
        # which must never collide with a new submission's.
        self._next_query = self.journal.next_query_seq() \
            if self.journal is not None else 0
        self._submitted = 0
        self._completed = 0
        self._denied = 0
        self._failed = 0
        self._timed_out = 0
        self._cancelled = 0
        self._rejected = 0
        self._active = 0
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

    def _run_query(self, query_seq: int, query: PrividQuery,
                   kwargs: dict[str, Any], token: str | None, resumed: bool,
                   timing: dict[str, float], start_seq: int) -> QueryResult:
        timing["started_at"] = time.perf_counter()
        try:
            try:
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
            except BudgetExceededError:
                with self._lock:
                    self._denied += 1
                    self._active -= 1
                raise
            except QueryCancelledError as exc:
                with self._lock:
                    if isinstance(exc, QueryTimeoutError):
                        self._timed_out += 1
                    else:
                        self._cancelled += 1
                    self._active -= 1
                raise
            except BaseException:
                with self._lock:
                    self._failed += 1
                    self._active -= 1
                raise
            with self._lock:
                self._completed += 1
                self._active -= 1
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
        finally:
            if token is not None:
                with self._lock:
                    self._inflight_tokens.discard(token)

    def submit(self, query: PrividQuery, *, timeout: float | None = None,
               cancel: CancellationToken | None = None,
               resume_token: str | None = None,
               **kwargs: Any) -> "Future[QueryResult]":
        """Enqueue a query; returns a future resolving to its result.

        ``kwargs`` are forwarded to :meth:`PrividSystem.execute`
        (``default_epsilon``, ``add_noise``, ``charge_budget``).  A query
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
        (submit → a pool slot), ``first_row_s`` (submit → first chunk's rows
        landed, ``None`` for a query with no chunk progress) and ``total_s``
        (submit → result).  Timing is pure observation: the marks are taken
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
        if resume_token is not None and self.journal is None:
            raise ValueError(
                "resume_token requires a durable service (wal_dir=...)")
        # Submit→first-row / submit→result timing for latency measurements
        # (``result.metadata["timing"]``): absolute perf_counter
        # marks, written by at most one thread at a time (submit here, the
        # query's own worker thereafter), reduced to deltas in _run_query.
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
        with self._lock:
            if self._closed:
                raise RuntimeError("QueryService is closed")
            if self.max_queue_depth is not None:
                queued = max(0, self._active - self.max_concurrent_queries)
                if queued >= self.max_queue_depth:
                    self._rejected += 1
                    raise ServiceOverloadedError(
                        f"query rejected: {queued} queries already queued "
                        f"behind {self.max_concurrent_queries} running slots "
                        f"(max_queue_depth={self.max_queue_depth})",
                        active=self._active, queue_depth=queued,
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
            self._submitted += 1
            self._active += 1
        if token is not None:
            kwargs = dict(kwargs, cancel=token)

        def on_chunk(done: int) -> None:
            # First completed chunk == first rows landed: the submit→
            # first-row mark.  Called from the query's worker thread only.
            if "first_chunk_at" not in timing:
                timing["first_chunk_at"] = time.perf_counter()
            if self.wal is not None:
                # The chaos plans' mid-stream kill point: between a query's
                # start and its charge the WAL writes nothing to crash on.
                self.wal.crash_point("service.crash_at_chunk", done)

        kwargs = dict(kwargs, on_chunk=on_chunk)
        try:
            start_seq = 0
            if self.journal is not None:
                # May raise ResumeMismatchError (resubmitted query differs
                # from the journaled one) or a WAL write failure.
                start_seq = self.journal.start(journal_token, query_seq,
                                               query.name, fingerprint)
                kwargs = dict(kwargs, query_id=journal_token)
            return self._pool.submit(self._run_query, query_seq, query,
                                     kwargs, journal_token,
                                     resumed_entry is not None, timing,
                                     start_seq)
        except BaseException:
            # Nothing was enqueued: roll back the admission accounting, or
            # a failed submit would inflate `active` forever and eventually
            # shed load spuriously.
            with self._lock:
                self._submitted -= 1
                self._active -= 1
                if journal_token is not None:
                    self._inflight_tokens.discard(journal_token)
            raise

    def execute(self, query: PrividQuery, **kwargs: Any) -> QueryResult:
        """Submit and wait: the blocking single-query convenience path."""
        return self.submit(query, **kwargs).result()

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
            queries = {"submitted": self._submitted, "completed": self._completed,
                       "denied": self._denied, "failed": self._failed,
                       "timed_out": self._timed_out,
                       "cancelled": self._cancelled,
                       "rejected": self._rejected,
                       "active": self._active}
        return {"queries": queries,
                "engine": engine_stats_dict(self.engine),
                "cache": cache_stats_dict(self.cache),
                "budgets": self.ledger.snapshot(),
                "ledger": self.ledger.contention_stats(include_timeline=False)}

    def health(self) -> dict[str, Any]:
        """A liveness/degradation snapshot suitable for an ops probe.

        ``status`` is ``"ok"``, ``"degraded"`` (the engine lost shards or
        tripped a circuit breaker, or the store's directory stopped being
        writable — the service still answers queries, possibly more slowly
        or with cold caches), or ``"closed"``.  ``queries`` splits ``active``
        into ``running`` (holding one of the ``capacity`` pool slots) and
        ``queued`` (waiting for a slot, bounded by ``queue_limit``).

        On a durable service ``durability`` reports the write-ahead log's
        status (path, record counts, torn bytes dropped at open) and the
        outcome of the last recovery — how many records replayed and whether
        a snapshot seeded the state — so an operator can confirm after a
        restart that the ledger came back from disk rather than from zero.
        """
        with self._lock:
            closed = self._closed
            active = self._active
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
            durability["last_recovery"] = getattr(
                self.ledger, "last_recovery", None)
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
        """Drain the query pool and release service-owned resources.

        In-flight queries finish (``wait=True``); the engine is shut down
        only when the service built it from a spec string.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=wait)
        self._template.close()
        if self.wal is not None:
            self.wal.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
