"""Tests for the shared-ledger seam and the long-lived query service.

The contract under test: one :class:`ServiceLedger` accounts every camera's
per-frame budget across all concurrent queries of a deployment —
check-and-charge is atomic, multi-camera admission stays all-or-nothing
under races — and :class:`QueryService` shares one engine, one chunk store
and that one ledger across many concurrent queries while raw results stay
byte-identical to a standalone system.  Under load, every submission ends in
exactly one outcome, and the per-query timing hooks are pure observation:
a saturating schedule releases the same bytes, noisy values included, on a
4-wide pool as on a single slot.
"""

import sys
import threading
import time
from concurrent.futures import wait

import pytest

from repro.bench.serving import WorkloadConfig, generate_schedule
from repro.core import PrividSystem, ServiceLedger
from repro.core.budget import BudgetRequest, FrameBudgetLedger
from repro.core.durability import WriteAheadLog
from repro.core.noise import LaplaceMechanism
from repro.core.policy import PrivacyPolicy
from repro.core.resilience import CancellationToken
from repro.errors import (
    BudgetExceededError,
    PolicyError,
    QueryCancelledError,
    QueryTimeoutError,
    ServiceOverloadedError,
    UnknownCameraError,
)
from repro.query.builder import QueryBuilder
from repro.relational.aggregates import Aggregation
from repro.relational.expressions import Column, RangeExpression
from repro.relational.plan import Projection, TableScan
from repro.relational.table import CHUNK_COLUMN, REGION_COLUMN
from repro.service import QueryService
from repro.utils.rng import RandomSource
from repro.utils.timebase import TimeInterval

from tests.conftest import make_crossing_object, make_simple_video


def _walker_video(num_walkers: int = 6, duration: float = 600.0):
    objects = [make_crossing_object(f"w{i}", start=20.0 + 80.0 * i, duration=35.0,
                                    x=450.0 + 40.0 * i)
               for i in range(num_walkers)]
    return make_simple_video(duration=duration, objects=objects)


def _count_query(name: str = "q", *, window: float = 600.0,
                 bucket: float = 600.0, epsilon: float = 1.0, camera: str = "cam"):
    return (QueryBuilder(name)
            .split(camera, begin=0, end=window, chunk_duration=60.0, into="chunks")
            .process("chunks", executable="count_entering_people.py", max_rows=5,
                     schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0)], into="t")
            .select_count(table="t", bucket_seconds=bucket, epsilon=epsilon)
            .build())


class TestAtomicLedger:
    def test_concurrent_admits_cannot_overdraw(self):
        # The satellite regression: N threads race check-then-charge for the
        # same frames.  Without the lock, several could pass the check
        # before any charge lands; with it, exactly total/epsilon succeed.
        ledger = ServiceLedger()
        ledger.register("cam", 3.0)
        barrier = threading.Barrier(8)
        admitted, denied = [], []
        lock = threading.Lock()

        def one_query(index: int) -> None:
            barrier.wait()
            try:
                ledger.admit_many({"cam": [BudgetRequest(TimeInterval(0.0, 10.0), 1.0)]},
                                  {"cam": 5.0})
            except BudgetExceededError:
                with lock:
                    denied.append(index)
            else:
                with lock:
                    admitted.append(index)

        threads = [threading.Thread(target=one_query, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 3
        assert len(denied) == 5
        assert ledger.remaining_over("cam", TimeInterval(0.0, 10.0)) == pytest.approx(0.0)
        assert ledger.contention_stats()["admitted"] == 3

    def test_max_consumed_is_the_peak_of_overlapping_charges(self):
        ledger = ServiceLedger()
        ledger.register("cam", 5.0)
        for start, epsilon in ((0.0, 1.0), (5.0, 2.0)):
            ledger.admit_many({"cam": [BudgetRequest(TimeInterval(start, start + 10.0),
                                                     epsilon)]}, {"cam": 0.0})
        assert ledger.ledger("cam").max_consumed() == pytest.approx(3.0)  # overlap [5, 10)
        assert FrameBudgetLedger(total_epsilon=5.0).max_consumed() == 0.0


class TestServiceLedger:
    def test_register_is_get_or_create(self):
        ledger = ServiceLedger()
        first = ledger.register("cam", 2.0)
        assert ledger.register("cam", 2.0) is first
        assert ledger.cameras() == ("cam",)
        with pytest.raises(PolicyError):
            ledger.register("cam", 3.0)  # re-budgeting is refused
        with pytest.raises(UnknownCameraError):
            ledger.ledger("other")

    def test_admit_many_is_all_or_nothing_across_cameras(self):
        ledger = ServiceLedger()
        ledger.register("a", 1.0)
        ledger.register("b", 1.0)
        ledger.admit_many({"b": [BudgetRequest(TimeInterval(0.0, 10.0), 1.0)]}, {"b": 0.0})
        span = TimeInterval(0.0, 10.0)
        with pytest.raises(BudgetExceededError):
            ledger.admit_many({"a": [BudgetRequest(span, 0.5)],
                               "b": [BudgetRequest(span, 0.5)]},
                              {"a": 0.0, "b": 0.0})
        # Camera b was exhausted, so camera a must be untouched.
        assert ledger.remaining_over("a", span) == pytest.approx(1.0)

    def test_racing_multi_camera_admissions_never_interleave(self):
        # Two queries race over the same two cameras, each demanding the
        # full budget of both: exactly one wins both, the other gets
        # nothing (no partial charge on either camera).
        results = []
        lock = threading.Lock()
        for _ in range(10):  # racy by nature: repeat to give races a chance
            ledger = ServiceLedger()
            ledger.register("a", 1.0)
            ledger.register("b", 1.0)
            span = TimeInterval(0.0, 10.0)
            barrier = threading.Barrier(2)

            def one_query() -> None:
                barrier.wait()
                try:
                    ledger.admit_many({"a": [BudgetRequest(span, 1.0)],
                                       "b": [BudgetRequest(span, 1.0)]},
                                      {"a": 0.0, "b": 0.0})
                except BudgetExceededError:
                    outcome = "denied"
                else:
                    outcome = "admitted"
                with lock:
                    results.append(outcome)

            threads = [threading.Thread(target=one_query) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert ledger.remaining_over("a", span) == pytest.approx(0.0)
            assert ledger.remaining_over("b", span) == pytest.approx(0.0)
        assert results.count("admitted") == 10
        assert results.count("denied") == 10

    def test_two_systems_share_a_ledger_when_given_one(self):
        video = _walker_video()
        shared = ServiceLedger()
        systems = []
        for _ in range(2):
            system = PrividSystem(seed=5, ledger=shared)
            system.register_camera("cam", video,
                                   policy=PrivacyPolicy(rho=30.0, k_segments=1),
                                   epsilon_budget=1.5)
            systems.append(system)
        systems[0].execute(_count_query("first"))
        with pytest.raises(BudgetExceededError):
            systems[1].execute(_count_query("second"))

    def test_budget_remaining_is_read_under_the_admission_lock(self):
        # Another query charges the same frames after this one's admission
        # released the lock but before ``execute`` builds its result: the
        # reported budget must still be the one at admission time.
        charged, interleaved = threading.Barrier(2), threading.Barrier(2)

        class PausingLedger(ServiceLedger):
            def admit_many(self, *args, **kwargs):
                remaining = super().admit_many(*args, **kwargs)
                charged.wait(timeout=30)
                interleaved.wait(timeout=30)
                return remaining

        shared = PausingLedger()
        system = PrividSystem(seed=5, ledger=shared)
        system.register_camera("cam", _walker_video(),
                               policy=PrivacyPolicy(rho=30.0, k_segments=1),
                               epsilon_budget=1.5)
        results = []
        worker = threading.Thread(
            target=lambda: results.append(system.execute(_count_query())))
        worker.start()
        charged.wait(timeout=30)
        ServiceLedger.admit_many(
            shared, {"cam": [BudgetRequest(TimeInterval(0.0, 600.0), 0.25)]}, {})
        interleaved.wait(timeout=30)
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert results[0].budget_remaining == {"cam": 0.5}
        assert system.remaining_budget("cam", TimeInterval(0.0, 600.0)) == 0.25

    def test_systems_keep_private_ledgers_by_default(self):
        video = _walker_video()
        for _ in range(2):  # both runs admit: no sharing without a ledger
            system = PrividSystem(seed=5)
            system.register_camera("cam", video,
                                   policy=PrivacyPolicy(rho=30.0, k_segments=1),
                                   epsilon_budget=1.5)
            system.execute(_count_query())


class TestQueryService:
    def _service(self, video, **kwargs) -> QueryService:
        service = QueryService(seed=5, **kwargs)
        service.register_camera("cam", video,
                                policy=PrivacyPolicy(rho=30.0, k_segments=1),
                                epsilon_budget=100.0)
        return service

    def test_concurrent_queries_charge_one_shared_ledger(self):
        video = _walker_video()
        with QueryService(seed=5, engine="sharded:2") as service:
            service.register_camera("cam", video,
                                    policy=PrivacyPolicy(rho=30.0, k_segments=1),
                                    epsilon_budget=2.0)
            futures = [service.submit(_count_query(f"q{i}")) for i in range(4)]
            wait(futures)
            admitted = [f for f in futures if f.exception() is None]
            denied = [f for f in futures
                      if isinstance(f.exception(), BudgetExceededError)]
            assert len(admitted) == 2  # 2.0 budget / 1.0 per query
            assert len(denied) == 2
            stats = service.stats()
            assert stats["queries"] == {"submitted": 4, "completed": 2,
                                        "denied": 2, "failed": 0,
                                        "timed_out": 0, "cancelled": 0,
                                        "rejected": 0, "active": 0}
            assert stats["budgets"]["cam"]["remaining_min"] == pytest.approx(0.0)
            # The ledger's own admission counters agree with the outcomes.
            assert (stats["ledger"]["admitted"], stats["ledger"]["denied"]) == (2, 2)
            for future in admitted:
                remaining = future.result().budget_remaining
                assert remaining is not None and remaining["cam"] >= 0.0

    def test_raw_results_byte_identical_to_standalone_system(self):
        video = _walker_video()
        query = _count_query(bucket=120.0)
        system = PrividSystem(seed=5)
        system.register_camera("cam", video,
                               policy=PrivacyPolicy(rho=30.0, k_segments=1),
                               epsilon_budget=100.0)
        reference = system.execute(query)
        with self._service(video) as service:
            result = service.execute(query)
        assert repr(result.raw_series_unsafe()) == repr(reference.raw_series_unsafe())

    def test_engine_choice_invisible_through_the_service(self):
        # Same service seed: query seq 0 draws from the same noise stream
        # whichever engine runs the chunks, so even noisy values match.
        video = _walker_video()
        query = _count_query(bucket=120.0)
        results = {}
        for label, engine in (("serial", None), ("sharded", "sharded:2")):
            with self._service(video, engine=engine) as service:
                results[label] = service.execute(query)
        assert repr(results["sharded"].series()) == repr(results["serial"].series())
        assert repr(results["sharded"].raw_series_unsafe()) \
            == repr(results["serial"].raw_series_unsafe())

    def test_noise_streams_are_per_query_and_deterministic(self):
        video = _walker_video()
        query = _count_query(bucket=120.0)

        def run_pair():
            with self._service(video) as service:
                return (service.execute(query, charge_budget=False).series(),
                        service.execute(query, charge_budget=False).series())

        first_a, first_b = run_pair()
        second_a, second_b = run_pair()
        assert repr(first_a) == repr(second_a)    # deterministic across services
        assert repr(first_b) == repr(second_b)
        assert repr(first_a) != repr(first_b)     # distinct per-query streams

    def test_view_draws_what_a_whole_per_query_system_released(self):
        """Equal text twice on one service: ``privid/query-0`` then
        ``privid/query-1``, value for value what a complete ``PrividSystem``
        re-pathed onto that stream releases (how the service built its
        per-query systems before it handed out views)."""
        video = _walker_video()
        query = _count_query(bucket=120.0)
        with self._service(video) as service:
            served = [service.execute(query, charge_budget=False) for _ in range(2)]
        assert repr(served[0].series()) != repr(served[1].series())
        for query_seq, result in enumerate(served):
            system = PrividSystem(seed=5)
            system.register_camera("cam", video,
                                   policy=PrivacyPolicy(rho=30.0, k_segments=1),
                                   epsilon_budget=100.0)
            system.random = RandomSource(5, path=f"privid/query-{query_seq}")
            system.mechanism = LaplaceMechanism(system.random)
            reference = system.execute(query, charge_budget=False)
            assert repr(result.series()) == repr(reference.series())
            assert repr(result.raw_series_unsafe()) == repr(reference.raw_series_unsafe())
            assert result.metadata["query_seq"] == query_seq

    def test_view_owns_nothing_and_sees_later_registrations(self):
        video = _walker_video()
        service = self._service(video, engine="sharded:2")
        shutdowns = []
        shutdown = service.engine.shutdown

        def counted_shutdown():
            shutdowns.append(1)
            shutdown()

        service.engine.shutdown = counted_shutdown
        with service:
            view = service._template.query_view("privid/query-0")
            assert (view.engine, view.chunk_cache, view.ledger, view.registry, view.cameras) \
                == (service.engine, service.cache, service.ledger, service.registry,
                    service.cameras)
            service.execute(_count_query(bucket=120.0), charge_budget=False)
            with view:
                pass          # a view closing must not take the shared engine down
            view.close()
            assert shutdowns == []
            late = _count_query("late", window=120.0, bucket=120.0, camera="late")
            with pytest.raises(UnknownCameraError):
                service.execute(late)
            service.register_camera("late", video,
                                    policy=PrivacyPolicy(rho=30.0, k_segments=1),
                                    epsilon_budget=1.0)
            assert service.execute(late).releases
        assert shutdowns == [1]

    def test_queries_share_one_chunk_store(self):
        video = _walker_video()
        with self._service(video, cache="memory") as service:
            service.execute(_count_query("warm", bucket=120.0), charge_budget=False)
            service.execute(_count_query("reuse", bucket=120.0), charge_budget=False)
            stats = service.stats()
        assert stats["cache"]["enabled"] is True
        assert stats["cache"]["hits"] == 10   # second query fully cache-served
        assert stats["cache"]["misses"] == 10

    def test_stats_shape_is_one_merged_snapshot(self):
        video = _walker_video()
        with self._service(video, engine="sharded:2", cache="memory") as service:
            service.execute(_count_query(bucket=120.0), charge_budget=False)
            stats = service.stats()
        assert set(stats) == {"queries", "engine", "cache", "budgets", "ledger"}
        assert stats["engine"]["engine"] == "sharded"
        assert stats["budgets"]["cam"]["total_epsilon"] == 100.0
        assert stats["queries"]["completed"] == 1
        assert stats["ledger"]["admitted"] == 0    # charge_budget=False run
        assert "timeline" not in stats["ledger"]   # counters only in stats()

    def test_submit_after_close_is_refused(self):
        video = _walker_video()
        service = self._service(video)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(_count_query())
        service.close()  # idempotent


class _GateExecutable:
    """Blocks every chunk on an event — holds a pool slot open for tests."""

    name = "gate"

    def __init__(self) -> None:
        self.started = threading.Event()
        self.release = threading.Event()

    def fresh_instance(self):
        return self  # the shared events ARE the point

    def config_fingerprint(self):
        return ("gate",)  # cache-key contract, needed on cached services

    def process(self, chunk, context):
        self.started.set()
        self.release.wait(timeout=10.0)
        return []


def _gate_query(name: str = "gated"):
    return (QueryBuilder(name)
            .split("cam", begin=0, end=600.0, chunk_duration=60.0, into="chunks")
            .process("chunks", executable="gate.py", max_rows=5,
                     schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0)], into="t")
            .select_count(table="t", bucket_seconds=600.0, epsilon=1.0)
            .build())


class TestServiceResilience:
    def _service(self, video, *, epsilon_budget=2.0, **kwargs) -> QueryService:
        service = QueryService(seed=5, **kwargs)
        service.register_camera("cam", video,
                                policy=PrivacyPolicy(rho=30.0, k_segments=1),
                                epsilon_budget=epsilon_budget)
        return service

    def test_timed_out_query_charges_no_budget(self):
        # The S3 conservation contract: a deadline that fires mid-query must
        # leave every ledger exactly as a run that never happened — the
        # executor checks the token before admission, so no charge leaks.
        video = _walker_video()
        with self._service(video) as service:
            future = service.submit(_count_query(), timeout=1e-6)
            with pytest.raises(QueryTimeoutError):
                future.result()
            stats = service.stats()
            assert stats["queries"]["timed_out"] == 1
            assert stats["queries"]["failed"] == 0  # typed, not a generic failure
            assert stats["budgets"]["cam"]["remaining_min"] == pytest.approx(2.0)
            # The clean rerun admits and charges exactly its epsilon.
            service.execute(_count_query())
            assert service.stats()["budgets"]["cam"]["remaining_min"] \
                == pytest.approx(1.0)

    def test_default_query_timeout_applies_to_every_submit(self):
        video = _walker_video()
        with self._service(video, default_query_timeout=1e-6) as service:
            with pytest.raises(QueryTimeoutError):
                service.execute(_count_query())
            # An explicit per-query timeout overrides the default.
            service.execute(_count_query(), timeout=60.0)

    def test_manual_cancel_is_typed_and_charges_nothing(self):
        video = _walker_video()
        with self._service(video) as service:
            token = CancellationToken()
            token.cancel("analyst closed the notebook")
            future = service.submit(_count_query(), cancel=token)
            with pytest.raises(QueryCancelledError) as info:
                future.result()
            assert not isinstance(info.value, QueryTimeoutError)
            stats = service.stats()
            assert stats["queries"]["cancelled"] == 1
            assert stats["budgets"]["cam"]["remaining_min"] == pytest.approx(2.0)

    def test_cancel_mid_query_stops_between_chunks(self):
        gate = _GateExecutable()
        video = _walker_video()
        with self._service(video, max_concurrent_queries=1) as service:
            service.register_executable("gate.py", gate)
            token = CancellationToken()
            future = service.submit(_gate_query(), cancel=token)
            assert gate.started.wait(5.0)  # the query is mid-chunk
            token.cancel()
            gate.release.set()
            with pytest.raises(QueryCancelledError):
                future.result()
            assert service.stats()["budgets"]["cam"]["remaining_min"] \
                == pytest.approx(2.0)

    def test_overload_sheds_with_typed_rejection(self):
        gate = _GateExecutable()
        video = _walker_video()
        with self._service(video, epsilon_budget=100.0,
                           max_concurrent_queries=1,
                           max_queue_depth=1) as service:
            service.register_executable("gate.py", gate)
            running = service.submit(_gate_query("running"))
            assert gate.started.wait(5.0)  # the one slot is now held
            queued = service.submit(_gate_query("queued"))  # fills the queue
            with pytest.raises(ServiceOverloadedError) as info:
                service.submit(_gate_query("shed"))
            assert info.value.queue_depth == 1
            assert info.value.limit == 1
            gate.release.set()
            running.result()
            queued.result()
            stats = service.stats()
            assert stats["queries"]["rejected"] == 1
            assert stats["queries"]["completed"] == 2
            health = service.health()
            assert health["queries"]["queue_limit"] == 1

    def test_health_snapshot_shape_and_lifecycle(self):
        video = _walker_video()
        service = self._service(video, cache="memory")
        try:
            health = service.health()
            assert health["status"] == "ok"
            assert health["queries"] == {"active": 0, "running": 0, "queued": 0,
                                         "capacity": 4, "queue_limit": None}
            assert health["store"]["enabled"] is True
            assert health["budgets"]["cam"]["total_epsilon"] == 2.0
        finally:
            service.close()
        assert service.health()["status"] == "closed"

    def test_health_reports_engine_degradation(self):
        video = _walker_video()
        with self._service(video, epsilon_budget=100.0,
                           engine="sharded:2") as service:
            assert service.health()["status"] == "ok"  # lazy pool: not degraded
            service.execute(_count_query(), charge_budget=False)
            assert service.health()["status"] == "ok"
            for shard in service.engine._live_shards():
                shard.process.kill()
            for shard in service.engine._shards.values():
                shard.process.wait()
            health = service.health()
            assert health["status"] == "degraded"
            assert health["engine"]["live_shards"] == 0
            # The next stream respawns the pool and health recovers.
            service.execute(_count_query(), charge_budget=False)
            assert service.health()["status"] == "ok"


def _event_query(event):
    """The query a schedule event submits: a COUNT, a bucketed COUNT or a
    bounded SUM over one of three overlapping 240 s windows (picked by the
    event's seq, so a replay builds the same queries)."""
    begin = (event.seq % 3) * 120.0
    builder = (QueryBuilder(f"load-{event.seq}-{event.kind}")
               .split("cam", begin=begin, end=begin + 240.0, chunk_duration=60.0,
                      into="chunks")
               .process("chunks", executable="count_entering_people.py", max_rows=5,
                        schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0)],
                        into="rows"))
    if event.kind == "count":
        builder.select_count(table="rows", epsilon=0.2)
    elif event.kind == "count_bucketed":
        builder.select_count(table="rows", bucket_seconds=120.0, epsilon=0.2)
    else:
        builder.select(Aggregation(function="SUM", column="dy"),
                       Projection(TableScan("rows"), outputs=(
                           ("dy", RangeExpression(Column("dy"), 0.0, 5.0)),
                           (CHUNK_COLUMN, Column(CHUNK_COLUMN)),
                           (REGION_COLUMN, Column(REGION_COLUMN)))),
                       epsilon=0.2)
    return builder.build()


def _service(video, *, epsilon_budget: float = 100.0, **kwargs) -> QueryService:
    service = QueryService(seed=5, **kwargs)
    service.register_camera("cam", video,
                            policy=PrivacyPolicy(rho=30.0, k_segments=1),
                            epsilon_budget=epsilon_budget)
    return service


class TestStormReconciliation:
    def test_sheds_reconcile_exactly_and_nothing_is_lost(self):
        # Two slots, one queue position: the first three submissions are
        # accepted (the _active counter admits until 2 running + 1 queued),
        # every later one must shed — deterministically, because shedding
        # reads the submit-side counter, not worker timing.
        video = _walker_video()
        gate = _GateExecutable()
        with _service(video, max_concurrent_queries=2,
                      max_queue_depth=1) as service:
            service.register_executable("gate.py", gate)
            futures, sheds = [], 0
            for index in range(8):
                try:
                    futures.append(service.submit(_gate_query(f"g{index}")))
                except ServiceOverloadedError as exc:
                    sheds += 1
                    assert exc.limit == 1
            assert sheds == 5 and len(futures) == 3

            # ---- health mid-storm: internally consistent while saturated.
            gate.started.wait(timeout=5.0)
            health = service.health()
            queries = health["queries"]
            assert queries["active"] == queries["running"] + queries["queued"]
            assert queries["running"] <= queries["capacity"] == 2
            assert queries["queued"] <= queries["queue_limit"] == 1
            assert queries["active"] == 3

            gate.release.set()
            wait(futures)
            stats = service.stats()["queries"]
            assert stats["rejected"] == sheds
            assert stats["submitted"] == 8 - sheds
            assert stats["completed"] + stats["denied"] + stats["failed"] \
                + stats["timed_out"] + stats["cancelled"] == stats["submitted"]
            assert stats["active"] == 0

    def test_stats_consistent_under_concurrent_submitters(self):
        video = _walker_video()
        with _service(video, max_concurrent_queries=4) as service:
            futures, lock = [], threading.Lock()

            def submitter() -> None:
                for _ in range(3):
                    future = service.submit(_count_query(epsilon=0.2))
                    with lock:
                        futures.append(future)

            threads = [threading.Thread(target=submitter) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wait(futures)
            stats = service.stats()
            queries = stats["queries"]
            assert queries["submitted"] == 12
            assert queries["completed"] == 12
            assert queries["active"] == 0
            # The ledger saw exactly one admission per completed query.
            assert stats["ledger"]["admitted"] == 12
            assert stats["ledger"]["admit_calls"] == 12


class TestNoPerturbationUnderLoad:
    def test_loaded_run_releases_byte_identical_to_serial(self):
        # The timing hooks are pure observation.  The same schedule,
        # submitted in event order from one thread (submission order assigns
        # query seqs, hence noise streams), releases the same values, noisy
        # ones included, on a saturated 4-wide pool as on a single slot, and
        # as a plain system with no timing hooks releases on each query's
        # stream.  A hook that fed back into execution or noise would move
        # them.
        schedule = generate_schedule(WorkloadConfig(
            seed=17, num_tenants=8, cameras=("cam",), duration_s=6.0,
            arrival_rate_per_s=3.0))
        assert len(schedule.events) >= 10
        video = _walker_video()

        def released(results):
            return repr([[(release.group_key, release.noisy_value,
                           release.raw_value_unsafe)
                          for release in result.releases]
                         for result in results])

        releases = {}
        for width in (4, 1):
            with _service(video, epsilon_budget=500.0,
                          max_concurrent_queries=width) as service:
                futures = [service.submit(_event_query(event))
                           for event in schedule.events]
                results = [future.result() for future in futures]
                stats = service.stats()
            releases[width] = released(results)
            # Zero leakage: one ledger charge per release source interval.
            assert stats["budgets"]["cam"]["charges"] == sum(
                len(intervals) for result in results for release in result.releases
                for intervals in (release.source_intervals or {}).values())
            ledger = stats["ledger"]
            assert ledger["admitted"] == stats["queries"]["completed"] \
                == len(schedule.events)
            assert ledger["admit_calls"] == ledger["admitted"] + ledger["denied"]
            for result in results:
                timing = result.metadata["timing"]
                assert 0.0 <= timing["queue_s"]
                assert timing["first_row_s"] is not None
                assert 0.0 <= timing["first_row_s"] <= timing["total_s"]
        assert releases[4] == releases[1]

        system = PrividSystem(seed=5)
        system.register_camera("cam", video,
                               policy=PrivacyPolicy(rho=30.0, k_segments=1),
                               epsilon_budget=500.0)
        reference = []
        for query_seq, event in enumerate(schedule.events):
            system.random = RandomSource(5, path=f"privid/query-{query_seq}")
            system.mechanism = LaplaceMechanism(system.random)
            reference.append(system.execute(_event_query(event)))
        assert releases[1] == released(reference)


class TestDurableService:
    """The service-level crash-consistency contract (WAL + journal + resume)."""

    def _durable(self, video, wal_dir, store_dir, **kwargs) -> QueryService:
        service = QueryService(seed=5, wal_dir=wal_dir,
                               cache=f"tiered:{store_dir}", **kwargs)
        service.register_camera("cam", video,
                                policy=PrivacyPolicy(rho=30.0, k_segments=1),
                                epsilon_budget=100.0)
        return service

    def test_durable_service_journals_and_reports_health(self, tmp_path):
        video = _walker_video()
        with self._durable(video, tmp_path / "wal", tmp_path / "store") as service:
            result = service.execute(_count_query())
            assert result.metadata["resume_token"] == "query-0"
            assert result.metadata["resumed"] is False
            assert service.journal.entry("query-0")["finished"] is True
            durability = service.health()["durability"]
            assert durability["enabled"] is True
            assert durability["wal"]["last_seq"] > 0
            assert durability["last_recovery"]["records_replayed"] == 0
        # close() released the WAL file handle with the service.
        assert service.wal.status()["closed"] is True

    def test_budgets_recover_bit_exactly_across_restart(self, tmp_path):
        video = _walker_video()
        with self._durable(video, tmp_path / "wal", tmp_path / "store") as service:
            service.execute(_count_query())
            snapshot = service.stats()["budgets"]
        with self._durable(video, tmp_path / "wal", tmp_path / "store") as reopened:
            assert reopened.stats()["budgets"] == snapshot
            assert reopened.ledger.query_charged("query-0")
            assert reopened.health()["durability"]["last_recovery"][
                "records_replayed"] > 0
            # Fresh queries number past every journaled seq: noise streams
            # never collide with the recovered query's.
            result = reopened.execute(_count_query("fresh"))
            assert result.metadata["query_seq"] == 1

    def test_crashed_query_resumes_byte_identically(self, tmp_path):
        from repro.core.faults import FaultKind, FaultPlan, FaultRule
        from repro.errors import SimulatedCrashError

        video = _walker_video()
        query = _count_query(bucket=120.0)
        with self._durable(video, tmp_path / "ref-wal",
                           tmp_path / "ref-store") as reference_service:
            reference = reference_service.execute(query)
            reference_budgets = reference_service.stats()["budgets"]
        # Between start and charge the WAL is silent, so the mid-stream kill
        # is keyed by chunks done, not by a WAL seq.
        plan = FaultPlan(name="kill", seed=1, rules=(
            FaultRule(site="service.crash_at_chunk", kind=FaultKind.CRASH,
                      after_seq=4),))
        crashed = self._durable(video, tmp_path / "wal", tmp_path / "store",
                                fault_injector=plan.injector())
        with pytest.raises(SimulatedCrashError):
            crashed.submit(query).result()
        assert crashed.stats()["cache"]["misses"] == 4  # died after chunk 4
        # Abandon the crashed instance (kill -9 stand-in: no close()) and
        # recover a fresh service over the same WAL directory.
        with self._durable(video, tmp_path / "wal", tmp_path / "store") as recovered:
            entry = recovered.journal.entry("query-0")
            assert entry is not None and not entry["finished"]
            assert not entry["charged"]  # the kill landed before the charge
            assert recovered.stats()["budgets"]["cam"]["charges"] == 0
            result = recovered.execute(query, resume_token="query-0")
            assert result.metadata["resumed"] is True
            assert result.metadata["query_seq"] == 0  # noise stream reused
            assert repr(result.series()) == repr(reference.series())
            assert repr(result.raw_series_unsafe()) == \
                repr(reference.raw_series_unsafe())
            assert recovered.stats()["budgets"] == reference_budgets
            assert recovered.stats()["cache"]["hits"] > 0  # warm chunks
        crashed.wal.close()  # the stand-in kill left it open

    def test_a_refused_recovery_closes_the_wal(self, tmp_path, monkeypatch):
        # A log holding a NaN budget is refused; the service must not keep
        # the log's file open on the way out.
        log = WriteAheadLog(tmp_path)
        log.append({"op": "register", "camera": "cam", "total_epsilon": float("nan")})
        log.close()
        opened = []

        class SpiedLog(WriteAheadLog):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr("repro.service.WriteAheadLog", SpiedLog)
        with pytest.raises(PolicyError, match="nan"):
            QueryService(wal_dir=tmp_path)
        assert [spied.status()["closed"] for spied in opened] == [True]

    @pytest.mark.parametrize("bad", [{"engine": "bogus"}, {"cache": "bogus:x"}])
    def test_a_refused_option_closes_the_wal(self, tmp_path, monkeypatch, bad):
        # The log opens first; a spec or option refused after it must not
        # leave the log's file open on the way out either.
        opened = []

        class SpiedLog(WriteAheadLog):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr("repro.service.WriteAheadLog", SpiedLog)
        with pytest.raises(ValueError):
            QueryService(wal_dir=tmp_path, **bad)
        assert [spied.status()["closed"] for spied in opened] == [True]

    def test_close_without_waiting_cancels_the_queued_queries(self, tmp_path):
        # One slot, held by a gated query; three more wait behind it.  A
        # close that does not wait cancels those three rather than running
        # them against the closed log, and their journal entries resume.
        gate = _GateExecutable()
        video = _walker_video()
        service = self._durable(video, tmp_path / "wal", tmp_path / "store",
                                max_concurrent_queries=1)
        service.register_executable("gate.py", gate)
        try:
            running = service.submit(_gate_query())
            assert gate.started.wait(5.0)
            queued = [service.submit(_gate_query(f"queued-{i}")) for i in range(3)]
            # A future cancelled by its caller settles as cancelled, too.
            assert queued[2].cancel()
            assert service.stats()["queries"]["cancelled"] == 1
            assert service.health()["queries"]["active"] == 3
            service.close(wait=False)
            assert all(future.cancelled() for future in queued)
            queries = service.stats()["queries"]
            assert queries["cancelled"] == 3 and queries["active"] == 1
        finally:
            gate.release.set()  # the abandoned query runs on against the closed log
        assert isinstance(running.exception(timeout=10.0), Exception)
        assert service.stats()["queries"]["active"] == 0
        with self._durable(video, tmp_path / "wal", tmp_path / "store") as reopened:
            reopened.register_executable("gate.py", gate)
            for seq in range(4):
                entry = reopened.journal.entry(f"query-{seq}")
                assert not entry["finished"] and not entry["charged"]
            result = reopened.execute(_gate_query("queued-1"),
                                      resume_token="query-2")
            assert result.metadata["resumed"] is True
            assert result.metadata["query_seq"] == 2

    def test_resume_with_a_different_query_is_rejected(self, tmp_path):
        # The analyst is the adversary: once a token's charge landed, a
        # *different* query resubmitted under it would execute with zero
        # budget charge on the original noise stream.  The journaled
        # fingerprint must reject it — across a restart too.
        from repro.errors import ResumeMismatchError

        video = _walker_video()
        with self._durable(video, tmp_path / "wal", tmp_path / "store") as service:
            service.execute(_count_query())
        with self._durable(video, tmp_path / "wal", tmp_path / "store") as reopened:
            budgets = reopened.stats()["budgets"]
            with pytest.raises(ResumeMismatchError):
                reopened.submit(_count_query(epsilon=0.25),
                                resume_token="query-0")
            # Same query, different release-affecting options: also rejected.
            with pytest.raises(ResumeMismatchError):
                reopened.submit(_count_query(), resume_token="query-0",
                                default_epsilon=0.5)
            assert reopened.stats()["budgets"] == budgets  # nothing charged
            # The rejection left no phantom admission behind.
            assert reopened.health()["queries"]["active"] == 0
            # The genuine query still resumes.
            result = reopened.execute(_count_query(), resume_token="query-0")
            assert result.metadata["resumed"] is True

    def test_concurrent_resume_of_one_token_is_rejected(self, tmp_path):
        # Two in-flight submissions for one token would share a query seq
        # (one noise stream) and race on one idempotent charge key.
        from repro.errors import ResumeConflictError

        gate = _GateExecutable()
        video = _walker_video()
        with self._durable(video, tmp_path / "wal", tmp_path / "store",
                           max_concurrent_queries=2) as service:
            service.register_executable("gate.py", gate)
            running = service.submit(_gate_query())
            assert gate.started.wait(5.0)
            with pytest.raises(ResumeConflictError):
                service.submit(_gate_query(), resume_token="query-0")
            gate.release.set()
            running.result()
            # Once the first execution finished, the token is free again.
            result = service.execute(_gate_query(), resume_token="query-0")
            assert result.metadata["resumed"] is True
            assert service.health()["queries"]["active"] == 0

    def test_failed_journal_start_rolls_back_admission(self, tmp_path):
        # A WAL failure between admission accounting and enqueue must not
        # strand `active`: before the rollback existed, every such failure
        # inflated the counter until load-shedding rejected everything.
        # Nor may it leave a journal entry behind: the entry used to be
        # inserted before its record was appended, so the retry under the
        # same token took the resume branch, wrote no start record, and after
        # a restart the charged token came back with query_seq -1 — the next
        # fresh query reused its noise stream.
        from repro.core.faults import FaultKind, FaultPlan, FaultRule

        video = _walker_video()
        plan = FaultPlan(name="start-io", seed=1, rules=(
            FaultRule(site="wal.append", kind=FaultKind.IO_ERROR, at=(1,),
                      max_fires=1),))
        with self._durable(video, tmp_path / "wal", tmp_path / "store",
                           fault_injector=plan.injector()) as service:
            with pytest.raises(OSError):
                service.submit(_count_query(), resume_token="tok")
            health = service.health()
            assert health["queries"]["active"] == 0
            assert service.stats()["queries"]["submitted"] == 0
            assert service.journal.entry("tok") is None
            # The service still serves queries after the rollback, and the
            # retry is a fresh submission: start, charge, finish.
            appends = service.wal.status()["appends"]
            result = service.execute(_count_query(), resume_token="tok")
            assert result.metadata["resumed"] is False
            assert service.wal.status()["appends"] == appends + 3
            query_seq = result.metadata["query_seq"]
        with self._durable(video, tmp_path / "wal", tmp_path / "store") as reopened:
            assert reopened.journal.entry("tok")["query_seq"] == query_seq
            assert reopened.journal.next_query_seq() == query_seq + 1
            fresh = reopened.execute(_count_query("fresh"))
            assert fresh.metadata["query_seq"] == query_seq + 1

    @staticmethod
    def _wal_cost(service, run) -> tuple[int, int]:
        """(appends, fsyncs) the WAL counted while ``run()`` executed."""
        before = service.wal.status()
        run()
        after = service.wal.status()
        return (after["appends"] - before["appends"],
                after["fsyncs"] - before["fsyncs"])

    def test_fsync_budget_per_query_outcome(self, tmp_path):
        # The rule of core/durability.py, "Fsync discipline", as counts: the
        # charge is the query path's only synced append, and a release that
        # wrote no charge pays one fsync at the barrier.
        video = _walker_video()
        cancelled = CancellationToken()
        cancelled.cancel()

        def denied():
            with pytest.raises(BudgetExceededError):
                service.execute(_count_query(epsilon=500.0))

        def cancelled_before_the_charge():
            with pytest.raises(QueryCancelledError):
                service.execute(_count_query(), resume_token="late",
                                cancel=cancelled)

        with self._durable(video, tmp_path / "wal", tmp_path / "store") as service:
            cost = lambda run: self._wal_cost(service, run)
            # admitted: start, charge (synced), finish
            assert cost(lambda: service.execute(_count_query())) == (3, 1)
            # denied: start only — nothing released, nothing owed
            assert cost(denied) == (1, 0)
            # uncharged release: start, finish, one fsync at the barrier
            assert cost(lambda: service.execute(
                _count_query(), charge_budget=False)) == (2, 1)
            # resume of a charged token: finish only
            assert cost(lambda: service.execute(
                _count_query(), resume_token="query-0")) == (1, 0)
            assert cost(cancelled_before_the_charge) == (1, 0)
            # resume of a started-but-uncharged token: charge, finish
            assert cost(lambda: service.execute(
                _count_query(), resume_token="late")) == (2, 1)
        with self._durable(video, tmp_path / "wal", tmp_path / "store") as reopened:
            # The same two resumes after a restart (the open fsynced what it
            # read, so a recovered start owes nothing).
            cost = lambda run: self._wal_cost(reopened, run)
            assert cost(lambda: reopened.execute(
                _count_query(), resume_token="late")) == (1, 0)
            assert cost(lambda: reopened.execute(
                _count_query(), resume_token="query-2",
                charge_budget=False)) == (1, 0)

    def test_slow_disk_is_paid_once_per_admitted_query(self, tmp_path):
        from repro.core.faults import FaultKind, FaultPlan, FaultRule

        video = _walker_video()
        plan = FaultPlan(name="slow-disk", seed=1, rules=(
            FaultRule(site="wal.fsync", kind=FaultKind.DELAY, probability=1.0,
                      delay=0.001),))
        injector = plan.injector()
        with self._durable(video, tmp_path / "wal", tmp_path / "store",
                           fault_injector=injector) as service:
            assert len(injector.log()) == 1  # the camera registration
            service.execute(_count_query())
            assert len(injector.log()) == 2
            with pytest.raises(BudgetExceededError):
                service.execute(_count_query(epsilon=500.0))
            assert len(injector.log()) == 2
            assert all("wal.fsync" in line for line in injector.log())

    def test_failed_charge_fsync_charges_and_releases_nothing(self, tmp_path):
        from repro.core.durability import decode_records
        from repro.core.faults import FaultKind, FaultPlan, FaultRule

        video = _walker_video()
        plan = FaultPlan(name="charge-sync", seed=1, rules=(
            # fsync #0 is the camera registration, #1 the first charge.
            FaultRule(site="wal.fsync", kind=FaultKind.IO_ERROR, at=(1,),
                      max_fires=1),))
        with self._durable(video, tmp_path / "wal", tmp_path / "store",
                           fault_injector=plan.injector()) as service:
            synced = service.wal.status()["synced_seq"]
            with pytest.raises(OSError):
                service.execute(_count_query())
            status = service.wal.status()
            assert status["synced_seq"] == synced
            assert service.stats()["budgets"]["cam"]["charges"] == 0
            assert not service.ledger.query_charged("query-0")
            assert service.stats()["queries"]["failed"] == 1
            records, _ = decode_records(
                (tmp_path / "wal" / "wal.log").read_bytes())
            assert [r["op"] for r in records] == ["register", "query_start"]
            # The failed charge's seq is burned; the next query admits under
            # the one after it.
            service.execute(_count_query("next"))
            assert service.ledger.last_charge_seq == status["last_seq"] + 2
            assert service.wal.status()["synced_seq"] \
                == service.ledger.last_charge_seq
            assert service.stats()["budgets"]["cam"]["charges"] == 1

    def test_resume_token_requires_a_durable_service(self):
        video = _walker_video()
        with QueryService(seed=5) as service:
            service.register_camera("cam", video,
                                    policy=PrivacyPolicy(rho=30.0, k_segments=1),
                                    epsilon_budget=100.0)
            with pytest.raises(ValueError):
                service.submit(_count_query(), resume_token="query-0")

    @pytest.mark.parametrize("durable", [False, True])
    def test_both_doors_refuse_a_callers_query_id(self, tmp_path, durable):
        # The query_id keys a charge: a repeated one would be admitted free,
        # and its release would carry fresh noise on a charge already made.
        video = _walker_video()
        wal_dir = tmp_path / "wal" if durable else None
        with _service(video, epsilon_budget=10.0, wal_dir=wal_dir) as service:
            for door in (service.execute, service.submit):
                with pytest.raises(TypeError, match="query_id"):
                    door(_count_query(), query_id="same")
            queries = service.stats()["queries"]
            assert (queries["submitted"], queries["active"]) == (0, 0)
            assert service.stats()["budgets"]["cam"]["charges"] == 0
            service.execute(_count_query())
            assert service.stats()["budgets"]["cam"]["charges"] == 1


class _ThreadRecorder:
    """Records the thread each chunk runs on, and how many chunks a gate
    had passed by then."""

    name = "recorder"

    def __init__(self, gate=None) -> None:
        self.gate = gate
        self.calls: list[tuple[int, int | None]] = []

    def fresh_instance(self):
        return self

    def config_fingerprint(self):
        return ("recorder",)

    def process(self, chunk, context):
        passed = self.gate.passed if self.gate is not None else None
        self.calls.append((threading.get_ident(), passed))
        return []


class _CountingGate(_GateExecutable):
    def __init__(self) -> None:
        super().__init__()
        self.passed = 0

    def process(self, chunk, context):
        rows = super().process(chunk, context)
        self.passed += 1
        return rows


def _recorder_query(name: str = "recorded", executable: str = "recorder.py"):
    return (QueryBuilder(name)
            .split("cam", begin=0, end=120.0, chunk_duration=60.0, into="chunks")
            .process("chunks", executable=executable, max_rows=5,
                     schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0)], into="t")
            .select_count(table="t", epsilon=1.0)
            .build())


class _Overlap:
    """Counts chunks in flight at once.  On the serial engine a query runs
    its chunks one at a time, so this never exceeds the queries running."""

    name = "overlap"

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.inside = 0
        self.peak = 0

    def fresh_instance(self):
        return self

    def config_fingerprint(self):
        return ("overlap",)

    def process(self, chunk, context):
        with self.lock:
            self.inside += 1
            self.peak = max(self.peak, self.inside)
        time.sleep(0.0005)
        with self.lock:
            self.inside -= 1
        return []


class TestBlockingExecute:
    """``execute`` runs on the caller's thread, inside the slots ``submit``'s
    pool tasks take, and keeps ``submit``'s admission and lifecycle."""

    def test_execute_runs_on_the_callers_thread(self, monkeypatch):
        recorder = _ThreadRecorder()
        with _service(_walker_video()) as service:
            service.register_executable("recorder.py", recorder)
            pool_submits = []
            submit = service._pool.submit
            monkeypatch.setattr(service._pool, "submit", lambda *args, **kwargs:
                                pool_submits.append(args) or submit(*args, **kwargs))
            result = service.execute(_recorder_query())
            assert pool_submits == []
            assert {ident for ident, _ in recorder.calls} == {threading.get_ident()}
            assert result.metadata["query_seq"] == 0
            assert 0.0 <= result.metadata["timing"]["queue_s"]
            # The other door still hands the query to the pool.
            recorder.calls.clear()
            service.submit(_recorder_query()).result()
            assert len(pool_submits) == 1
            assert recorder.calls
            assert threading.get_ident() not in {ident for ident, _ in recorder.calls}

    def test_one_slot_bound_covers_both_doors(self):
        gate = _CountingGate()
        recorder = _ThreadRecorder(gate)
        with _service(_walker_video(), max_concurrent_queries=1) as service:
            service.register_executable("gate.py", gate)
            service.register_executable("recorder.py", recorder)
            held = service.submit(_gate_query())
            results = []
            caller = threading.Thread(
                target=lambda: results.append(service.execute(_recorder_query())))
            try:
                assert gate.started.wait(5.0)  # the one slot is held
                caller.start()
                caller.join(0.3)
                assert caller.is_alive() and recorder.calls == []
                assert service.health()["queries"] == {
                    "active": 2, "running": 1, "queued": 1, "capacity": 1,
                    "queue_limit": None}
            finally:
                gate.release.set()
            caller.join(10.0)
            held.result()
            # The caller's query began only after every gated chunk ran.
            assert recorder.calls and all(passed == 10 for _, passed in recorder.calls)
            assert len(results) == 1

    def test_callers_and_pool_tasks_share_the_bound_under_stress(self):
        # More threads than cores, half executing and half submitting, with
        # a short switch interval: the slot bound and the counters must hold.
        overlap = _Overlap()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _service(_walker_video(), max_concurrent_queries=2) as service:
                service.register_executable("overlap.py", overlap)
                query = _recorder_query("overlap", executable="overlap.py")
                futures, errors = [], []

                def executor() -> None:
                    try:
                        for _ in range(3):
                            service.execute(query, charge_budget=False)
                    except Exception as exc:  # reported by the assertion below
                        errors.append(exc)

                def submitter() -> None:
                    for _ in range(3):
                        futures.append(service.submit(query, charge_budget=False))

                threads = [threading.Thread(target=target)
                           for target in (executor, submitter) * 3]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30.0)
                assert not any(thread.is_alive() for thread in threads)
                assert all(future.result(timeout=30.0) for future in futures)
                assert errors == []
                queries = service.stats()["queries"]
                assert queries["submitted"] == queries["completed"] == 18
                assert queries["active"] == 0
        finally:
            sys.setswitchinterval(switch)
        assert 1 <= overlap.peak <= 2

    def test_close_waits_for_a_query_on_a_callers_thread(self):
        gate = _GateExecutable()
        service = _service(_walker_video())
        service.register_executable("gate.py", gate)
        caller = threading.Thread(target=lambda: service.execute(_gate_query()))
        closer = threading.Thread(target=service.close)
        caller.start()
        try:
            assert gate.started.wait(5.0)
            closer.start()
            closer.join(0.3)
            assert closer.is_alive()  # the caller-run query still holds its slot
            with pytest.raises(RuntimeError):
                service.execute(_count_query())  # but nothing new is admitted
        finally:
            gate.release.set()
        closer.join(10.0)
        assert not closer.is_alive()
        queries = service.stats()["queries"]
        assert queries["completed"] == 1 and queries["active"] == 0
        caller.join(10.0)
        assert not caller.is_alive()

    def test_an_interrupt_closes_the_service_and_recovery_keeps_the_charge(
            self, tmp_path, monkeypatch):
        # An interrupt between the charge's WAL append and its apply leaves
        # the in-memory ledger behind the log: the service must close, and
        # only reopening over the WAL (recovery) may serve again.
        apply = ServiceLedger._apply
        interrupts = []

        def interrupted_once(ledger, record):
            if record["op"] == "charge" and not interrupts:
                interrupts.append(record)
                raise KeyboardInterrupt
            apply(ledger, record)

        monkeypatch.setattr(ServiceLedger, "_apply", interrupted_once)
        video = _walker_video()
        service = _service(video, wal_dir=tmp_path / "wal")
        with pytest.raises(KeyboardInterrupt):
            service.execute(_count_query())
        assert service.health()["status"] == "closed"
        assert service.stats()["budgets"]["cam"]["charges"] == 0  # never applied
        assert service.wal.status()["closed"] is True
        with pytest.raises(RuntimeError):
            service.execute(_count_query())
        with _service(video, wal_dir=tmp_path / "wal") as reopened:
            assert reopened.ledger.query_charged("query-0")
            assert reopened.stats()["budgets"]["cam"]["charges"] == 1
        assert len(interrupts) == 1

    def test_deadline_cancel_and_resume_keep_their_behaviour(self, tmp_path):
        video = _walker_video()
        with _service(video, epsilon_budget=2.0, wal_dir=tmp_path / "wal") as service:
            with pytest.raises(QueryTimeoutError):
                service.execute(_count_query(), timeout=1e-6)
            cancelled = CancellationToken()
            cancelled.cancel()
            with pytest.raises(QueryCancelledError):
                service.execute(_count_query(), cancel=cancelled)
            queries = service.stats()["queries"]
            assert queries["timed_out"] == 1 and queries["cancelled"] == 1
            assert service.stats()["budgets"]["cam"]["charges"] == 0
            first = service.execute(_count_query(), resume_token="tok")
            assert service.remaining_budget("cam", TimeInterval(0, 600)) \
                == pytest.approx(1.0)
            again = service.execute(_count_query(), resume_token="tok")
            assert again.metadata["resumed"] is True
            assert again.metadata["query_seq"] == first.metadata["query_seq"]
            assert repr(again.series()) == repr(first.series())
            assert service.remaining_budget("cam", TimeInterval(0, 600)) \
                == pytest.approx(1.0)  # a resume never charges twice
            assert service.health()["queries"]["active"] == 0
