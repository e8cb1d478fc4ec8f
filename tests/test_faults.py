"""Tests for the fault-injection seam and the self-healing primitives.

The contract under test: fault decisions are pure functions of the seeded
:class:`FaultPlan` (same plan + same seed → same fault sequence), the
cancellation token behaves per its state machine under an injectable
clock, and the system
degrades the way the failure model promises — store faults become counted
misses, an engine lost mid-stream falls back to byte-identical serial
re-execution, a cancelled query never charges a ledger.
"""

import os
import time
import warnings

import pytest

from repro.core import PrividSystem, SerialEngine
from repro.core import faults
from repro.core.cache import DiskChunkStore, TieredChunkCache, create_cache, store_health
from repro.core.faults import (
    FaultKind,
    FaultPlan,
    FaultRule,
    FaultyTransport,
    faulty_transport_factory,
)
from repro.core.remote import ShardedEngine
from repro.core.resilience import CancellationToken
from repro.core.policy import PrivacyPolicy
from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    RemoteShardError,
)
from repro.query.builder import QueryBuilder
from repro.service import QueryService

from tests.conftest import make_crossing_object, make_simple_video


def _walker_video(num_walkers: int = 6, duration: float = 600.0):
    objects = [make_crossing_object(f"w{i}", start=20.0 + 80.0 * i, duration=35.0,
                                    x=450.0 + 40.0 * i)
               for i in range(num_walkers)]
    return make_simple_video(duration=duration, objects=objects)


def _count_query(name: str = "q", *, window: float = 600.0,
                 bucket: float = 600.0, epsilon: float = 1.0):
    return (QueryBuilder(name)
            .split("cam", begin=0, end=window, chunk_duration=60.0, into="chunks")
            .process("chunks", executable="count_entering_people.py", max_rows=5,
                     schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0)], into="t")
            .select_count(table="t", bucket_seconds=bucket, epsilon=epsilon)
            .build())


class _FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ------------------------------------------------------------------- plans


class TestFaultRule:
    def test_a_rule_needs_a_trigger(self):
        with pytest.raises(ValueError):
            FaultRule(site="store.get", kind=FaultKind.IO_ERROR)

    def test_probability_bounds_are_enforced(self):
        with pytest.raises(ValueError):
            FaultRule(site="x", kind=FaultKind.DELAY, probability=1.5)

    def test_after_seq_defaults_to_a_single_firing(self):
        # Every seq past the threshold matches, so the crash-at-seq schedule
        # must cap itself or the respawned shard dies on the retry forever.
        rule = FaultRule(site="x", kind=FaultKind.CRASH, after_seq=7)
        assert rule.max_fires == 1
        explicit = FaultRule(site="x", kind=FaultKind.CRASH, after_seq=7,
                             max_fires=3)
        assert explicit.max_fires == 3

    def test_negative_delay_and_zero_max_fires_are_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(site="x", kind=FaultKind.DELAY, at=(0,), delay=-1.0)
        with pytest.raises(ValueError):
            FaultRule(site="x", kind=FaultKind.DELAY, at=(0,), max_fires=0)


class TestFaultInjector:
    def test_at_indices_fire_per_site(self):
        plan = FaultPlan(rules=(FaultRule(site="a.task", kind=FaultKind.DELAY,
                                          at=(1, 3)),), seed=3)
        injector = plan.injector()
        hits = [injector.poll("a.task") is not None for _ in range(5)]
        assert hits == [False, True, False, True, False]
        # Site counters are independent: "b.task" starts from index 0.
        assert injector.poll("b.task") is None
        assert injector.op_count("a.task") == 5
        assert injector.op_count("b.task") == 1

    def test_site_patterns_glob(self):
        plan = FaultPlan(rules=(FaultRule(site="transport.*.task",
                                          kind=FaultKind.DELAY, at=(0,)),))
        injector = plan.injector()
        assert injector.poll("transport.worker3.task") is not None
        assert injector.poll("store.put") is None

    def test_probabilistic_decisions_replay_bit_identically(self):
        plan = FaultPlan(rules=(FaultRule(site="s.result", kind=FaultKind.DROP_FRAME,
                                          probability=0.4, max_fires=1000),),
                         seed=17)
        runs = []
        for _ in range(2):
            injector = plan.injector()
            runs.append([injector.poll("s.result") is not None
                         for _ in range(200)])
        assert runs[0] == runs[1]
        assert 20 < sum(runs[0]) < 160  # actually probabilistic, not 0% / 100%

    def test_seed_changes_the_fault_sequence(self):
        def decisions(seed):
            injector = FaultPlan(rules=(FaultRule(site="s", kind=FaultKind.DELAY,
                                                  probability=0.5,
                                                  max_fires=1000),),
                                 seed=seed).injector()
            return [injector.poll("s") is not None for _ in range(64)]

        assert decisions(1) != decisions(2)

    def test_token_keyed_decisions_are_order_independent(self):
        # The disk store passes entry keys as tokens: whether a given entry
        # faults must not depend on which order entries are touched in.
        plan = FaultPlan(rules=(FaultRule(site="store.get", kind=FaultKind.IO_ERROR,
                                          probability=0.5, max_fires=1000),),
                         seed=9)
        tokens = [f"entry-{i}" for i in range(40)]

        def faulted(order):
            injector = plan.injector()
            return {token for token in order
                    if injector.poll("store.get", token=token) is not None}

        assert faulted(tokens) == faulted(list(reversed(tokens)))

    def test_after_seq_fires_once_at_the_threshold(self):
        plan = FaultPlan(rules=(FaultRule(site="t.task", kind=FaultKind.CRASH,
                                          after_seq=5),))
        injector = plan.injector()
        assert injector.poll("t.task", seq=4) is None
        assert injector.poll("t.task", seq=6) is not None  # >= threshold
        assert injector.poll("t.task", seq=7) is None  # max_fires=1 spent
        assert [event.seq for event in injector.fired] == [6]

    def test_max_fires_caps_a_rule(self):
        plan = FaultPlan(rules=(FaultRule(site="s", kind=FaultKind.DELAY,
                                          probability=1.0, max_fires=2),))
        injector = plan.injector()
        fired = [injector.poll("s") is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_log_and_summary_report_firings(self):
        plan = FaultPlan(rules=(FaultRule(site="s", kind=FaultKind.IO_ERROR,
                                          at=(0, 1)),))
        injector = plan.injector()
        injector.poll("s")
        injector.poll("s", token="abcdef")
        assert injector.log() == ("s#0 io_error", "s#1 io_error token=abcdef")
        assert injector.summary() == {"s:io_error": 2}


#: What each kind does at a site that strikes it: DELAY and IO_ERROR are
#: carried out by the injector, every other kind comes back unchanged.
MEANINGS = {FaultKind.DELAY: "sleeps", FaultKind.IO_ERROR: "raises"}


class TestOneMeaningPerKind:
    @pytest.mark.parametrize("kind", list(FaultKind), ids=lambda kind: kind.value)
    def test_a_struck_kind_means_one_thing(self, kind, monkeypatch):
        slept = []
        monkeypatch.setattr(faults.time, "sleep", slept.append)
        injector = FaultPlan(rules=(FaultRule(site="test.site", kind=kind,
                                              at=(0,), delay=0.25),)).injector()
        meaning = MEANINGS.get(kind, "returned")
        sleeps = [0.25] if meaning == "sleeps" else []
        if meaning == "raises":
            with pytest.raises(OSError, match=r"at test\.site$"):
                injector.strike("test.site", seq=3)
        else:
            assert injector.strike("test.site", seq=3) is \
                (None if meaning == "sleeps" else kind)
        assert slept == sleeps
        assert injector.log() == (f"test.site#0 {kind.value} seq=3",)
        assert injector.strike("test.site") is None  # index 1: nothing fires
        assert slept == sleeps


# -------------------------------------------------------------- resilience


class TestCancellationToken:
    def test_deadline_raises_typed_timeout(self):
        clock = _FakeClock()
        token = CancellationToken.with_timeout(5.0, clock=clock)
        token.check()  # inside the deadline: a no-op
        clock.advance(4.5)
        assert not token.cancelled
        clock.advance(0.5)
        assert token.cancelled
        with pytest.raises(QueryTimeoutError):
            token.check()

    def test_manual_cancel_raises_plain_cancelled(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel("operator abort")
        with pytest.raises(QueryCancelledError, match="operator abort") as info:
            token.check()
        assert not isinstance(info.value, QueryTimeoutError)

    def test_earliest_deadline_wins(self):
        clock = _FakeClock()
        token = CancellationToken(clock=clock)
        token.set_timeout(10.0)
        token.set_timeout(2.0)
        token.set_timeout(30.0)  # looser than what is armed: ignored
        clock.advance(1.5)
        assert not token.cancelled
        clock.advance(0.5)
        assert token.cancelled
        with pytest.raises(ValueError):
            token.set_timeout(-1.0)


# -------------------------------------------------------------- transports


class _FakeTransport:
    """A scripted ShardTransport double for FaultyTransport unit tests: its
    one read returns every scripted frame, and the next reads EOF."""

    def __init__(self, frames=()):
        self.frames = list(frames)
        self.written = []
        self.killed = False
        self.description = "fake"
        self.process = None

    def fileno(self):
        return -1

    def read(self):
        frames, self.frames = self.frames, []
        return frames or None

    def write(self, message):
        self.written.append(message)
        return 10

    def is_alive(self):
        return not self.killed

    def kill(self):
        self.killed = True

    def close(self, timeout=5.0):
        self.killed = True


def _wrap(rules, frames=(), seed=0):
    injector = FaultPlan(rules=tuple(rules), seed=seed).injector()
    inner = _FakeTransport(frames)
    return FaultyTransport(inner, injector, "transport.t"), inner, injector


class TestFaultyTransport:
    def test_heartbeat_frames_never_touch_the_plan(self):
        # Pings/pongs fire on wall-clock silence; routing them through the
        # injector would make every site's op counters timing-dependent.
        transport, inner, injector = _wrap(
            [FaultRule(site="transport.*", kind=FaultKind.DROP_FRAME,
                       probability=1.0, max_fires=100)],
            frames=[{"type": "pong", "token": 1}])
        assert transport.read() == [{"type": "pong", "token": 1}]
        transport.write({"type": "ping", "token": 2})
        assert inner.written == [{"type": "ping", "token": 2}]
        assert injector.fired == []

    def test_dropped_result_frame_vanishes_but_connection_lives(self):
        transport, inner, _ = _wrap(
            [FaultRule(site="*.result", kind=FaultKind.DROP_FRAME, at=(0,))],
            frames=[{"type": "result", "seq": 0},
                    {"type": "result", "seq": 1}])
        # Frame seq 0 is eaten in transit; the read returns the next one.
        assert transport.read() == [{"type": "result", "seq": 1}]
        assert not inner.killed

    def test_torn_result_frame_reads_as_connection_death(self):
        transport, inner, _ = _wrap(
            [FaultRule(site="*.result", kind=FaultKind.TORN_FRAME, at=(0,))],
            frames=[{"type": "result", "seq": 4}])
        assert transport.read() is None
        assert inner.killed

    def test_frames_before_a_tear_are_delivered_then_eof(self):
        transport, inner, _ = _wrap(
            [FaultRule(site="*.result", kind=FaultKind.TORN_FRAME, at=(1,))],
            frames=[{"type": "result", "seq": 4}, {"type": "result", "seq": 5},
                    {"type": "result", "seq": 6}])
        assert transport.read() == [{"type": "result", "seq": 4}]
        assert inner.killed and transport.read() is None

    def test_delayed_result_frame_is_handed_on_without_sleeping(self):
        # The coordinator's core holds the frame back on a deadline; a
        # sleep here would stall the one wait that reads every shard.
        transport, inner, _ = _wrap(
            [FaultRule(site="*.result", kind=FaultKind.DELAY, at=(0,), delay=60.0)],
            frames=[{"type": "result", "seq": 2}, {"type": "pong", "token": 1}])
        started = time.monotonic()
        assert transport.read() == [
            {"type": "delayed", "delay": 60.0, "frame": {"type": "result", "seq": 2}},
            {"type": "pong", "token": 1}]
        assert time.monotonic() - started < 5.0 and not inner.killed

    def test_task_write_io_error_raises(self):
        transport, inner, _ = _wrap(
            [FaultRule(site="*.task", kind=FaultKind.IO_ERROR, at=(0,))])
        with pytest.raises(OSError):
            transport.write({"type": "task", "seq": 0})
        assert inner.written == []

    def test_dropped_task_write_reports_success_without_sending(self):
        transport, inner, _ = _wrap(
            [FaultRule(site="*.task", kind=FaultKind.DROP_FRAME, at=(0,))])
        sent = transport.write({"type": "task", "seq": 0, "chunks": []})
        assert sent > 4  # plausible wire size: the caller suspects nothing
        assert inner.written == []  # ... but nothing reached the far end

    def test_crash_kills_the_far_end_after_accepting_the_task(self):
        transport, inner, _ = _wrap(
            [FaultRule(site="*.task", kind=FaultKind.CRASH, at=(1,))])
        transport.write({"type": "task", "seq": 0})
        assert not inner.killed
        transport.write({"type": "task", "seq": 1})
        assert inner.killed
        assert [m["seq"] for m in inner.written] == [0, 1]

    def test_factory_connect_refusal(self):
        injector = FaultPlan(rules=(FaultRule(site="*.connect",
                                              kind=FaultKind.CONNECT_REFUSED,
                                              at=(0,)),)).injector()
        build = faulty_transport_factory(_FakeTransport, injector, "transport.a")
        with pytest.raises(ConnectionRefusedError):
            build()
        wrapped = build()  # the at-index is spent: the next connect succeeds
        assert isinstance(wrapped, FaultyTransport)
        assert wrapped.description == "faulty(fake)"

    def test_connect_io_error_leaves_the_slot_unreachable(self):
        # Like a refusal: the factory raises OSError before building anything.
        built = []
        injector = FaultPlan(rules=(FaultRule(site="*.connect", kind=FaultKind.IO_ERROR,
                                              at=(0,)),)).injector()
        build = faulty_transport_factory(lambda: built.append(1) or _FakeTransport(),
                                         injector, "transport.a")
        with pytest.raises(OSError, match=r"at transport\.a\.connect$"):
            build()
        assert built == []
        assert isinstance(build(), FaultyTransport) and built == [1]

    def test_result_read_io_error_raises(self):
        # The shell reads a failed read as the shard's EOF.
        transport, inner, _ = _wrap(
            [FaultRule(site="*.result", kind=FaultKind.IO_ERROR, at=(0,))],
            frames=[{"type": "result", "seq": 4}])
        with pytest.raises(OSError, match=r"at transport\.t\.result$"):
            transport.read()


# ------------------------------------------------------------- disk store


class TestDiskStoreFaults:
    def test_injected_write_error_is_a_counted_non_fatal_miss(self, tmp_path):
        plan = FaultPlan(rules=(FaultRule(site="store.put", kind=FaultKind.IO_ERROR,
                                          at=(0,)),))
        store = DiskChunkStore(tmp_path)
        store.set_fault_injector(plan.injector())
        store.put("a" * 40, [{"kind": "person"}])  # swallowed, counted
        assert store.write_errors == 1
        assert store.get("a" * 40) is None  # the entry simply stayed cold
        store.put("a" * 40, [{"kind": "person"}])  # next attempt lands
        assert store.get("a" * 40) == [{"kind": "person"}]
        assert store.writes == 1
        assert list(tmp_path.glob("**/*.tmp")) == []  # no stranded temp files

    def test_injected_read_error_degrades_to_a_miss(self, tmp_path):
        plan = FaultPlan(rules=(FaultRule(site="store.get", kind=FaultKind.IO_ERROR,
                                          at=(0,)),))
        store = DiskChunkStore(tmp_path)
        store.set_fault_injector(plan.injector())
        store.put("b" * 40, [{"kind": "person"}])
        assert store.get("b" * 40) is None
        assert store.read_errors == 1
        assert store.stats.misses == 1
        # A failed read says nothing about the entry: it stays, and serves.
        assert len(store) == 1
        assert store.get("b" * 40) == [{"kind": "person"}]
        assert (store.read_errors, store.stats.hits) == (1, 1)

    def test_corrupt_entry_reads_as_miss_and_self_heals(self, tmp_path):
        plan = FaultPlan(rules=(FaultRule(site="store.get", kind=FaultKind.CORRUPT,
                                          at=(0,)),))
        store = DiskChunkStore(tmp_path)
        store.set_fault_injector(plan.injector())
        store.put("c" * 40, [{"kind": "person"}])
        assert store.get("c" * 40) is None  # scribbled entry: miss + removal
        assert store.read_errors == 1
        assert len(store) == 0  # the slot was dropped so it can be rewritten
        store.put("c" * 40, [{"kind": "person"}])
        assert store.get("c" * 40) == [{"kind": "person"}]

    def test_corrupting_one_linked_empty_entry_heals_that_name_only(self, tmp_path):
        # Empty entries share one file; the fault renames its scribble over
        # one name instead of writing the shared file in place.
        keys = [f"{index:02x}" * 20 for index in range(5)]
        plan = FaultPlan(rules=(FaultRule(site="store.get", kind=FaultKind.CORRUPT,
                                          at=(0,)),))
        store = DiskChunkStore(tmp_path)
        store.set_fault_injector(plan.injector())
        for key in keys:
            store.put(key, [])
        source = tmp_path / f"{keys[0]}.json"
        assert source.stat().st_nlink == 5
        assert store.get(keys[2]) is None
        assert store.read_errors == 1 and not (tmp_path / f"{keys[2]}.json").exists()
        assert source.stat().st_nlink == 4
        assert [store.get(key) for key in keys if key != keys[2]] == [[]] * 4
        assert store.stats.hits == 4 and store.read_errors == 1
        assert list(tmp_path.glob("**/*.tmp")) == []

    def test_stale_temp_files_are_swept_on_open(self, tmp_path):
        first = DiskChunkStore(tmp_path)
        first.put("d" * 40, [{"kind": "person"}])
        # Strand temp files the way an interrupted writer would, beside the
        # entries.  Backdate them past the age gate — only temps no live
        # writer can own are eligible.
        old = time.time() - DiskChunkStore._STALE_TEMP_AGE - 1.0
        for name in ("tmp123.tmp", f"{'d' * 40}.json.feed-0.tmp"):
            stranded = tmp_path / name
            stranded.write_text("partial")
            os.utime(stranded, (old, old))
        fresh = tmp_path / "tmp789.tmp"  # a concurrent writer's file
        fresh.write_text("partial")
        reopened = DiskChunkStore(tmp_path)
        assert reopened.stale_temps_removed == 2
        assert list(tmp_path.glob("**/*.tmp")) == [fresh]  # in-flight kept
        assert reopened.get("d" * 40) == [{"kind": "person"}]  # entries kept

    def test_health_reports_the_disk_tier(self, tmp_path):
        store = DiskChunkStore(tmp_path)
        health = store.health()
        assert health["tier"] == "disk"
        assert health["writable"] is True
        assert store_health(store)["enabled"] is True
        assert store_health(None) == {"enabled": False}

    @pytest.mark.parametrize("tier", ["memory", "disk", "tiered"])
    def test_store_health_is_each_store_kinds_own_health(self, tmp_path, tier):
        store = DiskChunkStore(tmp_path) if tier == "disk" \
            else create_cache(tier if tier == "memory" else f"{tier}:{tmp_path}")
        assert store_health(store) == {"enabled": True, **store.health()}
        assert store_health(store)["tier"] == tier


# -------------------------------------------------------- serial fallback


class _DyingEngine:
    """Streams a few outcomes, then dies like a lost shard pool."""

    name = "dying"

    def __init__(self, yield_before_death: int = 3) -> None:
        self.yield_before_death = yield_before_death
        self.streams = 0

    def imap_chunks(self, runner, chunks, context, *, count_hint=None):
        self.streams += 1
        inner = SerialEngine().imap_chunks(runner, chunks, context,
                                           count_hint=count_hint)
        for index, outcome in enumerate(inner):
            if index >= self.yield_before_death:
                raise RemoteShardError("all shards lost (injected)")
            yield outcome


def _register(deployment, video):
    deployment.register_camera("cam", video,
                               policy=PrivacyPolicy(rho=30.0, k_segments=1),
                               epsilon_budget=100.0)
    return deployment


def _one_engine_warning(run):
    """``run()``'s value; it must warn exactly once, of the serial fallback."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = run()
    assert [(warning.category, "re-executing the remaining" in str(warning.message))
            for warning in caught] == [(RuntimeWarning, True)]
    return value


class TestSerialFallback:
    """Engine loss never fails a query: there is one path, no option."""

    def test_all_shards_lost_falls_back_byte_identically(self):
        video = _walker_video()
        query = _count_query(bucket=120.0)
        reference = _register(PrividSystem(seed=5), video).execute(query)
        engine = _DyingEngine(yield_before_death=3)
        system = _register(PrividSystem(seed=5, engine=engine), video)
        result = _one_engine_warning(lambda: system.execute(query))
        assert engine.streams == 1  # it really ran (and really died)
        assert repr(result.raw_series_unsafe()) \
            == repr(reference.raw_series_unsafe())
        assert repr(result.series()) == repr(reference.series())

    def test_a_service_on_a_dying_engine_completes_on_serial(self):
        video = _walker_video()
        query = _count_query(bucket=120.0)
        with _register(QueryService(seed=5), video) as serial:
            reference = serial.execute(query)
        engine = _DyingEngine(yield_before_death=3)
        with _register(QueryService(seed=5, engine=engine), video) as service:
            result = _one_engine_warning(lambda: service.execute(query))
            assert service.stats()["queries"]["completed"] == 1
            assert service.stats()["queries"]["failed"] == 0
        assert engine.streams == 1
        assert repr(result.raw_series_unsafe()) \
            == repr(reference.raw_series_unsafe())
        assert repr(result.series()) == repr(reference.series())


class TestServicePlanLifetime:
    """A service's fault plan is installed on the shared engine and store at
    construction and leaves them at ``close``."""

    def test_close_takes_the_plan_off_a_caller_owned_engine_and_store(self, tmp_path):
        injector = FaultPlan(rules=()).injector()
        engine = ShardedEngine(num_shards=1)
        store = TieredChunkCache(disk=DiskChunkStore(tmp_path))
        try:
            with _register(QueryService(engine=engine, cache=store,
                                        fault_injector=injector), _walker_video()) as service:
                assert engine.fault_injector is injector
                assert store.fault_injector is injector
                service.execute(_count_query())  # a stream opens a shard under the plan
                assert [type(shard.transport) for shard in engine._live_shards()] \
                    == [faults.FaultyTransport]
            assert engine.fault_injector is None
            assert store.fault_injector is None
            # The shard the plan opened lives on for the caller, without it.
            assert len(engine._live_shards()) == 1
            assert not any(isinstance(shard.transport, faults.FaultyTransport)
                           for shard in engine._live_shards())
        finally:
            engine.shutdown()

    def test_a_plan_the_caller_installed_since_stays(self, tmp_path):
        injector, other = FaultPlan(rules=()).injector(), FaultPlan(rules=()).injector()
        store = TieredChunkCache(disk=DiskChunkStore(tmp_path))
        service = QueryService(cache=store, fault_injector=injector)
        store.set_fault_injector(other)
        service.close()
        assert store.fault_injector is other


# ----------------------------------------------------- executor + deadlines


class TestExecutorCancellation:
    def test_timed_out_query_raises_before_charging(self):
        video = _walker_video()
        system = PrividSystem(seed=5)
        system.register_camera("cam", video,
                               policy=PrivacyPolicy(rho=30.0, k_segments=1),
                               epsilon_budget=2.0)
        clock = _FakeClock()
        token = CancellationToken.with_timeout(5.0, clock=clock)
        clock.advance(6.0)  # the deadline passed before execution started
        with pytest.raises(QueryTimeoutError):
            system.execute(_count_query(), cancel=token)
        # No charge leak: the full budget is still there and spendable.
        interval = system.cameras["cam"].ledger
        assert interval.max_consumed() == 0.0
        system.execute(_count_query())  # the clean rerun admits normally
        assert interval.max_consumed() == pytest.approx(1.0)

    def test_manual_cancel_raises_cancelled(self):
        video = _walker_video()
        system = PrividSystem(seed=5)
        system.register_camera("cam", video,
                               policy=PrivacyPolicy(rho=30.0, k_segments=1),
                               epsilon_budget=2.0)
        token = CancellationToken()
        token.cancel()
        with pytest.raises(QueryCancelledError):
            system.execute(_count_query(), cancel=token)
        assert system.cameras["cam"].ledger.max_consumed() == 0.0
