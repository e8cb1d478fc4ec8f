"""One workload-round ("lap"): set-up, measured phase, counters, correctness gate.

A lap runs in its own fresh process (see ``cli._spawn_lap``) so set-up time,
peak RSS and children's CPU belong to one workload alone.  Work is
fixed-count: the N-th query always sees the same history.  Only public entry
points of ``repro`` are driven; the system under test receives query text
(parsed and validated inside the timed path) and, for the open loop, the
instants at which the generator sends.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import resource
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import PrividSystem, parse_query, validate_query
from repro.core import ChunkResultCache, TieredChunkCache, create_engine
from repro.errors import BudgetExceededError
from repro.evaluation.runner import register_scenario_camera, scenario_policy_map
from repro.scene.scenarios import build_scenario
from repro.service import QueryService

from benchmarks.system import inputs as gen
from benchmarks.system import spec, stats
from benchmarks.system.inputs import QueryInput
from benchmarks.system.tracing import Recorder, self_time_shares, span_metrics, traced

#: Budget no workload can exhaust (the byte-identical-replay condition).
AMPLE_EPSILON = 1e6
#: One query in this many is re-executed on a fresh serial, store-less system.
GATE_SAMPLE = 16
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


@dataclass
class Record:
    """One query's fate as the analyst saw it."""

    outcome: str                       # completed | denied | failed
    latency_ms: float
    releases: list[tuple] = field(default_factory=list)  # (key, noisy, raw)
    scale_sum: float = 0.0
    chunks: int = 0
    charges: dict[str, int] = field(default_factory=dict)
    timing: dict[str, float | None] | None = None
    error: str | None = None


class Calibrator:
    """The machine-speed reference: a fixed kernel timed in ~1 ms slices.

    The sandbox's speed moves by tens of percent over minutes and dips for
    seconds at a time (neighbours on the host), which would drown a 10% bound.
    A kernel that shares nothing with ``repro`` (small numpy ops, sha256, dict
    and JSON work: the interpreter mix of the chunk and store paths; its time
    tracked the cold and warm paths with correlation 0.94-0.98 over 3-12 s
    windows) is timed before, after and, in closed loops, between the
    measured queries.  ``speed`` is its slice time over the reference box's;
    the end-to-end times are divided by it, so they read "at reference
    speed".  In the open loop the slices fall into the generator's idle gaps;
    each holds the GIL for about a millisecond, 2% of the time.
    """

    #: ``bench.calib_ms`` is the time of this many slices (~100 ms).
    SLICES_PER_CALIB = 50
    #: ``bench.calib_ms`` of the reference sandbox at its usual speed.
    REFERENCE_MS = 100.0
    #: Closed loops run one slice at most this often (about 5% of the phase).
    GAP_S = 0.04

    def __init__(self) -> None:
        self._arrays = [np.arange(30, dtype=np.float64) + index for index in range(64)]
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.slices = 0
        self._last = 0.0

    def slice(self) -> None:
        """One ~1 ms run of the kernel."""
        cpu = time.thread_time()
        start = time.perf_counter()
        table = {}
        arrays = self._arrays
        for index in range(150):
            left, right = arrays[index % 64], arrays[(index * 7) % 64]
            kept = np.where((left > right) & (left < right + 5.0), left, right).sum()
            digest = hashlib.sha256(repr((index, float(kept))).encode()).hexdigest()
            table[digest[:12]] = [{"k": index, "v": float(kept)}]
        json.dumps(list(table.items())[:40])
        self._last = time.perf_counter()
        self.wall_s += self._last - start
        self.cpu_s += time.thread_time() - cpu
        self.slices += 1

    def edge(self) -> None:
        """Half a calibration's worth of slices, for either end of a phase."""
        for _ in range(self.SLICES_PER_CALIB // 2):
            self.slice()

    def between_queries(self) -> None:
        """A slice if the last one is at least ``GAP_S`` old."""
        if time.perf_counter() - self._last >= self.GAP_S:
            self.slice()

    @property
    def calib_ms(self) -> float:
        return self.wall_s / self.slices * self.SLICES_PER_CALIB * 1e3

    @property
    def speed(self) -> float:
        """How many times slower than the reference box the kernel ran."""
        return self.calib_ms / self.REFERENCE_MS


def children_cpu_seconds() -> float:
    """user+sys of reaped children plus live direct children (from /proc)."""
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = reaped.ru_utime + reaped.ru_stime
    me = str(os.getpid())
    for stat_path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat_path, encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we were listing
        if fields[1] == me:
            total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


def cpu_seconds() -> float:
    """user+sys of this process and its children, live or reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime + children_cpu_seconds()


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus the largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def releases_digest(records: list[Record]) -> str:
    """sha256 over group key, noisy and raw value of every completed query, in
    submission order."""
    body = repr([(index, record.releases) for index, record in enumerate(records)
                 if record.outcome == "completed"])
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def remote_layers(before: dict, after: dict, *, queries: int,
                  expected_chunks: int) -> dict[str, float | None]:
    """Coordinator-side sharded-engine counters over one phase.

    ``before``/``after`` hold ``dispatch`` (the engine's public dispatch
    stats) and ``children_cpu``; ``expected_chunks`` is how many chunks had to
    be executed, so anything dispatched beyond it was a redispatch.
    """
    now, then = after["dispatch"], before["dispatch"]
    executed = now["chunks"] - then["chunks"]
    per_shard = [shard["chunks"] - then["per_shard"].get(shard_id, {"chunks": 0})["chunks"]
                 for shard_id, shard in now["per_shard"].items()]
    return {
        "core.remote.task_bytes_per_chunk":
            (now["payload_bytes_total"] - then["payload_bytes_total"]) / max(1, executed),
        "core.remote.broadcast_bytes_per_query":
            (now["broadcast_bytes"] - then["broadcast_bytes"]) / max(1, queries),
        "core.remote.child_cpu_ms_per_chunk":
            (after["children_cpu"] - before["children_cpu"]) * 1e3 / max(1, executed),
        "core.remote.redispatches": float(executed - expected_chunks),
        "core.remote.shard_skew":
            max(per_shard) / max(1, min(per_shard)) if per_shard else None,
    }


def build_scenes(names: tuple[str, ...]) -> dict[str, tuple[Any, Any]]:
    """name -> (scenario, policy map) at the frozen scene sizes."""
    scene = spec.SIZES["scene"]
    built = {}
    for name in names:
        scenario = build_scenario(name, scale=scene[name]["scale"],
                                  duration_hours=scene["duration_hours"],
                                  seed=scene[name]["seed"])
        built[name] = (scenario, scenario_policy_map(
            scenario, k_segments=scene["k_segments"]))
    return built


def register(target: Any, scenes: dict[str, tuple[Any, Any]], epsilon: float) -> None:
    """Register every scene's camera on a PrividSystem or QueryService."""
    for scenario, policy_map in scenes.values():
        register_scenario_camera(target, scenario, policy_map=policy_map,
                                 epsilon_budget=epsilon,
                                 sample_period=spec.SIZES["scene"]["sample_period"])


class Lap:
    """One workload-round: ``setup`` → ``measure`` → ``finish`` → ``result``."""

    def __init__(self, workload: str, seed: int, *, quick: bool, trace: bool,
                 tmp_root: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.trace = trace
        self.size = spec.sizes(workload, quick=quick)
        self.inputs: list[QueryInput] = gen.generate(workload, seed, quick=quick)
        self.recorder = Recorder()
        self.calibrator = Calibrator()
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
        self.scenes: dict[str, tuple[Any, Any]] = {}
        self.target: Any = None            # PrividSystem or QueryService
        self.service: QueryService | None = None
        self.charge = True
        self.records: list[Record] = []
        self.failures: list[str] = []
        self.layers: dict[str, float | None] = {}
        self.exact: dict[str, float] = {}
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.lags_ms: list[float] = []
        self._known_cameras: dict[str, float] = {}
        self._known_executables: list[str] = []
        self._before: dict[str, Any] = {}

    # ---------------------------------------------------------------- set-up

    def setup(self) -> None:
        """Build scenes, the system under test and its warm state."""
        names = ("campus", "highway") if self.workload == "serve_open" else ("campus",)
        self.scenes = build_scenes(names)
        store = self.tmp / "store"
        epsilon = AMPLE_EPSILON
        if self.workload == "cold_scan":
            self.target = PrividSystem(seed=self.seed, engine="serial", cache=None)
        elif self.workload == "sharded_fill":
            self.target = PrividSystem(seed=self.seed,
                                       engine=f"sharded:{self.size['shards']}",
                                       cache=f"tiered:{store}")
        elif self.workload == "warm_sweep":
            self.target = PrividSystem(seed=self.seed, engine="serial", cache=TieredChunkCache(
                memory=ChunkResultCache(max_entries=self.size["memory_entries"]),
                disk=store))
            self.charge = False  # the paper's Fig. 6/7 what-if regime
        else:
            if self.workload == "admit_burst":
                epsilon = self.size["camera_epsilon"]
            self.service = self.target = QueryService(
                seed=self.seed, engine="serial", cache=f"tiered:{store}",
                wal_dir=self.tmp / "wal", compact_every=self.size["compact_every"],
                max_concurrent_queries=spec.SIZES["serve_open"]["pool_threads"])
        register(self.target, self.scenes, epsilon)
        for item in gen.setup_queries(self.workload, quick=self.quick):
            self.target.execute(parse_query(item.text), charge_budget=False)
        self._known_cameras = {name: registration.video.fps
                               for name, registration in self.target.cameras.items()}
        self._known_executables = self.target.registry.names()

    # -------------------------------------------------------- measured phase

    def parse(self, text: str) -> Any:
        """The analyst's interface: text in, validated query out."""
        with self.recorder.span("query.parse"):
            query = parse_query(text)
            validate_query(query, known_cameras=self._known_cameras,
                           known_executables=self._known_executables)
        return query

    def _record(self, result: Any, latency_ms: float) -> Record:
        charges: dict[str, int] = {}
        for release in result.releases:
            for camera, intervals in (release.source_intervals or {}).items():
                charges[camera] = charges.get(camera, 0) + len(intervals)
        return Record(
            outcome="completed", latency_ms=latency_ms,
            releases=[(release.group_key, release.noisy_value, release.raw_value_unsafe)
                      for release in result.releases],
            scale_sum=sum(release.noise_scale for release in result.releases),
            chunks=sum(result.metadata["num_chunks"].values()),
            charges=charges if self.charge else {},
            timing=result.metadata.get("timing"))

    def measure(self) -> None:
        """Run the fixed-count measured phase; fills ``records``."""
        self.recorder.spans.clear()
        self.recorder.counts.clear()
        self._before = self._counters()
        calibrator = self.calibrator
        calibrator.edge()
        own_wall, own_cpu = calibrator.wall_s, calibrator.cpu_s
        cpu_before = cpu_seconds()
        started = time.perf_counter()
        if self.workload == "serve_open":
            ended = self._open_loop(started)
        else:
            self._closed_loop()
            ended = time.perf_counter()
        # The slices run between queries: inside the phase, outside every
        # latency; their own time is taken back out of CPU and, in a closed
        # loop (the open loop's fall into the generator's idle gaps), of wall.
        self.wall_s = ended - started
        if self.workload != "serve_open":
            self.wall_s -= calibrator.wall_s - own_wall
        self.cpu_s = cpu_seconds() - cpu_before - (calibrator.cpu_s - own_cpu)
        calibrator.edge()

    def _settle(self, produce: Callable[[], Any], elapsed_ms: Callable[[], float]) -> None:
        """Record one query's fate: completed, denied for budget, or failed
        (counted, never fatal)."""
        try:
            result = produce()
        except BudgetExceededError:
            record = Record(outcome="denied", latency_ms=elapsed_ms())
        except Exception as exc:
            record = Record(outcome="failed", latency_ms=elapsed_ms(),
                            error=f"{type(exc).__name__}: {exc}")
        else:
            record = self._record(result, elapsed_ms())
        self.records.append(record)

    def _closed_loop(self) -> None:
        """One client: the next query is sent when the previous one returns."""
        execute, charge = self.target.execute, self.charge
        for index, item in enumerate(self.inputs):
            self.calibrator.between_queries()
            self.recorder.set_trace(f"{self.workload}/{index}")
            start = time.perf_counter()
            self._settle(lambda: execute(self.parse(item.text), charge_budget=charge),
                         lambda: (time.perf_counter() - start) * 1e3)

    def _open_loop(self, started: float) -> float:
        """One generator thread sending on schedule whatever the service does.

        Latency runs from the instant each arrival was *due*, so the wait a
        stall imposes on later arrivals counts; how late the generator itself
        ran is kept beside it.  Returns when the last query finished.
        """
        service = self.service
        assert service is not None
        done_at: list[float] = [0.0] * len(self.inputs)
        futures = []
        for index, item in enumerate(self.inputs):
            due = started + item.due_s
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.lags_ms.append((time.perf_counter() - due) * 1e3)
            self.recorder.set_trace(f"{self.workload}/{index}")
            future = service.submit(self.parse(item.text))

            def mark(_future: Any, slot: int = index) -> None:
                done_at[slot] = time.perf_counter()

            future.add_done_callback(mark)
            futures.append(future)
            self.calibrator.between_queries()
        self.layers["service.backlog_end"] = float(
            service.health()["queries"]["active"])
        for index, (item, future) in enumerate(zip(self.inputs, futures)):
            self._settle(future.result,
                         lambda: (done_at[index] - started - item.due_s) * 1e3)
        return max(done_at)

    # ------------------------------------------------------ counters and gate

    def _counters(self) -> dict[str, Any]:
        """Public stats snapshots whose deltas over the phase become metrics."""
        target = self.target
        snapshot: dict[str, Any] = {"children_cpu": children_cpu_seconds()}
        if self.service is not None:
            snapshot["cache"] = self.service.stats()["cache"]
            snapshot["wal"] = self.service.wal.status()
        else:
            snapshot["cache"] = target.cache_stats()
            snapshot["dispatch"] = target.engine_stats().get("dispatch")
        snapshot["ledger"] = target.ledger.contention_stats(include_timeline=False)
        return snapshot

    def finish(self) -> None:
        """Counters, reconciliation and the store and recovery checks, all untimed."""
        after = self._counters()
        completed = [record for record in self.records if record.outcome == "completed"]
        queries = len(self.records)
        for index, (item, record) in enumerate(zip(self.inputs, self.records)):
            if record.outcome != item.expect:
                self.failures.append(f"query {index}: {record.outcome} (expected {item.expect})"
                           + (f": {record.error}" if record.error else ""))
        budgets = self.target.ledger.snapshot()
        self._count_layers(self._before, after, completed, queries, budgets)
        self._reconcile_ledger(budgets, completed)
        if self.service is not None:
            self.service.close()
            self._check_recovery(budgets)
        else:
            self.target.close()
        self._check_store()

    def _count_layers(self, before: dict, after: dict, completed: list[Record],
                      queries: int, budgets: dict) -> None:
        layers = self.layers
        layers["relational.releases_per_query"] = \
            sum(len(record.releases) for record in completed) / max(1, len(completed))
        scale_sum = sum(record.scale_sum for record in completed)
        layers["core.noise.scale_sum"] = self.exact["core.noise.scale_sum"] = scale_sum
        cache_after, cache_before = after["cache"], before["cache"]
        if cache_after.get("enabled"):
            def delta(*path: str) -> float:
                now, then = cache_after, cache_before
                for key in path:
                    now, then = now[key], then[key]
                return now - then
            lookups = delta("hits") + delta("misses")
            if lookups:
                layers["core.cache.hit_ratio"] = delta("hits") / lookups
                layers["core.cache.memory_hit_ratio"] = delta("memory", "hits") / lookups
                layers["core.cache.disk_hit_ratio"] = delta("disk", "hits") / lookups
            files = [path for path in Path(cache_after["disk"]["directory"]).rglob("*")
                     if path.is_file()]
            layers["core.cache.entries"] = self.exact["core.cache.entries"] = len(files)
            if files:
                layers["core.cache.bytes_per_entry"] = \
                    sum(path.stat().st_size for path in files) / len(files)
        if (after.get("dispatch") or {}).get("per_shard"):
            delivered = sum(record.chunks for record in completed)
            layers.update(remote_layers(
                before, after, queries=queries,
                expected_chunks=delivered - (cache_after["hits"] - cache_before["hits"])))
            self.exact["core.remote.broadcast_bytes_per_query"] = \
                layers["core.remote.broadcast_bytes_per_query"]
        ledger_after, ledger_before = after["ledger"], before["ledger"]
        if self.charge:
            charges = sum(entry["charges"] for entry in budgets.values())
            denied = ledger_after["denied"] - ledger_before["denied"]
            layers["core.budget.charges"] = self.exact["core.budget.charges"] = charges
            layers["core.budget.denied"] = self.exact["core.budget.denied"] = denied
            layers["core.budget.lock_contended"] = float(
                ledger_after["lock_contended"] - ledger_before["lock_contended"])
        if "wal" in after:
            wal_after, wal_before = after["wal"], before["wal"]
            layers["core.durability.appends_per_query"] = \
                (wal_after["appends"] - wal_before["appends"]) / max(1, queries)
            layers["core.durability.fsyncs_per_query"] = \
                (wal_after["fsyncs"] - wal_before["fsyncs"]) / max(1, queries)
            layers["core.durability.compactions"] = float(
                wal_after["compactions"] - wal_before["compactions"])
            if self.trace or not layers["core.durability.compactions"]:
                # Compaction truncates the log; only the traced round sees
                # the size each truncation discarded.
                compacted = self.recorder.counts["core.durability.log_bytes_compacted"]
                layers["core.durability.log_bytes_per_query"] = \
                    (compacted + wal_after["log_bytes"] - wal_before["log_bytes"]) \
                    / max(1, queries)
            snapshot_file = Path(wal_after["path"]) / "snapshot.json"
            layers["core.durability.snapshot_bytes"] = float(
                snapshot_file.stat().st_size if snapshot_file.exists() else 0)
            self._service_layers(completed)

    def _service_layers(self, completed: list[Record]) -> None:
        layers = self.layers
        timings = [record.timing for record in completed if record.timing]
        queue = [timing["queue_s"] * 1e3 for timing in timings]
        first_row = [timing["first_row_s"] * 1e3 for timing in timings
                     if timing["first_row_s"] is not None]
        latencies = [record.latency_ms for record in self.records]
        if queue:
            layers["service.queue_ms_p50"] = stats.percentile(queue, 50.0)
            layers["service.queue_ms_p90"] = stats.capped_percentile(queue, 90.0)[0]
        if first_row:
            layers["service.first_row_ms_p50"] = stats.percentile(first_row, 50.0)
        layers["service.query_p99_ms"] = stats.percentile(latencies, 99.0)
        first, last = stats.decile_medians(latencies)
        layers["service.p50_first_decile_ms"] = first
        layers["service.p50_last_decile_ms"] = last
        if self.lags_ms:
            layers["bench.generator_lag_p99_ms"] = stats.percentile(self.lags_ms, 99.0)

    def _reconcile_ledger(self, budgets: dict, completed: list[Record]) -> None:
        """Charges implied by completed releases == per-camera ledger counts."""
        if not self.charge:
            return
        implied: dict[str, int] = {}
        for record in completed:
            for camera, count in record.charges.items():
                implied[camera] = implied.get(camera, 0) + count
        actual = {camera: entry["charges"] for camera, entry in budgets.items()
                  if entry["charges"]}
        if implied != actual:
            self.failures.append(f"ledger charges {actual} != charges implied by releases {implied}")

    def _check_recovery(self, live_budgets: dict) -> None:
        """A service reopened over the WAL dir recovers bit-equal budgets."""
        start = time.perf_counter()
        reopened = QueryService(seed=self.seed, engine="serial", cache=None,
                                wal_dir=self.tmp / "wal")
        self.layers["core.durability.recover_ms"] = (time.perf_counter() - start) * 1e3
        try:
            recovered = reopened.ledger.snapshot()
        finally:
            reopened.close()
        if recovered != live_budgets:
            self.failures.append(f"recovered budgets {recovered} != live budgets {live_budgets}")

    def _check_store(self) -> None:
        """After a fill the store holds each distinct chunk once, nothing else."""
        leftovers = [str(path) for path in self.tmp.rglob("*.tmp")]
        if self.workload == "sharded_fill":
            leftovers += glob.glob("/dev/shm/privid-bc-*")
            distinct = gen.distinct_chunks(
                [*self.inputs, *gen.setup_queries(self.workload, quick=self.quick)])
            entries = self.exact.get("core.cache.entries")
            if entries != distinct:
                self.failures.append(f"store holds {entries} entries for {distinct} distinct chunks")
        if leftovers:
            self.failures.append(f"temporary files left behind: {leftovers[:4]}")
        if self.workload == "warm_sweep" and self.layers.get("core.cache.hit_ratio") != 1.0:
            self.failures.append("warm_sweep executed chunks: store hit ratio "
                       f"{self.layers.get('core.cache.hit_ratio')} != 1.0")

    def gate(self) -> None:
        """Re-execute a seeded 1-in-16 sample on a fresh serial, store-less
        system and require every raw value to be equal."""
        sample = [index for index in range(len(self.inputs))
                  if (index + self.seed) % GATE_SAMPLE == 0] or [0]
        reference = PrividSystem(seed=self.seed, engine="serial", cache=None)
        register(reference, self.scenes, AMPLE_EPSILON)
        for index in sample:
            record = self.records[index]
            if record.outcome != "completed":
                continue
            result = reference.execute(parse_query(self.inputs[index].text),
                                       charge_budget=False)
            expected = [release.raw_value_unsafe for release in result.releases]
            if expected != [raw for _, _, raw in record.releases]:
                self.failures.append(f"query {index}: raw values differ from the serial "
                           f"store-less reference")

    # ---------------------------------------------------------------- result

    def result(self, setup_s: float) -> dict[str, Any]:
        """The lap's JSON-ready summary.

        End-to-end times are divided by the calibrator's ``speed`` (rates
        multiplied), so they read "at reference machine speed".  The open
        loop's ``chunks_per_s`` is set by its arrival schedule, not by the
        machine, and stays as measured.  Per-layer values stay as measured.
        """
        speed = self.calibrator.speed
        latencies = [record.latency_ms / speed for record in self.records]
        chunks = sum(record.chunks for record in self.records)
        shares: dict[str, float] = {}
        self.layers.update({name: value for name, value
                            in span_metrics(self.recorder).items()
                            if value is not None and (self.trace
                                                      or name == "query.parse_ms")})
        if self.trace:
            shares = self_time_shares(self.recorder)
        self.layers["bench.calib_ms"] = self.calibrator.calib_ms
        failed = min(len(self.failures), len(self.records))
        self.layers["bench.failed_share"] = failed / len(self.records)
        rate = chunks / self.wall_s
        return {
            "workload": self.workload, "seed": self.seed, "quick": self.quick,
            "traced": self.trace,
            "attempted": len(self.records), "failed": failed,
            "failures": self.failures[:8],
            "latencies_ms": latencies, "speed": speed,
            "end_to_end": {
                "setup_s": setup_s / speed,
                "query_p50_ms": stats.percentile(latencies, 50.0),
                # One round alone rarely supports p90; the pooled value
                # (cli.aggregate) does, this one only shows the spread.
                "query_p90_ms": stats.percentile(latencies, 90.0),
                "chunks_per_s": rate if self.workload == "serve_open" else rate * speed,
                "cpu_ms_per_query": self.cpu_s * 1e3 / len(self.records) / speed,
                "peak_rss_mb": peak_rss_mb(),
            },
            "wall_s": self.wall_s, "chunks": chunks,
            "inputs_digest": gen.inputs_digest(self.inputs),
            "releases_digest": releases_digest(self.records),
            "layers": self.layers, "exact": self.exact, "shares": shares,
        }

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def run_lap(workload: str, seed: int, *, quick: bool, trace: bool, gate: bool,
            spawned_at: float, tmp_root: Path, spans_path: Path | None) -> dict[str, Any]:
    """Run one workload-round in this process and return its summary."""
    if workload == spec.LADDER:
        return run_ladder(seed, quick=quick, trace=trace, spans_path=spans_path)
    lap = Lap(workload, seed, quick=quick, trace=trace, tmp_root=tmp_root)
    try:
        with traced(lap.recorder) if trace else nullcontext():
            lap.setup()
            # Set-up ends where the first measured query would start (the
            # calibration slices that follow belong to neither).
            setup_s = time.perf_counter() - spawned_at
            lap.measure()
            lap.finish()
        if gate:
            lap.gate()
        summary = lap.result(setup_s)
        if spans_path is not None and trace:
            lap.recorder.write(spans_path)
        return summary
    finally:
        lap.cleanup()


# ------------------------------------------------------------- engine ladder

def _fit_line(chunks: list[int], seconds: list[float]) -> tuple[float, float]:
    """Least-squares ``t = a + b * chunks``; returns ``(a, b)`` in ms."""
    slope, intercept = np.polyfit(np.asarray(chunks, dtype=float),
                                  np.asarray(seconds, dtype=float), 1)
    return float(intercept) * 1e3, float(slope) * 1e3


def run_ladder(seed: int, *, quick: bool, trace: bool,
               spans_path: Path | None) -> dict[str, Any]:
    """Price every registered engine kind: cold queries of three sizes, twice,
    fitted to ``t = a + b * chunks``.

    A kind ``create_engine`` no longer knows reports ``None``, so deleting an
    engine never needs a benchmark edit.  Break-even is where the kind's line
    crosses serial's; a negative value means it never does for any real
    chunk count.
    """
    size = spec.sizes(spec.LADDER, quick=quick)
    scenes = build_scenes(("campus",))
    chunk_s = spec.SIZES["scene"]["chunk_s"]
    recorder = Recorder()
    layers: dict[str, float | None] = {}
    fits: dict[str, tuple[float, float]] = {}
    failures: list[str] = []
    reference: dict[tuple[int, int], list] = {}
    attempted = 0
    calibrator = Calibrator()
    with traced(recorder) if trace else nullcontext():
        for kind in size["kinds"]:
            engine_spec = kind if kind == "serial" else f"{kind}:{size['workers']}"
            try:
                create_engine(engine_spec)
            except ValueError:
                layers[f"core.engine.{kind}_fixed_ms"] = None
                layers[f"core.engine.{kind}_per_chunk_ms"] = None
                continue
            with PrividSystem(seed=seed, engine=engine_spec, cache=None) as system:
                register(system, scenes, AMPLE_EPSILON)
                # Pools and shards start at the first stream: keep that out
                # of the fit with a small uncounted query.
                system.execute(parse_query(gen.warm_up("campus").text),
                               charge_budget=False)
                xs: list[int] = []
                ys: list[float] = []
                before = {"dispatch": system.engine_stats().get("dispatch"),
                          "children_cpu": children_cpu_seconds()}
                for repeat in range(size["repeats"]):
                    for count in size["chunk_counts"]:
                        begin = 8 * 3600.0 + repeat * 4 * 3600.0
                        text = gen.query_input("campus", begin, begin + count * chunk_s,
                                               0, 1.0).text
                        recorder.set_trace(f"{spec.LADDER}/{kind}/{count}/{repeat}")
                        calibrator.slice()
                        start = time.perf_counter()
                        result = system.execute(parse_query(text))
                        ys.append(time.perf_counter() - start)
                        xs.append(count)
                        attempted += 1
                        raw = [release.raw_value_unsafe for release in result.releases]
                        if reference.setdefault((count, repeat), raw) != raw:
                            failures.append(f"{kind}: raw values differ from "
                                            f"{size['kinds'][0]} at {count} chunks")
                after = {"dispatch": system.engine_stats().get("dispatch"),
                         "children_cpu": children_cpu_seconds()}
                if (after["dispatch"] or {}).get("per_shard"):
                    layers.update(remote_layers(before, after, queries=len(xs),
                                                expected_chunks=sum(xs)))
                fits[kind] = _fit_line(xs, ys)
                layers[f"core.engine.{kind}_fixed_ms"] = fits[kind][0]
                layers[f"core.engine.{kind}_per_chunk_ms"] = fits[kind][1]
    for kind in size["kinds"][1:]:
        crossing = None
        if kind in fits and "serial" in fits and fits["serial"][1] != fits[kind][1]:
            crossing = (fits[kind][0] - fits["serial"][0]) \
                / (fits["serial"][1] - fits[kind][1])
        layers[f"core.engine.{kind}_breakeven_chunks"] = crossing
    if trace:
        layers.update({name: value for name, value in span_metrics(recorder).items()
                       if value is not None})
        if spans_path is not None:
            recorder.write(spans_path)
    layers["bench.calib_ms"] = calibrator.calib_ms
    return {"workload": spec.LADDER, "seed": seed, "quick": quick, "traced": trace,
            "attempted": attempted, "failed": len(failures), "failures": failures[:8],
            "layers": layers, "exact": {}, "shares": {}}
