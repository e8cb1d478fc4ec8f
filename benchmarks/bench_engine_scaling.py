"""Chunk execution engine scaling: serial vs parallel vs cached throughput.

Chunks are processed by independent executable instances (Appendix B), so the
split-process stage parallelises without changing any result.  This benchmark
runs the same counting query as a repeated what-if sweep (the access pattern
of the Fig. 6/7 sweeps and the Section 8.1 noise re-evaluations) under each
engine and under a chunk result cache, and checks that

* every engine produces identical raw results on the fixed seed, and
* the cache turns a repeated sweep into pure lookups (measurable speedup).

It also measures the *streaming* dataflow against the materialize-everything
batch dataflow — time-to-first-result, total wall time, peak concurrently
resident chunks, and the process's peak RSS — and times the columnar chunk
hot path stage by stage (render the FrameBatch, detect, track, emit rows
into the Table, aggregate), emitting a machine-readable
``BENCH_pipeline.json`` (path overridable via ``BENCH_PIPELINE_JSON``) with
chunk throughput, frames/sec, per-stage timings, the process engine's
per-dispatch IPC payload bytes, the sharded engine's per-shard dispatch
bytes (``sharded_dispatch``), and the batch-vs-streaming columns, which CI
uploads as an artifact (the perf-smoke job runs this file, so a streaming
regression shows up there).  Before overwriting an existing JSON record the
benchmark diffs the fresh chunk throughput *and* the tracking stage time
against it and prints a ``::warning::`` line on a >20% regression — in CI
the committed baseline is what sits at that path, so the perf-smoke job
surfaces the comparison as an annotation.

The scene is built from simple linear trajectories with no dynamic
attributes; scenario scenes (declarative schedules since the columnar
pipeline PR) are picklable too, so every scene runs on every engine.
"""

from __future__ import annotations

import json
import math
import os
import resource
import tempfile
import time

from repro.core import (
    ChunkResultCache,
    PrividSystem,
    ProcessPoolEngine,
    SerialEngine,
    ShardedEngine,
    ThreadPoolEngine,
    TieredChunkCache,
)
from repro.core.policy import PrivacyPolicy
from repro.cv.tracker import IoUTracker
from repro.query.builder import QueryBuilder
from repro.relational.aggregates import Aggregation, GroupSpec, compute_releases
from repro.relational.expressions import ChunkBin
from repro.relational.sensitivity import SensitivityInfo, TableProperties
from repro.relational.table import ColumnSpec, DataType, Schema, Table
from repro.sandbox.environment import ExecutionContext, SandboxRunner
from repro.sandbox.registry import default_registry
from repro.scene.objects import Appearance, SceneObject
from repro.scene.trajectory import LinearTrajectory
from repro.utils.timebase import TimeInterval
from repro.video.chunking import ChunkSpec, iter_chunks, split_interval
from repro.video.geometry import BoundingBox
from repro.video.video import SyntheticVideo

from benchmarks.conftest import print_table

DURATION = 1800.0
CHUNK_DURATION = 30.0
NUM_WALKERS = 60
SWEEP_REPEATS = 2


def _picklable_video() -> SyntheticVideo:
    """A crossing-heavy scene with no closures, safe for process pools."""
    video = SyntheticVideo(name="engine-bench", fps=2.0, width=1280.0, height=720.0,
                           duration=DURATION)
    walkers = []
    for index in range(NUM_WALKERS):
        start = (index * 29.0) % (DURATION - 60.0)
        x = 100.0 + (index * 37.0) % 1000.0
        walkers.append(SceneObject(
            object_id=f"walker-{index}",
            category="person",
            appearances=[Appearance(
                interval=TimeInterval(start, start + 40.0),
                trajectory=LinearTrajectory(start=BoundingBox(x, 650.0, 30.0, 60.0),
                                            end=BoundingBox(x, 10.0, 30.0, 60.0),
                                            duration=40.0),
            )],
        ))
    video.add_objects(walkers)
    return video


def _build_system(video: SyntheticVideo, *, engine=None, cache=None) -> PrividSystem:
    system = PrividSystem(seed=2022, engine=engine, cache=cache)
    system.register_camera("cam", video, policy=PrivacyPolicy(rho=40.0, k_segments=1),
                           epsilon_budget=500.0)
    return system


def _query():
    return (QueryBuilder("engine-scaling")
            .split("cam", begin=0.0, end=DURATION, chunk_duration=CHUNK_DURATION,
                   into="chunks")
            .process("chunks", executable="count_entering_people.py", max_rows=5,
                     schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0)], into="people")
            .select_count(table="people", bucket_seconds=300.0, epsilon=1.0)
            .build())


def _timed_sweep(system: PrividSystem) -> tuple[float, list]:
    """One what-if sweep: SWEEP_REPEATS executions of the same query.

    An untimed warmup execute precedes the measurement: the sweep models the
    *repeated* what-if regime (Fig. 6/7, noise re-evaluations), where worker
    pools are already spawned and per-process caches warm — one-time
    infrastructure cost is not what the per-engine comparison is about.
    """
    system.execute(_query(), charge_budget=False)
    started = time.perf_counter()
    raw = None
    for _ in range(SWEEP_REPEATS):
        result = system.execute(_query(), charge_budget=False)
        raw = result.raw_series_unsafe()
    return time.perf_counter() - started, raw


PERSON_SCHEMA = Schema(columns=(ColumnSpec("kind", DataType.STRING, ""),
                                ColumnSpec("dy", DataType.NUMBER, 0.0)))


def _peak_rss_kb() -> int:
    """Peak RSS of this process in KiB (a monotonic high-water mark)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _dataflow_metrics(video: SyntheticVideo, engine) -> dict:
    """Batch vs streaming over the same chunk set on one engine.

    ``batch`` materializes the full chunk list and runs ``map_chunks`` to
    completion before any row is visible (the pre-streaming dataflow);
    ``streaming`` pulls chunks lazily through ``imap_chunks`` and observes
    the first chunk's rows as soon as the head of the stream completes.
    ``peak_resident_chunks`` counts chunks materialized but not yet consumed
    (for batch that is the whole chunk list); ``peak_rss_kb`` is the process
    high-water mark after the run — monotonic across the process, so order
    the comparison streaming-first when reading absolute values.
    """
    spec = ChunkSpec(window=TimeInterval(0.0, DURATION), chunk_duration=CHUNK_DURATION)
    runner = SandboxRunner(default_registry().resolve("count_entering_people.py"),
                           PERSON_SCHEMA, max_rows=5, timeout_seconds=30.0)
    context = ExecutionContext(camera="cam", fps=video.fps)

    state = {"pulled": 0, "consumed": 0, "peak": 0}

    def instrumented():
        for chunk in iter_chunks(video, spec):
            state["pulled"] += 1
            state["peak"] = max(state["peak"], state["pulled"] - state["consumed"])
            yield chunk

    started = time.perf_counter()
    first_result_at = None
    for _ in engine.imap_chunks(runner, instrumented(), context):
        state["consumed"] += 1
        if first_result_at is None:
            first_result_at = time.perf_counter()
    streaming = {
        "ttfr_s": round(first_result_at - started, 6),
        "total_s": round(time.perf_counter() - started, 6),
        "peak_resident_chunks": state["peak"],
        "peak_rss_kb": _peak_rss_kb(),
    }

    started = time.perf_counter()
    chunks = split_interval(video, spec)
    outcomes = engine.map_chunks(runner, chunks, context)
    first_result_at = time.perf_counter()  # no row visible before the batch ends
    assert outcomes
    batch = {
        "ttfr_s": round(first_result_at - started, 6),
        "total_s": round(time.perf_counter() - started, 6),
        "peak_resident_chunks": len(chunks),
        "peak_rss_kb": _peak_rss_kb(),
    }
    return {"batch": batch, "streaming": streaming}


def _stage_timings(video: SyntheticVideo) -> dict:
    """Per-stage wall time over the full chunk set.

    Stages: render the columnar FrameBatch, detect (DetectionBatch), track
    (batch core + TrackViews), ingest each chunk's sandbox-coerced rows
    into the schema Table (``table_s`` times exactly the ``Table.extend``
    columnar append), and compute the grouped COUNT releases over that
    table (``aggregate_s``).

    Each timed stage runs over the full chunk set five times — one untimed
    warmup, then best of four measured passes — the sweeps' cold-start
    discipline with more samples, since the passes are milliseconds-cheap
    and these numbers are regression-checked.  The track stage is timed in
    stage isolation: each pass collects the detection batches while the
    other stages run, then drives the tracker over all of them
    consecutively, so ``track_s`` measures the stage rather than the
    cache interleaving of its neighbours.  The sandbox execution feeding
    ``table_s`` runs once; its rows are reused by every pass.
    """
    spec = ChunkSpec(window=TimeInterval(0.0, DURATION), chunk_duration=CHUNK_DURATION)
    chunks = split_interval(video, spec)
    context = ExecutionContext(camera="cam", fps=video.fps)
    detector = context.detector()
    runner = SandboxRunner(default_registry().resolve("count_entering_people.py"),
                           PERSON_SCHEMA, max_rows=5, timeout_seconds=30.0)
    chunk_rows = [runner.run_chunk_outcome(chunk, context).rows for chunk in chunks]
    render_s = detect_s = track_s = table_s = math.inf
    num_frames = 0
    num_detections = 0
    for pass_index in range(5):
        pass_render = pass_detect = pass_track = pass_table = 0.0
        num_frames = 0
        num_detections = 0
        table = Table.from_schema(PERSON_SCHEMA, name="people")
        detection_batches = []
        for chunk, rows in zip(chunks, chunk_rows):
            started = time.perf_counter()
            # The stages of count_entering_people.py, with its declarations.
            batch = chunk.frame_batch(categories={"person"})
            rendered = time.perf_counter()
            detections = detector.detect_batch(batch, frame_width=video.width,
                                               frame_height=video.height,
                                               categories={"person"}, attributes=())
            detected = time.perf_counter()
            table.extend(rows)
            pass_table += time.perf_counter() - detected
            pass_render += rendered - started
            pass_detect += detected - rendered
            num_frames += batch.num_frames
            num_detections += len(detections)
            detection_batches.append(detections)
        track_started = time.perf_counter()
        for detections in detection_batches:
            tracker = IoUTracker(context.tracker_config)
            tracker.step_batch(detections)
            tracker.finalize_views()
        pass_track = time.perf_counter() - track_started
        if pass_index == 0:
            continue  # untimed warmup pass
        render_s = min(render_s, pass_render)
        detect_s = min(detect_s, pass_detect)
        track_s = min(track_s, pass_track)
        table_s = min(table_s, pass_table)
    properties = TableProperties(name="people", max_rows=5,
                                 chunk_duration=CHUNK_DURATION,
                                 num_chunks=len(chunks), rho=40.0, k_segments=1)
    info = SensitivityInfo.for_table(properties)
    group = GroupSpec(expressions=(("bucket", ChunkBin("chunk", 300.0)),))
    started = time.perf_counter()
    releases = compute_releases(table, info, Aggregation(function="COUNT"), group)
    aggregate_s = time.perf_counter() - started
    assert releases, "aggregation produced no releases"
    return {
        "num_chunks": len(chunks),
        "num_frames": num_frames,
        "num_detections": num_detections,
        "render_s": round(render_s, 6),
        "detect_s": round(detect_s, 6),
        "track_s": round(track_s, 6),
        "table_s": round(table_s, 6),
        "aggregate_s": round(aggregate_s, 6),
    }


#: Fractional throughput drop against the committed baseline that triggers
#: the perf-smoke warning annotation.
REGRESSION_THRESHOLD = 0.20


def _diff_against_baseline(payload: dict, path: str) -> None:
    """Warn when the fresh record regressed >20% vs the record at ``path``.

    Two checks: chunk throughput (lower is worse) and the tracking stage
    time (higher is worse — the per-stage hot path the tracker-core work
    targets).  In CI the file at ``path`` is the committed baseline (the
    fresh record has not been written yet); the ``::warning::`` prefix
    renders as an annotation on the perf-smoke job and is a plain line
    locally.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        base_throughput = float(baseline["chunk_throughput_per_s"])
    except (OSError, ValueError, KeyError, TypeError):
        return
    if base_throughput <= 0:
        return
    fresh = payload["chunk_throughput_per_s"]
    if fresh < base_throughput * (1.0 - REGRESSION_THRESHOLD):
        print(f"::warning title=perf-smoke regression::chunk throughput "
              f"{fresh}/s is {fresh / base_throughput:.2f}x the committed "
              f"baseline {base_throughput}/s (>{int(REGRESSION_THRESHOLD * 100)}% drop)")
    else:
        print(f"perf-smoke baseline check: {fresh}/s vs committed "
              f"{base_throughput}/s ({fresh / base_throughput:.2f}x)")
    try:
        base_track_s = float(baseline["stages"]["track_s"])
        fresh_track_s = float(payload["stages"]["track_s"])
    except (ValueError, KeyError, TypeError):
        return
    if base_track_s <= 0:
        return
    if fresh_track_s > base_track_s * (1.0 + REGRESSION_THRESHOLD):
        print(f"::warning title=perf-smoke regression::track stage "
              f"{fresh_track_s}s is {fresh_track_s / base_track_s:.2f}x the "
              f"committed baseline {base_track_s}s "
              f"(>{int(REGRESSION_THRESHOLD * 100)}% slower)")
    else:
        print(f"perf-smoke track-stage check: {fresh_track_s}s vs committed "
              f"{base_track_s}s ({fresh_track_s / base_track_s:.2f}x)")


def _write_pipeline_json(payload: dict) -> str:
    """Write the machine-readable benchmark record for the CI artifact."""
    path = os.environ.get("BENCH_PIPELINE_JSON", "BENCH_pipeline.json")
    _diff_against_baseline(payload, path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def test_engine_scaling_and_cache_speedup(benchmark):
    video = _picklable_video()
    tiered_dir = tempfile.mkdtemp(prefix="privid-bench-tiered-")

    def run():
        rows = []
        results = {}
        timings = {}
        extras = {}
        configs = [
            ("serial", SerialEngine(), None),
            ("thread:4", ThreadPoolEngine(max_workers=4), None),
            ("process:4", ProcessPoolEngine(max_workers=4), None),  # adaptive chunksize
            ("sharded:2", ShardedEngine(num_shards=2), None),
            ("serial+cache", SerialEngine(), ChunkResultCache()),
            ("serial+tiered", SerialEngine(), TieredChunkCache(disk=tiered_dir)),
        ]
        for label, engine, cache in configs:
            system = _build_system(video, engine=engine, cache=cache)
            # Best of two measured sweeps: the noise floor on shared
            # machines, so the recorded throughput tracks the code, not the
            # neighbours.
            elapsed, raw = _timed_sweep(system)
            second, raw = _timed_sweep(system)
            elapsed = min(elapsed, second)
            timings[label] = elapsed
            results[label] = raw
            stats = system.cache_stats()
            if isinstance(engine, ProcessPoolEngine):
                extras["process_dispatch"] = engine.dispatch_stats.as_dict()
                engine.shutdown()
                # The enforced budget for the spec-dispatch protocol: scene
                # size must never leak into per-dispatch IPC.
                assert engine.dispatch_stats.payload_bytes_max < 4096, \
                    "process-engine dispatch payload exceeded its byte budget"
            if isinstance(engine, ShardedEngine):
                # Per-shard dispatch bytes: the JSON task frames that crossed
                # each shard's pipe.  The same byte budget binds — coordinator
                # messages are the payload path plus compact specs.
                extras["sharded_dispatch"] = engine.dispatch_stats_dict()
                engine.shutdown()
                assert engine.dispatch_stats.payload_bytes_max < 4096, \
                    "sharded-engine dispatch payload exceeded its byte budget"
            rows.append({
                "engine": label,
                "sweep_s": round(elapsed, 3),
                "speedup_vs_serial": round(timings["serial"] / elapsed, 2),
                "cache_hit_rate": stats["hit_rate"] if stats["enabled"] else "-",
            })
        return rows, results, timings, extras

    rows, results, timings, extras = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Engine scaling: repeated sweep wall time per engine", rows)

    # Correctness: identical raw outputs on the fixed seed, engine-independent.
    baseline = results["serial"]
    for label, raw in results.items():
        assert raw == baseline, f"engine {label} changed query results"
    # The cached sweep re-executes the query with every chunk memoized, so it
    # must beat the uncached serial sweep even after paying the cold first run.
    assert timings["serial+cache"] < timings["serial"], \
        "chunk result cache failed to speed up a repeated sweep"

    # Streaming vs batch dataflow: time-to-first-result and peak residency.
    with ThreadPoolEngine(max_workers=4) as stream_engine:
        dataflow = _dataflow_metrics(video, stream_engine)
    dataflow_rows = [{"dataflow": mode, **metrics}
                     for mode, metrics in dataflow.items()]
    print_table("Batch vs streaming dataflow (thread:4, one sweep)", dataflow_rows)
    assert dataflow["streaming"]["ttfr_s"] < dataflow["batch"]["ttfr_s"], \
        "streaming lost its time-to-first-result advantage"
    assert dataflow["streaming"]["peak_resident_chunks"] \
        < dataflow["batch"]["peak_resident_chunks"], \
        "streaming no longer bounds resident chunks below the full chunk list"

    # Machine-readable record of the chunk hot path for the CI artifact.
    stages = _stage_timings(video)
    serial_exec_s = timings["serial"] / SWEEP_REPEATS
    num_chunks = stages["num_chunks"]
    payload = {
        "scene": {
            "duration_s": DURATION,
            "chunk_duration_s": CHUNK_DURATION,
            "fps": video.fps,
            "num_walkers": NUM_WALKERS,
            "num_chunks": num_chunks,
        },
        # Engine comparisons only mean what the hardware allows: with a
        # single CPU the process engine is bounded below by serial compute
        # plus IPC, so process:N beating serial requires cpu_count > 1.
        "cpu_count": os.cpu_count(),
        "serial_exec_s": round(serial_exec_s, 6),
        "chunk_throughput_per_s": round(num_chunks / serial_exec_s, 2),
        "frames_per_s": round(DURATION * video.fps / serial_exec_s, 1),
        "engine_sweep_s": {label: round(value, 6) for label, value in timings.items()},
        "dataflow": dataflow,
        "stages": stages,
        **extras,
    }
    path = _write_pipeline_json(payload)
    print(f"\nwrote {path}: {payload['chunk_throughput_per_s']} chunks/s, "
          f"{payload['frames_per_s']} frames/s, streaming ttfr "
          f"{dataflow['streaming']['ttfr_s']}s vs batch {dataflow['batch']['ttfr_s']}s")
