"""The frozen contract of the benchmark: workload names, sizes, metric names.

Every later performance or simplicity PR is judged by these names, so they
live in one table that ``BENCHMARK.json`` mirrors (the test beside this file
asserts the two agree).  Sizes were scaled so one workload-round's measured
phase takes about three seconds on the 2-core reference sandbox: the driver
runs several rounds (each with its own set-up) inside one ~25 s run.
"""

from __future__ import annotations

#: name -> one-line reason the workload exists (mirrored in BENCHMARK.json).
WORKLOADS = {
    "cold_scan": "serial engine, store off: every chunk is rendered, detected, "
                 "tracked and tabled, so video/cv/sandbox changes show here and "
                 "nowhere else",
    "sharded_fill": "same cold chunks on sharded:2 over a fresh tiered store: adds "
                    "dispatch, broadcast, pipe framing and shard-side store writes; "
                    "bypasses nothing but the warm path",
    "warm_sweep": "what-if re-evaluation over a pre-filled store 4x the memory tier: "
                  "zero chunk executions, so cache key/read/decode, relational and "
                  "noise do all the work; a cv/video change must not move it",
    "serve_open": "open loop at a fixed 40 queries/s against the durable QueryService "
                  "(2 pool threads, WAL, 85% stored windows and 15% fresh ones): queue "
                  "wait, fsync on submit and ledger lock contention live here",
    "admit_burst": "closed loop of two-chunk warm queries on a 50-eps camera: 2/3 "
                   "admitted (WAL charge records, compaction) and 1/3 denied "
                   "(check-only), so budget and durability dominate",
}

#: Internal pseudo-workload of the traced round (prices every engine kind).
LADDER = "engine_ladder"
ENGINE_KINDS = ("serial", "thread", "process", "sharded")

#: Frozen sizes of a full workload-round.
SIZES = {
    "scene": {"campus": {"scale": 0.5, "seed": 7}, "highway": {"scale": 0.3, "seed": 11},
              "duration_hours": 24, "sample_period": 1.0, "chunk_s": 30, "k_segments": 1},
    "cold_scan": {"window_chunks": 30, "window_stride": 1, "query_count": 72},
    "sharded_fill": {"window_chunks": 30, "window_stride": 2, "query_count": 34,
                     "shards": 2},
    "warm_sweep": {"window_chunks": 60, "windows": 16, "memory_entries": 240,
                   "query_count": 330, "zipf": 1.0},
    "serve_open": {"rate_per_s": 40.0, "query_count": 140, "window_chunks": 8,
                   "fresh_share": 0.15, "hot_windows": 6, "tenants": 64,
                   "pool_threads": 2, "compact_every": 256},
    "admit_burst": {"query_count": 432, "slots": 8, "slot_gap_s": 7200,
                    "window_chunks": 2, "camera_epsilon": 36.0,
                    "compact_every": 512},
    LADDER: {"chunk_counts": (30, 120, 480), "repeats": 2, "workers": 2,
             "kinds": ENGINE_KINDS},
}

#: (name, unit, better, bound).  No time metric held 0.10 across ten seeds on
#: the shared sandbox (measured spreads 0.03-0.16 after speed normalisation,
#: see README "Bounds"), so they take the contract's largest bound.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_p90_ms", "ms", "lower", 0.25),
    ("chunks_per_s", "1/s", "higher", 0.25),
    ("cpu_ms_per_query", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
)

#: (name, unit, better).  Ungated; layer prefixes are this repo's modules.
PER_LAYER = (
    ("query.parse_ms", "ms", "lower"),
    ("video.frame_batch_ms", "ms", "lower"),
    ("video.mask_ms", "ms", "lower"),
    ("video.frames_per_chunk", "count", "lower"),
    ("cv.detect_ms", "ms", "lower"),
    ("cv.track_ms", "ms", "lower"),
    ("cv.detections_per_chunk", "count", "lower"),
    ("sandbox.run_chunk_ms", "ms", "lower"),
    ("sandbox.self_ms", "ms", "lower"),
    ("sandbox.fallback_chunks", "count", "lower"),
    ("relational.extend_ms", "ms", "lower"),
    ("relational.aggregate_ms", "ms", "lower"),
    ("relational.releases_per_query", "count", "lower"),
    ("core.cache.key_ms", "ms", "lower"),
    ("core.cache.get_ms", "ms", "lower"),
    ("core.cache.put_ms", "ms", "lower"),
    ("core.cache.hit_ratio", "ratio", "higher"),
    ("core.cache.memory_hit_ratio", "ratio", "higher"),
    ("core.cache.disk_hit_ratio", "ratio", "higher"),
    ("core.cache.bytes_per_entry", "B", "lower"),
    ("core.cache.entries", "count", "lower"),
    *((f"core.engine.{kind}_{part}_ms", "ms", "lower")
      for kind in ENGINE_KINDS for part in ("fixed", "per_chunk")),
    *((f"core.engine.{kind}_breakeven_chunks", "count", "lower")
      for kind in ENGINE_KINDS[1:]),
    ("core.remote.stream_ms", "ms", "lower"),
    ("core.remote.task_bytes_per_chunk", "B", "lower"),
    ("core.remote.broadcast_bytes_per_query", "B", "lower"),
    ("core.remote.child_cpu_ms_per_chunk", "ms", "lower"),
    ("core.remote.redispatches", "count", "lower"),
    ("core.remote.shard_skew", "ratio", "lower"),
    ("core.budget.admit_ms", "ms", "lower"),
    ("core.budget.admit_ms_first_decile", "ms", "lower"),
    ("core.budget.admit_ms_last_decile", "ms", "lower"),
    ("core.budget.charges", "count", "lower"),
    ("core.budget.denied", "count", "lower"),
    ("core.budget.lock_contended", "count", "lower"),
    ("core.durability.append_ms", "ms", "lower"),
    ("core.durability.appends_per_query", "count", "lower"),
    ("core.durability.fsyncs_per_query", "count", "lower"),
    ("core.durability.log_bytes_per_query", "B", "lower"),
    ("core.durability.compactions", "count", "lower"),
    ("core.durability.compact_ms", "ms", "lower"),
    ("core.durability.snapshot_bytes", "B", "lower"),
    ("core.durability.recover_ms", "ms", "lower"),
    ("core.noise.add_noise_us", "us", "lower"),
    ("core.noise.scale_sum", "units", "lower"),
    ("core.executor.self_ms", "ms", "lower"),
    ("service.submit_ms", "ms", "lower"),
    ("service.queue_ms_p50", "ms", "lower"),
    ("service.queue_ms_p90", "ms", "lower"),
    ("service.first_row_ms_p50", "ms", "lower"),
    ("service.query_p99_ms", "ms", "lower"),
    ("service.backlog_end", "count", "lower"),
    ("service.p50_first_decile_ms", "ms", "lower"),
    ("service.p50_last_decile_ms", "ms", "lower"),
    ("bench.generator_lag_p99_ms", "ms", "lower"),
    ("bench.calib_ms", "ms", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
    ("bench.failed_share", "ratio", "lower"),
)

DEFAULT_SEED = 11
DEFAULT_ROUNDS = 3

#: sha256 of the generated query texts and arrival offsets at DEFAULT_SEED,
#: checked at start-up so a change to the generators cannot silently change
#: the load.  Regenerate with ``python -m benchmarks.system digests``.
INPUTS_DIGESTS: dict[str, str] = {
    "cold_scan":
        "7f0a0ca443aeafdadb6e72c724768c8b9a30eded9ffc4109c7af3d1311a25e83",
    "sharded_fill":
        "73d06f35ced0afd252950fecceb984f1d21326907626c4597ef3a441a878218e",
    "warm_sweep":
        "c4b8fcf822fafcc1c8bbbc6b163619266b1ccb2d9337f16008995df9b93fbd41",
    "serve_open":
        "b5b34ab6d7d7b95954d74d8a98f69bd3cb7ab50e670cc880415f1b642cdba18e",
    "admit_burst":
        "d699ee8b30623214f45401b80f827fb7329a7f2367de20cd3efd269349d6db9d",
}


#: ``--quick`` overrides: a tenth of the work with every mechanism still
#: reached (denials, compaction, evictions), for the tests and for the
#: traced round's fallback probe.
QUICK = {
    "cold_scan": {"query_count": 4},
    "sharded_fill": {"query_count": 2},
    "warm_sweep": {"windows": 2, "memory_entries": 30, "query_count": 12},
    "serve_open": {"query_count": 10, "fresh_share": 0.3, "hot_windows": 2,
                   "compact_every": 32},
    "admit_burst": {"query_count": 48, "camera_epsilon": 4.0, "compact_every": 64},
    LADDER: {"chunk_counts": (4, 8, 16), "repeats": 1},
}


def sizes(workload: str, *, quick: bool = False) -> dict:
    """The workload's frozen sizes, with the ``--quick`` overrides applied."""
    return {**SIZES[workload], **(QUICK[workload] if quick else {})}
