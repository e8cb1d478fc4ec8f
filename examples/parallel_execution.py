"""Parallel chunk execution and result caching for what-if sweeps.

Privid processes every chunk with an independent executable instance
(Appendix B), so chunk work parallelises and memoizes without changing any
answer.  The whole dataflow is *streaming*: SPLIT produces chunks on demand,
engines keep a bounded in-flight window, and rows land in the intermediate
table as each chunk completes — memory and time-to-first-result are
independent of the query window length.  This example shows the two knobs a
deployment tunes for throughput:

1. the *execution engine* — serial (default) or worker subprocesses
   (``sharded:N``, N local shards) — selected per :class:`~repro.core.PrividSystem` (engines are context
   managers, and a system built from a spec string shuts its own engine
   down on ``close()``);
2. the *chunk result store* — in-process LRU (``cache="memory"``) or
   tiered memory-over-disk (``"tiered:PATH"``, its disk tier shared across
   systems and processes) — which lets overlapping query windows, repeated
   what-if sweeps, *and entirely separate processes* skip already-processed
   chunks.

Run with: ``python examples/parallel_execution.py``
"""

from __future__ import annotations

import tempfile
import time

from repro.core import (
    ChunkResultCache,
    PrividSystem,
    SerialEngine,
    create_engine,
)
from repro.query.builder import QueryBuilder
from repro.scene.scenarios import build_scenario
from repro.evaluation.runner import register_scenario_camera, scenario_policy_map
from repro.utils.timebase import SECONDS_PER_HOUR


def build_system(scenario, *, engine, cache=None) -> PrividSystem:
    system = PrividSystem(seed=1, engine=engine, cache=cache)
    policy_map = scenario_policy_map(scenario, k_segments=1)
    register_scenario_camera(system, scenario, policy_map=policy_map,
                             epsilon_budget=100.0, sample_period=1.0)
    return system


def hourly_people_query(window_hours: float):
    return (QueryBuilder(f"people-{window_hours:g}h")
            .split("campus", begin=0, end=window_hours * SECONDS_PER_HOUR,
                   chunk_duration=60, mask="owner", into="chunks")
            .process("chunks", executable="count_entering_people.py", max_rows=5,
                     schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0)], into="people")
            .select_count(table="people", bucket_seconds=SECONDS_PER_HOUR, epsilon=1.0)
            .build())


def main() -> None:
    print("Generating a 2-hour synthetic campus scene ...")
    scenario = build_scenario("campus", scale=0.4, duration_hours=2.0, seed=7)

    # ----------------------------------------------- engine selection
    # Scenario scenes use declarative attribute schedules and pickle cleanly,
    # so every engine — worker subprocesses included — runs every scene.
    # Engines are context managers: workers are released on exit.
    for engine in (SerialEngine(), create_engine("sharded:4")):
        with engine:
            system = build_system(scenario, engine=engine)
            started = time.perf_counter()
            result = system.execute(hourly_people_query(2.0), charge_budget=False)
            elapsed = time.perf_counter() - started
            print(f"engine={engine.name:7s} {elapsed:6.2f}s  "
                  f"hourly counts (noisy): {[round(v, 1) for _, v in result.series()]}")

    # ----------------------------------------------- chunk result cache
    # A what-if sweep over nested windows re-processes the same chunks; the
    # cache reduces each step to the newly added hour.
    system = build_system(scenario, engine=SerialEngine(), cache=ChunkResultCache())
    for hours in (1.0, 2.0, 2.0):
        started = time.perf_counter()
        system.execute(hourly_people_query(hours), charge_budget=False)
        elapsed = time.perf_counter() - started
        stats = system.cache_stats()
        print(f"window={hours:g}h  {elapsed:6.2f}s  cache hits={stats['hits']:4d} "
              f"misses={stats['misses']:4d} hit_rate={stats['hit_rate']:.2f}")

    # ----------------------------------------------- tiered (disk) store
    # A tiered store persists chunk results on disk keyed by the footage's
    # stable content fingerprint, so a *separate* deployment over the same
    # footage — another PrividSystem, another process, another day — starts
    # warm.  Systems built from spec strings are context managers too.
    store_dir = tempfile.mkdtemp(prefix="privid-example-store-")
    for attempt in ("cold", "warm"):
        with PrividSystem(seed=1, cache=f"tiered:{store_dir}") as system:
            policy_map = scenario_policy_map(scenario, k_segments=1)
            register_scenario_camera(system, scenario, policy_map=policy_map,
                                     epsilon_budget=100.0, sample_period=1.0)
            started = time.perf_counter()
            system.execute(hourly_people_query(2.0), charge_budget=False)
            elapsed = time.perf_counter() - started
            stats = system.cache_stats()
            print(f"tiered store, {attempt} start: {elapsed:6.2f}s  "
                  f"memory hits={stats['memory']['hits']:4d} "
                  f"disk hits={stats['disk']['hits']:4d} "
                  f"disk writes={stats['disk']['writes']:4d}")


if __name__ == "__main__":
    main()
