"""Sharded chunk execution: partitioning a query across executor shards.

Privid chunks are independent units of work, so the engine seam (see
``examples/parallel_execution.py``) admits a *distributed* executor: ``PrividSystem(engine="sharded:N")`` runs a
coordinator that partitions each query's chunk stream across N executor
shard subprocesses — each speaking a small length-prefixed JSON protocol
over its own socketpair, the single-host stand-in for a remote host — and merges
ordered results back, byte-identical to the serial engine.  This example
shows:

1. *byte-identity* — the sharded engine returns exactly the serial engine's
   releases (the hashing determinism contract makes chunk results
   placement-independent);
2. *dispatch accounting* — per-shard IPC stays at a couple hundred bytes
   per chunk, whatever the scene size (``PrividSystem.engine_stats()``);
3. *fault tolerance* — a shard killed mid-sweep has its work reassigned to
   the survivors, with at-most-once result application, and the answer does
   not change;
4. *one store owner* — the coordinator looks every chunk up and writes
   every result the shards send back into its disk-backed chunk store, so a
   later system (sharded or serial, same process or not) starts warm from
   the shards' work, and no shard ever opens the store.

Run with: ``python examples/sharded_execution.py``
"""

from __future__ import annotations

import tempfile
import threading
import time

from repro.core import PrividSystem, SerialEngine, ShardedEngine
from repro.evaluation.runner import register_scenario_camera, scenario_policy_map
from repro.query.builder import QueryBuilder
from repro.scene.scenarios import build_scenario
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
    query = hourly_people_query(2.0)

    # -------------------------------------------- byte-identity vs serial
    # Chunk results are deterministic functions of the chunk alone, so the
    # sharded engine must reproduce the serial engine bit for bit — noisy
    # releases included (noise is seed-deterministic per system).
    serial_system = build_system(scenario, engine=SerialEngine())
    serial = serial_system.execute(query, charge_budget=False)

    with build_system(scenario, engine="sharded:3") as system:
        started = time.perf_counter()
        sharded = system.execute(query, charge_budget=False)
        elapsed = time.perf_counter() - started
        stats = system.engine_stats()
    identical = sharded.raw_series_unsafe() == serial.raw_series_unsafe() \
        and sharded.series() == serial.series()
    print(f"sharded:3 {elapsed:6.2f}s  byte-identical to serial: {identical}")

    # ------------------------------------------------ dispatch accounting
    # Per-dispatch messages are a payload ref plus a few numbers per chunk;
    # the footage is published once for the engine's lifetime and the
    # stream's other constants once per distinct stream, and each is pushed
    # down a shard's own socket the first time one of its tasks needs it.
    dispatch = stats["dispatch"]
    print(f"dispatch: {dispatch['chunks']} chunks in {dispatch['dispatches']} "
          f"task frames, mean {dispatch['payload_bytes_mean']:.0f} B/frame")
    for shard_id, shard in dispatch["per_shard"].items():
        print(f"  shard {shard_id}: {shard['chunks']:3d} chunks, "
              f"{shard['payload_bytes_total']:6d} B dispatched, "
              f"{shard['pushes']} payloads ({shard['push_bytes']} B) pushed")

    # ------------------------------------------------------ fault tolerance
    # Kill a shard while the sweep is in flight: the coordinator notices the
    # death, reassigns the shard's outstanding tasks to the survivors, and
    # the releases do not change.  (Late results from a merely-slow shard
    # would be dropped by at-most-once application.)
    engine = ShardedEngine(3)
    with engine:
        system = build_system(scenario, engine=engine)

        def assassinate() -> None:
            time.sleep(0.3)
            live = engine._live_shards()
            if live:
                live[0].process.kill()

        killer = threading.Thread(target=assassinate)
        killer.start()
        survived = system.execute(query, charge_budget=False)
        killer.join()
        shards_left = len(engine._live_shards())
    identical = survived.raw_series_unsafe() == serial.raw_series_unsafe()
    print(f"one shard killed mid-sweep: {shards_left}/3 shards left, "
          f"results byte-identical: {identical}")

    # ---------------------------------------------------- one store owner
    # The shards only execute; the coordinator puts every result they send
    # back into its tiered store, so a later system — sharded or serial,
    # same process or not — starts warm from the shards' work.
    store_dir = tempfile.mkdtemp(prefix="privid-sharded-store-")
    with build_system(scenario, engine="sharded:3",
                      cache=f"tiered:{store_dir}") as system:
        started = time.perf_counter()
        system.execute(query, charge_budget=False)
        cold = time.perf_counter() - started
        written = system.cache_stats()["disk"]["writes"]
    with build_system(scenario, engine=SerialEngine(),
                      cache=f"tiered:{store_dir}") as system:
        started = time.perf_counter()
        system.execute(query, charge_budget=False)
        warm = time.perf_counter() - started
        stats = system.cache_stats()
    print(f"one store owner: sharded cold sweep {cold:5.2f}s ({written} entries "
          f"written by the coordinator), serial warm re-run {warm:5.2f}s "
          f"({stats['disk']['hits']} disk hits, {stats['disk']['writes']} writes)")


if __name__ == "__main__":
    main()
