"""Shared fixtures for the benchmark harness.

Benchmarks regenerate every table and figure of the paper's evaluation on
scaled-down synthetic scenes (docs/benchmarks.md lists them, with the
harness knobs below).  Scenario generation is expensive, so scenes are built
once per session and shared read-only.
"""

from __future__ import annotations

import os

import pytest

from repro.core import PrividSystem, create_cache, create_engine
from repro.evaluation.runner import (
    register_porto_cameras,
    register_scenario_camera,
    scenario_policy_map,
)
from repro.scene.porto import PortoConfig, generate_porto_dataset
from repro.scene.scenarios import build_scenario

#: Scale factors applied to the primary scenarios (1.0 reproduces the paper's
#: object densities but takes many minutes per query; these values keep the
#: full harness to a few minutes while preserving every trend).
BENCH_SCALES = {"campus": 0.5, "highway": 0.15, "urban": 0.15}
BENCH_HOURS = 4.0
#: The evaluation protects single appearances (K = 1), matching the noise
#: levels implied by the paper's reported accuracies.
BENCH_K_SEGMENTS = 1


def pytest_addoption(parser):
    """Engine/cache knobs for the whole benchmark harness.

    ``--privid-engine`` selects the chunk execution engine ('serial' or
    'sharded[:N]', also spelt 'process[:N]' or 'thread[:N]'; defaults to the
    PRIVID_ENGINE environment variable, then 'serial').  ``--privid-cache`` selects the chunk result
    store ('off', 'memory' or 'tiered:PATH'; defaults to the PRIVID_CACHE
    environment variable, then 'memory' — caching is on by default because
    the sweeps re-process large overlapping chunk sets).
    """
    parser.addoption("--privid-engine", default=os.environ.get("PRIVID_ENGINE", "serial"),
                     help="chunk execution engine: serial or sharded[:N] "
                          "(aliases process[:N], thread[:N])")
    parser.addoption("--privid-cache",
                     default=os.environ.get("PRIVID_CACHE", "memory"),
                     help="chunk result store: off, memory, tiered:PATH")


@pytest.fixture(scope="session")
def bench_engine(request):
    """The execution engine every benchmark system schedules chunks on."""
    return create_engine(request.config.getoption("--privid-engine"))


@pytest.fixture(scope="session")
def bench_cache(request):
    """Session-wide chunk result store (None when disabled)."""
    return create_cache(request.config.getoption("--privid-cache"))


@pytest.fixture(scope="session")
def campus_scenario():
    return build_scenario("campus", scale=BENCH_SCALES["campus"],
                          duration_hours=BENCH_HOURS, seed=7)


@pytest.fixture(scope="session")
def highway_scenario():
    return build_scenario("highway", scale=BENCH_SCALES["highway"],
                          duration_hours=BENCH_HOURS, seed=11)


@pytest.fixture(scope="session")
def urban_scenario():
    return build_scenario("urban", scale=BENCH_SCALES["urban"],
                          duration_hours=BENCH_HOURS, seed=13)


@pytest.fixture(scope="session")
def primary_scenarios(campus_scenario, highway_scenario, urban_scenario):
    return {"campus": campus_scenario, "highway": highway_scenario, "urban": urban_scenario}


@pytest.fixture(scope="session")
def porto_dataset():
    return generate_porto_dataset(PortoConfig(num_taxis=40, num_cameras=8, num_days=28, seed=31))


@pytest.fixture(scope="session")
def evaluation_system(primary_scenarios, porto_dataset, bench_engine, bench_cache):
    """One Privid deployment with every camera registered under a generous budget."""
    system = PrividSystem(seed=2022, engine=bench_engine, cache=bench_cache)
    for scenario in primary_scenarios.values():
        policy_map = scenario_policy_map(scenario, k_segments=BENCH_K_SEGMENTS)
        register_scenario_camera(system, scenario, policy_map=policy_map,
                                 epsilon_budget=500.0, sample_period=1.0)
    register_porto_cameras(system, porto_dataset, epsilon_budget=500.0, k_segments=2)
    return system


def print_cache_stats(system: PrividSystem, *, label: str = "chunk cache") -> None:
    """Print the system's chunk-cache counters (noting when caching is off)."""
    stats = system.cache_stats()
    if not stats["enabled"]:
        print(f"\n[{label}: disabled; engine={system.engine.name}]")
        return
    tiers = ""
    if "disk" in stats:
        tiers = (f" memory_hits={stats['memory']['hits']}"
                 f" disk_hits={stats['disk']['hits']}")
    print(f"\n[{label}: engine={system.engine.name} "
          f"hits={stats['hits']} misses={stats['misses']} "
          f"hit_rate={stats['hit_rate']}{tiers}]")


def print_table(title: str, rows: list[dict], *, columns: list[str] | None = None) -> None:
    """Print a small aligned table to stdout (captured into bench_output.txt)."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    columns = columns or list(rows[0].keys())
    widths = {col: max(len(col), max(len(str(row.get(col, ""))) for row in rows))
              for col in columns}
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(str(row.get(col, "")).ljust(widths[col]) for col in columns))
