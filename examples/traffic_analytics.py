"""Traffic analytics on a highway camera: speeds and per-colour counts.

Reproduces the flavour of Listing 1 from the paper: one PROCESS creates a
vehicle table (plate, colour, speed), and two SELECTs compute (S1) the
average speed of all cars and (S2) the number of unique cars per colour —
each release separately noised and separately charged to the budget.

Run with: ``python examples/traffic_analytics.py``
"""

from __future__ import annotations

from repro import PrividSystem
from repro.evaluation.runner import register_scenario_camera, scenario_policy_map
from repro.query.builder import QueryBuilder
from repro.relational.aggregates import Aggregation, GroupSpec
from repro.relational.expressions import Column
from repro.relational.plan import GroupBy, TableScan
from repro.scene.scenarios import build_scenario
from repro.utils.timebase import SECONDS_PER_HOUR


def main() -> None:
    print("Generating a 2-hour synthetic highway scene ...")
    scenario = build_scenario("highway", scale=0.1, duration_hours=2.0, seed=11)
    system = PrividSystem(seed=3)
    register_scenario_camera(system, scenario,
                             policy_map=scenario_policy_map(scenario, k_segments=1),
                             epsilon_budget=10.0, sample_period=1.0)

    builder = (QueryBuilder("traffic-analytics")
               .split("highway", begin=0, end=2 * SECONDS_PER_HOUR, chunk_duration=30.0,
                      mask="owner", into="chunks")
               .process("chunks", executable="vehicle_reporter.py", max_rows=15,
                        schema=[("plate", "STRING", ""), ("color", "STRING", ""),
                                ("speed", "NUMBER", 0.0)],
                        into="cars"))

    # S1: average speed of all observed cars, clamped to a plausible range.
    builder.select_average("speed", 30.0, 120.0, table="cars", epsilon=0.5,
                           label="avg-speed-kmh")

    # S2: unique cars per colour (GROUP BY with explicit keys), deduplicated
    # by licence plate before counting.
    deduplicated = GroupBy(TableScan("cars"), keys=("plate",),
                           explicit_keys=tuple(f"HWY{i:06d}" for i in range(2000)))
    colour_group = GroupSpec(expressions=(("color", Column("color")),),
                             expected_keys=("RED", "WHITE", "SILVER"))
    builder.select(Aggregation(function="COUNT"), deduplicated, group_by=colour_group,
                   epsilon=0.15, label="cars-per-colour")

    query = builder.build()
    result = system.execute(query)

    print("\nReleased results:")
    for release in result.releases:
        key = f" [{release.group_key}]" if release.group_key is not None else ""
        print(f"  {release.label}{key}: {release.noisy_value:.1f} "
              f"(noise scale {release.noise_scale:.2f}, epsilon {release.epsilon})")
    print(f"\nTotal privacy budget consumed by this query: {result.epsilon_consumed:.2f}")


if __name__ == "__main__":
    main()
