"""The long-lived query service: many analysts, one per-camera budget.

Privid's deployment model is an always-on system — a video owner stands up
the system over their cameras once, and analysts submit queries against it
over time, all drawing from the *same* per-camera privacy budgets.
``QueryService`` is that always-on layer: one engine, one chunk store, and
one shared budget ledger behind a concurrent ``submit`` API.  This example
shows:

1. *shared budgets* — four analysts race queries against one camera whose
   budget only covers two of them: exactly two are admitted, the others'
   futures raise ``BudgetExceededError``, and no denied query leaves a
   partial charge behind;
2. *result parity* — a query answered by the service returns exactly the
   raw values a standalone ``PrividSystem`` computes (the engine
   determinism contract is placement-independent), and noise is drawn from
   a deterministic per-query stream (``privid/query-{n}`` by submission
   order), so two same-seed services agree release for release;
3. *shared warm storage* — every query reads and writes one chunk store,
   so each chunk's output is stored once, and a query that finds a chunk
   already stored re-uses it (how many do depends on thread timing, so the
   example prints the entries stored);
4. *one merged snapshot* — ``stats()`` reports query admissions, engine
   dispatch accounting, store counters and per-camera remaining budgets in
   a single dict.

Run with: ``python examples/query_service.py``
"""

from __future__ import annotations

from concurrent.futures import wait

from repro.core import PrividSystem
from repro.errors import BudgetExceededError
from repro.evaluation.runner import register_scenario_camera, scenario_policy_map
from repro.query.builder import QueryBuilder
from repro.scene.scenarios import build_scenario
from repro.service import QueryService
from repro.utils.timebase import SECONDS_PER_HOUR


def people_query(name: str, *, hours: float = 1.0, epsilon: float = 1.0):
    return (QueryBuilder(name)
            .split("campus", begin=0, end=hours * SECONDS_PER_HOUR,
                   chunk_duration=60, mask="owner", into="chunks")
            .process("chunks", executable="count_entering_people.py", max_rows=5,
                     schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0)], into="people")
            .select_count(table="people", bucket_seconds=SECONDS_PER_HOUR,
                          epsilon=epsilon)
            .build())


def main() -> None:
    print("Generating a 1-hour synthetic campus scene ...")
    scenario = build_scenario("campus", scale=0.4, duration_hours=1.0, seed=7)
    policy_map = scenario_policy_map(scenario, k_segments=1)

    # ------------------------------------------------------- shared budgets
    # The camera's budget is 2.5 epsilon per frame; each analyst's query
    # asks for 1.0 over the same hour.  Whatever order the pool runs them
    # in, the shared ledger admits exactly two and denies the rest — the
    # check-and-charge is atomic, so racing queries can never both squeeze
    # through the last epsilon.
    with QueryService(seed=1, engine="sharded:2", cache="memory") as service:
        register_scenario_camera(service, scenario, policy_map=policy_map,
                                 epsilon_budget=2.5, sample_period=1.0)
        futures = {name: service.submit(people_query(name))
                   for name in ("alice", "bob", "carol", "dave")}
        wait(futures.values())
        # Which two win depends on how the pool interleaves them, so only
        # what does not is printed: how many, and why the others were denied.
        admitted, denials = {}, set()
        for name, future in futures.items():
            try:
                admitted[name] = future.result()
            except BudgetExceededError as denial:
                denials.add(str(denial))
        remaining = service.stats()["budgets"]["campus"]["remaining_min"]
        print(f"admitted {len(admitted)}/4 analysts; "
              f"worst-frame budget left: {remaining:.1f} of 2.5")
        for denial in sorted(denials):
            print(f"  denied: {denial}")

        # --------------------------------------------------- result parity
        # Raw (pre-noise) values are byte-identical to a standalone system:
        # chunk results are deterministic functions of the chunk alone, so
        # it cannot matter which layer — or which engine — ran them.
        reference_system = PrividSystem(seed=1)
        register_scenario_camera(reference_system, scenario,
                                 policy_map=policy_map,
                                 epsilon_budget=2.5, sample_period=1.0)
        reference = reference_system.execute(people_query("reference"))
        winner = next(iter(admitted.values()))
        identical = winner.raw_series_unsafe() == reference.raw_series_unsafe()
        print(f"service result byte-identical to a standalone system: {identical}")

        # -------------------------------------------------- shared storage
        # Every query writes through one chunk store, so an analyst whose
        # window overlaps an earlier one re-uses its chunk outputs instead of
        # re-running the sandbox.  How many lookups hit depends on how the
        # queries interleave; the entries stored (one per chunk) do not.
        stats = service.stats()
        print(f"shared store: {stats['cache']['entries']} chunk entries "
              f"for the hour's 60 one-minute chunks")

        # ---------------------------------------------- one merged snapshot
        queries = stats["queries"]
        print(f"stats(): {queries['submitted']} submitted, "
              f"{queries['completed']} completed, {queries['denied']} denied; "
              f"engine={stats['engine']['engine']}; "
              f"budgets={list(stats['budgets'])}")


if __name__ == "__main__":
    main()
