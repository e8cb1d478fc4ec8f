"""CI smoke test for the service layer over real local shard workers.

Exercises the full always-on deployment path end to end, the way an
operator would run it:

1. stands up a :class:`~repro.service.QueryService` on two local shards
   (``engine="sharded:2"``: two worker processes, each at the far end of a
   socketpair) with a tiered chunk store;
2. checks the sharded service answers byte-identically (raw values *and*
   noisy releases) to a same-seed serial service;
3. races four concurrent queries against a camera whose budget only admits
   two — exactly two must be admitted and the denied futures must raise
   ``BudgetExceededError`` with nothing charged past the budget;
4. shuts everything down cleanly and fails loudly (exit 1) on any miss.

Run with: ``python -X dev -W error::ResourceWarning tools/service_smoke.py``
(development mode makes a leaked pipe or file handle a warning, and the
flag makes it an error).
"""

from __future__ import annotations

import gc
import shutil
import sys
import tempfile
from concurrent.futures import wait
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# The script's own directory leads sys.path, so its sibling imports by name.
from chaos_smoke import FAILURES, check, fail_on_unraisable, people_query  # noqa: E402
from repro.errors import BudgetExceededError  # noqa: E402
from repro.evaluation.runner import (  # noqa: E402
    register_scenario_camera,
    scenario_policy_map,
)
from repro.scene.scenarios import build_scenario  # noqa: E402
from repro.service import QueryService  # noqa: E402


def build_service(scenario, policy_map, *, engine, cache) -> QueryService:
    service = QueryService(seed=3, engine=engine, cache=cache)
    register_scenario_camera(service, scenario, policy_map=policy_map,
                             epsilon_budget=2.5, sample_period=1.0)
    return service


def main() -> None:
    scenario = build_scenario("campus", scale=0.2, duration_hours=0.2, seed=7)
    policy_map = scenario_policy_map(scenario, k_segments=1)
    store_dir = tempfile.mkdtemp(prefix="privid-service-smoke-")

    try:
        # ---- byte-identity: sharded service vs same-seed serial service.
        # Both answer their first submission (query seq 0) from the same
        # deterministic noise stream, so even the noisy releases must match.
        with build_service(scenario, policy_map, engine=None,
                           cache="memory") as serial_service:
            reference = serial_service.execute(people_query("reference"),
                                               charge_budget=False)
        with build_service(scenario, policy_map, engine="sharded:2",
                           cache=f"tiered:{store_dir}") as service:
            probe = service.execute(people_query("probe"), charge_budget=False)
            check(repr(probe.raw_series_unsafe())
                  == repr(reference.raw_series_unsafe()),
                  "raw values over local shards == serial service")
            check(repr(probe.series()) == repr(reference.series()),
                  "noisy releases over local shards == serial service")

            # ---- shared-budget exhaustion: four racing analysts, budget 2.5,
            # one 1.0-epsilon release each over the same window -> the
            # rho-expanded admission check admits exactly two.
            futures = [service.submit(people_query(f"analyst-{i}", bucket=720))
                       for i in range(4)]
            wait(futures)
            denials = [f for f in futures
                       if isinstance(f.exception(), BudgetExceededError)]
            admitted = [f for f in futures if f.exception() is None]
            unexpected = [f for f in futures
                          if f.exception() is not None
                          and not isinstance(f.exception(), BudgetExceededError)]
            check(not unexpected, "no query failed for a non-budget reason")
            check(len(admitted) == 2 and len(denials) == 2,
                  f"2 of 4 racing queries admitted on a 2.5-epsilon budget "
                  f"(admitted={len(admitted)}, denied={len(denials)})")

            stats = service.stats()
            remaining = stats["budgets"]["campus"]["remaining_min"]
            check(abs(remaining - 0.5) < 1e-9,
                  f"ledger charged exactly the admitted queries "
                  f"(remaining_min={remaining})")
            check(stats["queries"] == {"submitted": 5, "completed": 3,
                                       "denied": 2, "failed": 0,
                                       "timed_out": 0, "cancelled": 0,
                                       "rejected": 0, "active": 0},
                  f"service counters consistent: {stats['queries']}")
            check(stats["engine"]["engine"] == "sharded"
                  and len(stats["engine"]["dispatch"]["per_shard"]) == 2,
                  "stats() reports per-shard dispatch for both shards")
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.unraisablehook = fail_on_unraisable
    main()
    gc.collect()  # finalize what main() dropped while the hook still counts
    if FAILURES:
        print(f"\n{len(FAILURES)} smoke check(s) failed")
        sys.exit(1)
    print("\nservice smoke: all checks passed")
