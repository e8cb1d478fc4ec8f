"""CI chaos harness: seeded fault plans against the always-on service.

The robustness contract under test, for every :class:`FaultPlan` below:

1. **byte-identity** — a :class:`~repro.service.QueryService` driven through
   transport drops/tears, daemon crashes and store IO errors returns raw
   values *and* noisy releases byte-identical to the same-seed fault-free
   serial service;
2. **ledger conservation** — the per-camera budget snapshot after the chaos
   run equals the serial run's exactly: a fault may cost retries, never
   epsilon;
3. **replay** — plans whose sites are driven deterministically (crash-at-seq,
   content-keyed store faults) fire the *same* fault sequence on every run
   of the same plan + seed;
4. **typed degradation** — a query deadline raises
   :class:`~repro.errors.QueryTimeoutError` with nothing charged, and the
   clean rerun admits normally;
5. **crash consistency** — a durable service (``wal_dir=``) killed with a
   *real* ``SIGKILL`` mid-query (the ``service.crash_at_chunk`` and
   ``service.crash_at_seq`` fault sites with the WAL's crash hook swapped
   for ``os.kill``), then restarted over
   the same WAL directory, recovers per-camera budgets exactly equal to a
   never-crashed run's, never double-charges, and resumes the interrupted
   query byte-identically with its pre-crash chunks served warm from the
   shared store.  The crash-restart cycle runs twice and both iterations
   must produce identical bytes (replay determinism), with no stranded
   ``*.tmp`` files in the WAL directories and no leaked
   ``/dev/shm/privid-bc-*`` segments.

Run with: ``python tools/chaos_smoke.py``
(``--crash-driver`` is the internal child-process mode of the
crash-restart plan — the process that actually gets SIGKILLed.)
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.faults import FaultKind, FaultPlan, FaultRule  # noqa: E402
from repro.core.remote import ShardedEngine  # noqa: E402
from repro.errors import QueryTimeoutError  # noqa: E402
from repro.evaluation.runner import (  # noqa: E402
    register_scenario_camera,
    scenario_policy_map,
)
from repro.query.builder import QueryBuilder  # noqa: E402
from repro.scene.scenarios import build_scenario  # noqa: E402
from repro.service import QueryService  # noqa: E402

FAILURES: list[str] = []

# Transport mayhem: dropped and torn result frames, sticky task writes.
# Reader-thread arrival order is the OS scheduler's, so this plan asserts
# byte-identity and conservation, not an exact fired log.
TRANSPORT_CHAOS = FaultPlan(name="transport-chaos", seed=11, rules=(
    FaultRule(site="transport.*.result", kind=FaultKind.DROP_FRAME,
              probability=0.15, max_fires=3),
    FaultRule(site="transport.*.result", kind=FaultKind.TORN_FRAME,
              at=(5,), max_fires=1),
    FaultRule(site="transport.*.task", kind=FaultKind.DELAY,
              probability=0.2, delay=0.05, max_fires=5),
))

# A shard daemon dies right after accepting protocol seq 4, and the first
# respawn attempt is refused (feeding the dial/breaker path).  The crash
# trigger is a pure function of the seq, so the fired schedule must replay.
DAEMON_CRASH = FaultPlan(name="daemon-crash", seed=23, rules=(
    FaultRule(site="transport.*.task", kind=FaultKind.CRASH, after_seq=4),
    FaultRule(site="transport.worker2.connect", kind=FaultKind.CONNECT_REFUSED,
              at=(0,), max_fires=1),
))

# Store mayhem: reads and writes fail, one entry is scribbled over.  Every
# decision is keyed by the entry fingerprint and polled from the driving
# thread, so the fired log must replay exactly.
STORE_CHAOS = FaultPlan(name="store-chaos", seed=37, rules=(
    FaultRule(site="store.put", kind=FaultKind.IO_ERROR,
              probability=0.3, max_fires=100),
    FaultRule(site="store.get", kind=FaultKind.IO_ERROR,
              probability=0.2, max_fires=100),
    FaultRule(site="store.get", kind=FaultKind.CORRUPT,
              probability=0.15, max_fires=100),
))

# Same-host fast-path mayhem: store entries are scribbled over mid-run,
# exercising the corrupt-entry self-heal, and a pipe worker is killed *while
# it holds an attachment to the engine's shared-memory broadcast segments*.
# Both triggers are deterministic (fixed op indices / seq), so the fired log
# must replay; the per-run checks additionally assert the coordinator
# unlinked every ``privid-bc-*`` segment at engine shutdown — a dead
# worker's attachment must never leak the segment.
SHM_BINARY_CHAOS = FaultPlan(name="shm-binary-chaos", seed=51, rules=(
    FaultRule(site="store.get", kind=FaultKind.CORRUPT, at=(3, 11),
              max_fires=2),
    FaultRule(site="transport.*.task", kind=FaultKind.CRASH, after_seq=6),
))

PLANS = [(TRANSPORT_CHAOS, False), (DAEMON_CRASH, True), (STORE_CHAOS, True),
         (SHM_BINARY_CHAOS, True)]


def replay_signature(log: tuple[str, ...]) -> list[str]:
    """The deterministic view of a fired log, for replay comparison.

    Each event string embeds its site, per-site op index, kind, seq and
    token.  Three things are scheduler placement, not schedule, and are
    normalized away: *which* interchangeable pool worker absorbed a
    transport fault (``workerN`` → ``worker*``), how many earlier ops that
    worker happened to carry (the per-site op index on transport sites —
    the protocol ``seq`` stays exact), and how events from different sites
    interleaved in the global log (sorted).
    """
    def normalize(line: str) -> str:
        line = re.sub(r"transport\.worker\d+", "transport.worker*", line)
        return re.sub(r"(transport\.worker\*\.[\w.]+)#\d+", r"\1#*", line)
    return sorted(normalize(line) for line in log)


def check(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    if not ok:
        FAILURES.append(label)


def people_query(name: str, *, bucket: float = 360, epsilon: float = 1.0,
                 chunk: float = 60):
    return (QueryBuilder(name)
            .split("campus", begin=0, end=720, chunk_duration=chunk,
                   mask="owner", into="chunks")
            .process("chunks", executable="count_entering_people.py", max_rows=5,
                     schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0)],
                     into="people")
            .select_count(table="people", bucket_seconds=bucket, epsilon=epsilon)
            .build())


def drive_queries(service: QueryService):
    """The fixed sequential query sequence every run replays.

    Sequential submission keeps noise-stream assignment (query seq) and
    coordinator-side store traffic deterministic, which is what lets the
    chaos run be compared bit-for-bit against the serial run.
    """
    outputs = []
    # Distinct chunkings so the second query cannot be fully served from the
    # first one's warm store entries — every stream exercises the engine.
    for name, epsilon, chunk in (("q-count", 1.0, 60), ("q-count-fine", 0.5, 45)):
        result = service.execute(people_query(name, epsilon=epsilon, chunk=chunk))
        outputs.append((repr(result.raw_series_unsafe()), repr(result.series())))
    return outputs, service.stats()["budgets"]


def run_serial(scenario, policy_map):
    with QueryService(seed=3, cache="memory") as service:
        register_scenario_camera(service, scenario, policy_map=policy_map,
                                 epsilon_budget=5.0, sample_period=1.0)
        return drive_queries(service)


def run_chaos(scenario, policy_map, plan: FaultPlan):
    """One seeded chaos run; returns (outputs, budgets, injector, health,
    dispatch stats)."""
    injector = plan.injector()
    store_dir = tempfile.mkdtemp(prefix=f"privid-chaos-{plan.name}-")
    engine = ShardedEngine(2, chunksize=1, heartbeat_interval=0.2,
                           task_timeout=2.0, max_task_retries=5,
                           breaker_reset=0.5)
    try:
        with QueryService(seed=3, engine=engine, cache=f"tiered:{store_dir}",
                          on_engine_failure="serial_fallback",
                          fault_injector=injector) as service:
            register_scenario_camera(service, scenario, policy_map=policy_map,
                                     epsilon_budget=5.0, sample_period=1.0)
            outputs, budgets = drive_queries(service)
            health = service.health()
            dispatch = engine.dispatch_stats.as_dict()
        return outputs, budgets, injector, health, dispatch
    finally:
        engine.shutdown()  # caller-owned: the service leaves it running


# --------------------------------------------------------- crash-restart plan

#: Journal token of the crash-restart plan's query: naming it up front is
#: what lets the restarted process find and resume the interrupted query.
CRASH_TOKEN = "crash-q"


def crash_driver(args: argparse.Namespace) -> int:
    """Child-process mode: one durable service run that may get SIGKILLed.

    Opens a :class:`~repro.service.QueryService` over ``--wal-dir`` (opening
    *is* recovery when the directory already holds a log), registers the
    scenario camera, and executes the fixed query under ``--token``.  With
    ``--crash-at-chunk N`` (``service.crash_at_chunk``: after the query's
    Nth chunk, where the WAL is silent) or ``--crash-at-seq N``
    (``service.crash_at_seq``: on WAL append N) a CRASH rule is armed and
    the WAL's crash hook swapped for a genuine ``os.kill(getpid(), SIGKILL)``
    — the process dies dirty at the exact point the plan names, leaving
    whatever the fsync discipline made durable.  On survival, writes a JSON
    report (results, budgets, charge seq, recovery info, warm-store hits) to
    ``--out`` and exits 0; the parent distinguishes crash from completion by
    the exit status and the report's existence.
    """
    scenario = build_scenario("campus", scale=0.2, duration_hours=0.2, seed=7)
    policy_map = scenario_policy_map(scenario, k_segments=1)
    injector = None
    for site, after in (("service.crash_at_chunk", args.crash_at_chunk),
                        ("service.crash_at_seq", args.crash_at_seq)):
        if after is not None:
            injector = FaultPlan(name="crash-restart", seed=5, rules=(
                FaultRule(site=site, kind=FaultKind.CRASH,
                          after_seq=after),)).injector()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        service = QueryService(seed=3, cache=f"tiered:{args.store_dir}",
                               wal_dir=args.wal_dir, fault_injector=injector)
        service.wal.crash_hook = lambda: os.kill(os.getpid(), signal.SIGKILL)
        register_scenario_camera(service, scenario, policy_map=policy_map,
                                 epsilon_budget=5.0, sample_period=1.0)
        result = service.execute(people_query("crashy"),
                                 resume_token=args.token)
        report = {
            "raw": repr(result.raw_series_unsafe()),
            "noisy": repr(result.series()),
            "budgets": service.stats()["budgets"],
            "charge_seq": service.ledger.last_charge_seq,
            "metadata": {"resumed": result.metadata["resumed"],
                         "resume_token": result.metadata["resume_token"]},
            "recovery": service.ledger.last_recovery,
            "warm_hits": service.stats()["cache"].get("hits", 0),
        }
        service.close()
    Path(args.out).write_text(json.dumps(report, sort_keys=True))
    return 0


def _drive_crash_run(wal_dir: str, store_dir: str,
                     crash_at: tuple[str, int] | None = None):
    """Run one ``--crash-driver`` child, optionally armed to die at
    ``("chunk" | "seq", N)``; returns (returncode, report|None)."""
    out = Path(tempfile.mkdtemp(prefix="privid-crash-out-")) / "report.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--crash-driver",
           "--wal-dir", wal_dir, "--store-dir", store_dir,
           "--token", CRASH_TOKEN, "--out", str(out)]
    if crash_at is not None:
        cmd += [f"--crash-at-{crash_at[0]}", str(crash_at[1])]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    report = json.loads(out.read_text()) if out.exists() else None
    if proc.returncode not in (0, -signal.SIGKILL):
        print(proc.stdout[-2000:], file=sys.stderr)
        print(proc.stderr[-2000:], file=sys.stderr)
    return proc.returncode, report


def run_crash_restart() -> None:
    """The crash-restart plan: kill -9 mid-query, restart, resume, compare.

    Two crash windows per iteration, each against a never-crashed reference
    run over its own fresh WAL + store directories:

    * **mid-stream** — the kill lands after the query's fifth chunk, where
      the WAL holds its (unsynced) start record and nothing else: recovery
      must show the query uncharged and the resume must admit (and charge)
      normally.
    * **at-charge** — the kill lands on the very append that made the
      charge durable, before the in-memory ledger ever applied it: replay
      must reconstruct the charge from the WAL alone and the resume must
      *skip* admission (charging again would double-bill the analyst).

    Both windows must end with budgets exactly equal to the reference and
    the resumed query byte-identical, with pre-crash chunks served warm
    from the shared disk store.  The whole cycle runs twice; everything
    observable must replay bit-identically across iterations.
    """
    signatures = []
    for iteration in range(2):
        label = f"[crash-restart iter {iteration}]"
        observed: list[object] = []
        ref_code, ref = _drive_crash_run(
            tempfile.mkdtemp(prefix="privid-crwal-ref-"),
            tempfile.mkdtemp(prefix="privid-crstore-ref-"))
        check(ref_code == 0 and ref is not None,
              f"{label} never-crashed reference run completed")
        if ref is None:
            return
        check(ref["charge_seq"] > 0,
              f"{label} reference charged at WAL seq {ref['charge_seq']}")
        observed.append((ref["raw"], ref["noisy"], ref["budgets"]))
        windows = (("mid-stream", ("chunk", 5)),
                   ("at-charge", ("seq", ref["charge_seq"])))
        for window, crash_at in windows:
            wal_dir = tempfile.mkdtemp(prefix=f"privid-crwal-{window}-")
            store_dir = tempfile.mkdtemp(prefix=f"privid-crstore-{window}-")
            code, report = _drive_crash_run(wal_dir, store_dir,
                                            crash_at=crash_at)
            check(code == -signal.SIGKILL,
                  f"{label} {window}: service died by SIGKILL at "
                  f"{crash_at[0]} {crash_at[1]} (rc={code})")
            check(report is None,
                  f"{label} {window}: killed run released no result")
            code, resumed = _drive_crash_run(wal_dir, store_dir)
            check(code == 0 and resumed is not None,
                  f"{label} {window}: restart over the same WAL recovered "
                  f"and finished")
            if resumed is None:
                continue
            check(resumed["metadata"]["resumed"] is True
                  and resumed["metadata"]["resume_token"] == CRASH_TOKEN,
                  f"{label} {window}: query resumed under its token")
            check(resumed["raw"] == ref["raw"]
                  and resumed["noisy"] == ref["noisy"],
                  f"{label} {window}: resumed raw + noisy releases "
                  f"byte-identical to the never-crashed run")
            check(resumed["budgets"] == ref["budgets"],
                  f"{label} {window}: budgets exactly conserved — "
                  f"no double-charge (remaining_min="
                  f"{resumed['budgets']['campus']['remaining_min']})")
            check(resumed["recovery"]["records_replayed"] > 0,
                  f"{label} {window}: recovery replayed "
                  f"{resumed['recovery']['records_replayed']} WAL records")
            charged_at_recovery = resumed["recovery"]["charged_queries"]
            if window == "at-charge":
                check(charged_at_recovery == 1,
                      f"{label} at-charge: the durable charge was "
                      f"reconstructed from the WAL alone")
            else:
                check(charged_at_recovery == 0,
                      f"{label} mid-stream: the query was uncharged at "
                      f"recovery; the resume admitted and charged it once")
            check(resumed["warm_hits"] > 0,
                  f"{label} {window}: resume served {resumed['warm_hits']} "
                  f"pre-crash chunks warm from the shared store")
            stranded = sorted(str(p) for p in Path(wal_dir).glob("*.tmp"))
            check(not stranded,
                  f"{label} {window}: no stranded WAL temp files "
                  f"{stranded or ''}")
            observed.append((resumed["raw"], resumed["noisy"],
                             resumed["budgets"], resumed["recovery"]))
        if Path("/dev/shm").exists():
            leaked = sorted(str(entry) for entry
                            in Path("/dev/shm").glob("privid-bc-*"))
            check(not leaked,
                  f"{label} no leaked shared-memory segments {leaked or ''}")
        signatures.append(json.dumps(observed, sort_keys=True))
    check(signatures[0] == signatures[1],
          "[crash-restart] both iterations byte-identical (replay "
          "determinism)")


def main() -> int:
    scenario = build_scenario("campus", scale=0.2, duration_hours=0.2, seed=7)
    policy_map = scenario_policy_map(scenario, k_segments=1)
    reference_outputs, reference_budgets = run_serial(scenario, policy_map)

    for plan, exact_replay in PLANS:
        logs = []
        for attempt in range(2):
            with warnings.catch_warnings():
                # Chaos runs warn by design (dead shards, open breakers,
                # serial fallback); the checks below are the signal.
                warnings.simplefilter("ignore", RuntimeWarning)
                outputs, budgets, injector, health, dispatch = run_chaos(
                    scenario, policy_map, plan)
            label = f"[{plan.name} run {attempt}]"
            check(outputs == reference_outputs,
                  f"{label} raw + noisy releases byte-identical to serial")
            check(budgets == reference_budgets,
                  f"{label} per-camera ledger balances conserved "
                  f"(remaining_min={budgets['campus']['remaining_min']})")
            check(len(injector.fired) > 0,
                  f"{label} the plan actually fired "
                  f"({len(injector.fired)} events: {injector.summary()})")
            check(health["status"] in ("ok", "degraded"),
                  f"{label} service stayed serving (health={health['status']})")
            if Path("/dev/shm").exists():
                leaked = sorted(str(entry) for entry
                                in Path("/dev/shm").glob("privid-bc-*"))
                check(not leaked,
                      f"{label} every shared-memory broadcast segment "
                      f"unlinked at engine shutdown {leaked or ''}")
            if plan is SHM_BINARY_CHAOS:
                # The scenario only means anything if the fast path engaged:
                # the killed worker must have been holding a real attachment.
                check(dispatch["shm_segments"] > 0,
                      f"{label} broadcasts used the shared-memory fast path "
                      f"({dispatch['shm_segments']} segments)")
            logs.append(replay_signature(injector.log()))
        if exact_replay:
            check(logs[0] == logs[1],
                  f"[{plan.name}] same plan + same seed fired the same "
                  f"fault sequence ({len(logs[0])} events)")

    # ---- deadlines: a timed-out query is typed and charges nothing.
    with QueryService(seed=3, cache="memory") as service:
        register_scenario_camera(service, scenario, policy_map=policy_map,
                                 epsilon_budget=5.0, sample_period=1.0)
        future = service.submit(people_query("doomed"), timeout=1e-6)
        try:
            future.result()
            timed_out = False
        except QueryTimeoutError:
            timed_out = True
        check(timed_out, "[deadline] past-deadline query raises QueryTimeoutError")
        remaining = service.stats()["budgets"]["campus"]["remaining_min"]
        check(remaining == 5.0,
              f"[deadline] nothing charged on timeout (remaining={remaining})")
        service.execute(people_query("clean"))
        counters = service.stats()["queries"]
        check(counters["timed_out"] == 1 and counters["completed"] == 1,
              f"[deadline] counters typed correctly: {counters}")

    # ---- crash consistency: kill -9 mid-query, recover, resume, compare.
    run_crash_restart()

    if FAILURES:
        print(f"\n{len(FAILURES)} chaos check(s) failed")
        return 1
    print("\nchaos smoke: all checks passed")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--crash-driver", action="store_true",
                        help="internal: run one durable-service child of the "
                             "crash-restart plan")
    parser.add_argument("--wal-dir")
    parser.add_argument("--store-dir")
    parser.add_argument("--token", default=CRASH_TOKEN)
    parser.add_argument("--crash-at-chunk", type=int, default=None)
    parser.add_argument("--crash-at-seq", type=int, default=None)
    parser.add_argument("--out")
    parsed = parser.parse_args()
    if parsed.crash_driver:
        sys.exit(crash_driver(parsed))
    sys.exit(main())
