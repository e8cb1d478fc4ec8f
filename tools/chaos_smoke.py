"""CI chaos harness: seeded fault plans against the always-on service.

The robustness contract under test, for every :class:`FaultPlan` below:

1. **byte-identity** — a :class:`~repro.service.QueryService` driven through
   transport drops/tears, shard worker crashes and store IO errors returns
   raw values *and* noisy releases byte-identical to the same-seed
   fault-free serial service;
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
   ``*.tmp`` files in the WAL directories;
6. **store layout** — every chunk-store directory a run used holds only
   ``<key>.json`` entries at its root (no subdirectory), each of which
   decodes, every row-less one the 22-byte constant, and no ``*.tmp``.

Run with: ``python -X dev -W error::ResourceWarning tools/chaos_smoke.py``
(development mode makes a leaked handle or an unreaped shard process a
warning, and the flag makes it an error, counted as a failed check;
``--crash-driver`` is the internal child-process mode of the crash-restart
plan — the process that actually gets SIGKILLed.)
"""

from __future__ import annotations

import argparse
import gc
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
# Frame arrival order is the OS scheduler's, so this plan asserts
# byte-identity and conservation, not an exact fired log.
TRANSPORT_CHAOS = FaultPlan(name="transport-chaos", seed=11, rules=(
    FaultRule(site="transport.*.result", kind=FaultKind.DROP_FRAME,
              probability=0.15, max_fires=3),
    FaultRule(site="transport.*.result", kind=FaultKind.TORN_FRAME,
              at=(5,), max_fires=1),
    FaultRule(site="transport.*.task", kind=FaultKind.DELAY,
              probability=0.2, delay=0.05, max_fires=5),
))

# A shard worker dies right after accepting protocol seq 4, and the first
# respawn attempt is refused (the slot stays empty until the next stream
# start refills it).  The crash trigger is a pure function of the seq, so
# the fired schedule must replay.
WORKER_CRASH = FaultPlan(name="worker-crash", seed=23, rules=(
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

# Payload mayhem: store entries are scribbled over mid-run, exercising the
# corrupt-entry self-heal, and a local worker is killed *while it holds the
# footage part and manifest pushed to it*, so its replacement must be pushed
# them again.  Both triggers are deterministic (fixed op indices / seq), so
# the fired log must replay.
PAYLOAD_CHAOS = FaultPlan(name="payload-chaos", seed=51, rules=(
    FaultRule(site="store.get", kind=FaultKind.CORRUPT, at=(3, 11),
              max_fires=2),
    FaultRule(site="transport.*.task", kind=FaultKind.CRASH, after_seq=6),
))

PLANS = [(TRANSPORT_CHAOS, False), (WORKER_CRASH, True), (STORE_CHAOS, True),
         (PAYLOAD_CHAOS, True)]


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


ENTRY_NAME = re.compile(r"[0-9a-f]{64}\.json")
TEMP_NAME = re.compile(r"[0-9a-f]{64}\.json\.[0-9a-f]{12}-\d+\.tmp")
EMPTY_ENTRY = b'{"format":1,"rows":[]}'


def check_store(directory: str, label: str, *, killed: bool = False) -> None:
    """The chunk store's layout after a run: one flat directory of whole
    entries, and no temp file unless the run was ``killed``."""
    entries, temps, other = [], [], []
    with os.scandir(directory) as listing:
        for item in listing:
            if item.is_file() and ENTRY_NAME.fullmatch(item.name):
                entries.append(item.path)
            elif item.is_file() and TEMP_NAME.fullmatch(item.name):
                temps.append(item.name)
            else:
                other.append(item.name)
    check(bool(entries) and not other,
          f"{label} store root holds only <key>.json entries, no subdirectory "
          f"({len(entries)} entries{', other: ' + repr(other) if other else ''})")
    undecodable = []
    for path in entries:
        data = Path(path).read_bytes()
        try:
            payload = json.loads(data)
            rows = payload["rows"]
            whole = type(payload["format"]) is int and payload["format"] == 1 \
                and type(rows) is list and all(type(row) is dict for row in rows) \
                and (rows or data == EMPTY_ENTRY)
        except (ValueError, TypeError, KeyError):
            whole = False
        if not whole:
            undecodable.append(os.path.basename(path))
    check(not undecodable,
          f"{label} every entry decodes, every row-less one the 22-byte "
          f"constant {undecodable or ''}")
    # A kill mid-put may strand its temp, and the restart's sweep spares a
    # temp younger than the sweep age: after a kill only its name is checked.
    if not killed:
        check(not temps, f"{label} no stranded store temp files {temps or ''}")


def fail_on_unraisable(unraisable) -> None:
    """Under ``-W error::ResourceWarning`` a leaked handle raises in its
    finalizer, where nothing catches it and the exit status would not move:
    report it and count it as a failed check."""
    sys.__unraisablehook__(unraisable)
    check(False, f"no leaked handle ({unraisable.exc_value!r})")


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
    dispatch stats with their per-shard split, store directory)."""
    injector = plan.injector()
    store_dir = tempfile.mkdtemp(prefix=f"privid-chaos-{plan.name}-")
    # Generous failure-detection windows keep a stalled but live shard (a
    # busy shared runner) from being declared dead; the plans inject their
    # own failures deterministically.
    engine = ShardedEngine(2, chunksize=1, heartbeat_interval=0.2, heartbeat_timeout=30.0,
                           startup_grace=120.0, task_timeout=2.0, max_task_retries=5)
    try:
        with QueryService(seed=3, engine=engine, cache=f"tiered:{store_dir}",
                          fault_injector=injector) as service:
            register_scenario_camera(service, scenario, policy_map=policy_map,
                                     epsilon_budget=5.0, sample_period=1.0)
            outputs, budgets = drive_queries(service)
            health = service.health()
            dispatch = engine.dispatch_stats_dict()
        return outputs, budgets, injector, health, dispatch, store_dir
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
        ref_store = tempfile.mkdtemp(prefix="privid-crstore-ref-")
        ref_code, ref = _drive_crash_run(
            tempfile.mkdtemp(prefix="privid-crwal-ref-"), ref_store)
        check(ref_code == 0 and ref is not None,
              f"{label} never-crashed reference run completed")
        if ref is None:
            return
        check_store(ref_store, f"{label} reference:")
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
            check_store(store_dir, f"{label} {window}:", killed=True)
            observed.append((resumed["raw"], resumed["noisy"],
                             resumed["budgets"], resumed["recovery"]))
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
                # Chaos runs warn by design (dead shards, refused respawns,
                # serial fallback); the checks below are the signal.
                warnings.simplefilter("ignore", RuntimeWarning)
                outputs, budgets, injector, health, dispatch, store_dir = run_chaos(
                    scenario, policy_map, plan)
            label = f"[{plan.name} run {attempt}]"
            check_store(store_dir, label)
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
            if plan is PAYLOAD_CHAOS:
                # The scenario only means anything if the killed worker held
                # pushed payloads and its replacement (shard 2, the first
                # opened after the kill) was pushed them again.
                (killed,) = [re.search(r"worker(\d+)", event.site)[1]
                             for event in injector.fired
                             if event.kind is FaultKind.CRASH]
                pushes = {shard: stats["pushes"]
                          for shard, stats in dispatch["per_shard"].items()}
                check(pushes.get(killed, 0) > 0 and pushes.get("2", 0) > 0,
                      f"{label} payloads were pushed to the killed worker "
                      f"{killed} and again to its replacement 2 ({pushes})")
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

    gc.collect()  # finalize what the runs dropped while the hook still counts
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
    sys.unraisablehook = fail_on_unraisable
    sys.exit(main())
