"""Command line: ``run`` (full report), the one-workload driver form, ``compare``.

Every workload-round runs in its own fresh subprocess, one at a time, so
set-up time, peak RSS and children's CPU are per workload and nothing leaks
between rounds.  ``run`` interleaves the rounds of all workloads so that
minutes-scale machine drift lands on every workload alike, then repeats each
workload once with span recorders installed for the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy

from benchmarks.system import inputs as gen
from benchmarks.system import spec, stats

_RUN_PY = Path(__file__).with_name("run.py")
#: Scratch space for stores and WAL directories: inside the working
#: directory (the driver's checkout), ignored by git, removed after each lap.
_TMP_ROOT = Path(".bench_tmp")
_LAP_TIMEOUT_S = 150
#: The driver form runs rounds until this many have run *and* the measured
#: phases add up to ``--seconds``.
_MIN_LAPS = 3
_MAX_LAPS = 6

_E2E = {name: (unit, better, bound) for name, unit, better, bound in spec.END_TO_END}
_LAYER_UNITS = {name: unit for name, unit, _ in spec.PER_LAYER}


# ------------------------------------------------------------------- laps

def spawn_lap(workload: str, seed: int, *, quick: bool = False, trace: bool = False,
              gate: bool = True, out: Path | None = None) -> dict[str, Any]:
    """Run one workload-round in a fresh interpreter and return its summary."""
    command = [sys.executable, str(_RUN_PY), "lap", "--workload", workload,
               "--seed", str(seed), "--trace", str(int(trace)),
               "--gate", str(int(gate))]
    if quick:
        command.append("--quick")
    if out is not None:
        command += ["--out", str(out)]
    # Set-up time starts here, before the interpreter exists (perf_counter is
    # CLOCK_MONOTONIC on Linux: one clock for parent and child).
    command += ["--spawned-at", repr(time.perf_counter())]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=_LAP_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} round exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def lap_main(args: argparse.Namespace) -> int:
    """Entry of the lap subprocess: run the round here, print its JSON."""
    from benchmarks.system.workloads import run_lap

    _TMP_ROOT.mkdir(exist_ok=True)
    spans = None
    if args.out is not None:
        spans = Path(args.out) / f"spans-{args.workload}-{args.seed}.jsonl"
    summary = run_lap(args.workload, args.seed, quick=args.quick,
                      trace=bool(args.trace), gate=bool(args.gate),
                      spawned_at=args.spawned_at, tmp_root=_TMP_ROOT,
                      spans_path=spans)
    try:
        _TMP_ROOT.rmdir()
    except OSError:
        pass  # another round's directory is still there
    print(json.dumps(summary))
    return 0


# ------------------------------------------------------------- aggregation

def aggregate(laps: list[dict[str, Any]]) -> dict[str, Any]:
    """Reduce one workload's untraced rounds.

    Latency percentiles come from the pooled samples of all rounds (the
    printed percentile is the highest with at least ten samples beyond it);
    rate, CPU, RSS and set-up metrics are the median of per-round values with
    min/max kept.  Rounds of one seed must release identical bytes.
    """
    pooled = [sample for lap in laps for sample in lap["latencies_ms"]]
    p90, level = stats.capped_percentile(pooled, 90.0)
    end_to_end = {name: stats.summary([lap["end_to_end"][name] for lap in laps])
                  for name in _E2E}
    end_to_end["query_p50_ms"]["value"] = stats.percentile(pooled, 50.0)
    end_to_end["query_p90_ms"]["value"] = p90
    for name, (unit, _, _) in _E2E.items():
        end_to_end[name]["unit"] = unit
    failures = [message for lap in laps for message in lap["failures"]]
    failed = sum(lap["failed"] for lap in laps)
    digests = {lap["releases_digest"] for lap in laps}
    if len(digests) != 1:
        failures.append(f"releases_digest differs across rounds: {sorted(digests)}")
        failed += 1
    layers = {}
    for name in sorted({name for lap in laps for name in lap["layers"]}):
        values = [lap["layers"][name] for lap in laps
                  if lap["layers"].get(name) is not None]
        if values:
            layers[name] = statistics.median(values)
    return {
        "attempted": sum(lap["attempted"] for lap in laps), "failed": failed,
        "failures": failures[:8], "samples": len(pooled), "percentile": level,
        "end_to_end": end_to_end, "layers": layers, "exact": laps[0]["exact"],
        "inputs_digest": laps[0]["inputs_digest"],
        "releases_digest": sorted(digests)[0],
        "phase_cost": statistics.median(phase_cost(lap) for lap in laps),
    }


def phase_cost(lap: dict[str, Any]) -> float:
    """What tracing overhead is measured on: the measured phase's wall time at
    reference speed, or CPU per query where the arrival schedule sets the wall."""
    if lap["workload"] == "serve_open":
        return lap["end_to_end"]["cpu_ms_per_query"]
    return lap["wall_s"] / lap["speed"]


def check_pinned_inputs(workload: str, seed: int, quick: bool) -> None:
    """At the default seed the generated load must be the pinned one."""
    if seed != spec.DEFAULT_SEED or quick:
        return
    digest = gen.inputs_digest(gen.generate(workload, seed))
    if digest != spec.INPUTS_DIGESTS[workload]:
        raise SystemExit(
            f"inputs_digest of {workload} at seed {seed} is {digest}, pinned "
            f"{spec.INPUTS_DIGESTS[workload]}: the load changed (generate_schedule "
            f"or the query generator); re-pin deliberately or revert")


def merge_traced(untraced_cost: float, traced: dict[str, Any],
                 fallbacks: list[dict[str, Any]]) -> dict[str, float | None]:
    """Every per-layer metric for one workload from its traced round.

    A layer the workload never enters has no value of its own; it takes the
    first fallback round's (the engine ladder, then the quick ``serve_open``
    probe), so every metric is a measured number on every workload.
    """
    merged: dict[str, float | None] = {}
    for name in _LAYER_UNITS:
        for source in (traced, *fallbacks):
            value = source["layers"].get(name)
            if value is not None:
                merged[name] = value
                break
        else:
            merged[name] = None
    merged["bench.trace_overhead_share"] = phase_cost(traced) / untraced_cost - 1.0
    return merged


# ------------------------------------------------------------- driver form

def drive(args: argparse.Namespace) -> int:
    """``--workload W --seed N --seconds S --trace T``: one JSON line out."""
    workload, seed = args.workload, args.seed
    check_pinned_inputs(workload, seed, args.quick)
    if not args.trace:
        laps: list[dict[str, Any]] = []
        measured = 0.0
        while len(laps) < _MAX_LAPS and (len(laps) < _MIN_LAPS
                                         or measured < args.seconds):
            # Same seed, same inputs: the re-execution gate runs once, the
            # digest comparison covers the other rounds.
            laps.append(spawn_lap(workload, seed, quick=args.quick, gate=not laps))
            measured += laps[-1]["wall_s"]
        total = aggregate(laps)
        metrics = {name: {"value": entry["value"], "unit": entry["unit"]}
                   for name, entry in total["end_to_end"].items()}
    else:
        untraced = spawn_lap(workload, seed, quick=args.quick)
        traced = spawn_lap(workload, seed, quick=args.quick, trace=True,
                           gate=False, out=args.out)
        fallbacks = [spawn_lap(spec.LADDER, seed, quick=args.quick, trace=True)]
        if workload != "serve_open":
            fallbacks.append(spawn_lap("serve_open", seed, quick=True, trace=True,
                                       gate=False))
        layers = merge_traced(phase_cost(untraced), traced, fallbacks)
        total = aggregate([untraced, traced])  # the two must release equal bytes
        total["failed"] += fallbacks[0]["failed"]
        total["failures"] += fallbacks[0]["failures"]
        # A kind create_engine no longer knows has no line to fit: 0.0 (a
        # fit never yields exactly that) keeps the line numeric.
        metrics = {name: {"value": 0.0 if value is None else value,
                          "unit": _LAYER_UNITS[name]}
                   for name, value in layers.items()}
    for message in total["failures"]:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({"correct": total["failed"] == 0,
                      "attempted": total["attempted"], "failed": total["failed"],
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------- run form

def environment() -> dict[str, Any]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def run(args: argparse.Namespace) -> int:
    """Interleaved rounds of every workload, one traced round, the report."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for workload in spec.WORKLOADS:
        check_pinned_inputs(workload, args.seed, args.quick)
    laps: dict[str, list[dict[str, Any]]] = {name: [] for name in spec.WORKLOADS}
    for round_index in range(args.rounds):
        for workload in spec.WORKLOADS:
            print(f"round {round_index + 1}/{args.rounds}: {workload}", file=sys.stderr)
            laps[workload].append(spawn_lap(workload, args.seed, quick=args.quick,
                                            gate=round_index == 0))
    print("traced round", file=sys.stderr)
    ladder = spawn_lap(spec.LADDER, args.seed, quick=args.quick, trace=True, out=out)
    report: dict[str, Any] = {
        "seed": args.seed, "rounds": args.rounds, "quick": args.quick,
        "environment": environment(), "sizes": {
            name: spec.sizes(name, quick=args.quick)
            for name in (*spec.WORKLOADS, spec.LADDER)},
        "ladder": ladder["layers"], "workloads": {}}
    failed = ladder["failed"]
    for workload in spec.WORKLOADS:
        total = aggregate(laps[workload])
        traced = spawn_lap(workload, args.seed, quick=args.quick, trace=True,
                           gate=False, out=out)
        if traced["releases_digest"] != total["releases_digest"]:
            total["failures"].append("traced round released different bytes")
            total["failed"] += 1
        total["failed"] += traced["failed"]
        total["failures"] += traced["failures"]
        # Counted-every-round metrics keep their median over the untraced
        # rounds; the traced round adds what only spans can see.
        total["per_layer"] = {**{
            name: value for name, value
            in merge_traced(total["phase_cost"], traced, []).items() if value is not None},
            **total.pop("layers")}
        total["self_time_shares"] = dict(sorted(
            traced["shares"].items(), key=lambda item: -item[1])[:6])
        report["workloads"][workload] = total
        failed += total["failed"]
    report["failed"] = failed
    (out / "report.json").write_text(json.dumps(report, indent=1))
    print_report(report)
    print(f"\nreport written to {out / 'report.json'}", file=sys.stderr)
    return 1 if failed else 0


def _fmt(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def print_report(report: dict[str, Any]) -> None:
    """Every metric by name with its unit, per workload."""
    names = list(report["workloads"])
    print(f"seed {report['seed']}  rounds {report['rounds']}  "
          f"environment {report['environment']}")
    print("\nEnd-to-end (median [min..max] over rounds; percentiles pooled)")
    for workload in names:
        total = report["workloads"][workload]
        print(f"\n  {workload}: attempted {total['attempted']}, failed "
              f"{total['failed']} (failed_share "
              f"{total['failed'] / total['attempted']:.3f}), "
              f"p{total['percentile']:g} over {total['samples']} samples")
        for name, entry in total["end_to_end"].items():
            print(f"    {name:<18} {_fmt(entry['value']):>10} {entry['unit']:<4} "
                  f"[{_fmt(entry['min'])}..{_fmt(entry['max'])}]")
        for message in total["failures"]:
            print(f"    FAILED: {message}")
    print("\nPer-layer (traced round unless counted every round; '-' = layer not entered)")
    print(f"  {'metric':<40} {'unit':<6}" + "".join(f"{name:>14}" for name in names))
    for name, unit, _ in spec.PER_LAYER:
        if name.startswith("core.engine."):
            continue
        row = [report["workloads"][workload]["per_layer"].get(name)
               for workload in names]
        print(f"  {name:<40} {unit:<6}" + "".join(f"{_fmt(value):>14}" for value in row))
    print("\nEngine ladder (t = fixed + per_chunk * chunks; negative break-even = never)")
    for name, unit, _ in spec.PER_LAYER:
        if name.startswith("core.engine."):
            print(f"  {name:<40} {unit:<6}{_fmt(report['ladder'].get(name)):>14}")
    print("\nLargest self-time shares of query time (traced round)")
    for workload in names:
        shares = report["workloads"][workload]["self_time_shares"]
        print(f"  {workload:<14}" + "  ".join(
            f"{name} {share:.0%}" for name, share in list(shares.items())[:3]))


# ----------------------------------------------------------------- compare

def compare(args: argparse.Namespace) -> int:
    """The verdict later PRs are held to: per end-to-end metric x workload."""
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    regressions = 0
    calibs = []
    for report in (base, new):
        calibs.append(statistics.median(
            total["per_layer"]["bench.calib_ms"]
            for total in report["workloads"].values()))
    drift = abs(calibs[1] - calibs[0]) / calibs[0]
    print(f"bench.calib_ms {calibs[0]:.1f} -> {calibs[1]:.1f} ms"
          + (f"  machine_drift ({drift:.0%} > 10%): end-to-end values are "
             f"speed-normalised, per-layer values are not" if drift > 0.10 else ""))
    for workload, old in base["workloads"].items():
        fresh = new["workloads"].get(workload)
        if fresh is None:
            print(f"{workload}: missing from {args.new}")
            regressions += 1
            continue
        for key, label in (("inputs_digest", "inputs"), ("releases_digest", "outputs")):
            if old[key] != fresh[key]:
                print(f"{workload}: {label} changed ({old[key][:12]} -> {fresh[key][:12]})")
        for name, value in old["exact"].items():
            if fresh["exact"].get(name) != value:
                print(f"{workload}: exact count {name} changed "
                      f"{value} -> {fresh['exact'].get(name)}")
        if fresh["failed"]:
            print(f"{workload}: {fresh['failed']} failed of {fresh['attempted']}")
            regressions += 1
        for name, (unit, better, bound) in _E2E.items():
            before, after = old["end_to_end"][name], fresh["end_to_end"][name]
            outcome = stats.verdict(before, after, better, bound)
            regressions += outcome == "regression"
            print(f"{workload:<13} {name:<17} {outcome:<10} "
                  f"{_fmt(after['value'])} / {_fmt(before['value'])} {unit} = "
                  f"{after['value'] / before['value']:.3f} "
                  f"({better} is better, bound {bound:.2f})")
    return 1 if regressions else 0


def print_digests(_args: argparse.Namespace) -> int:
    """The ``inputs_digest`` of every workload at the default seed, to pin in spec.py."""
    print(json.dumps({name: gen.inputs_digest(gen.generate(name, spec.DEFAULT_SEED))
                      for name in spec.WORKLOADS}, indent=4))
    return 0


# -------------------------------------------------------------------- main

def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.system", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command")

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
        sub.add_argument("--quick", action="store_true",
                         help="a tenth of the work (tests and smoke runs)")
        sub.add_argument("--out", default=None,
                         help="directory for report.json and span files")

    run_parser = commands.add_parser("run", help="all workloads, traced round, report")
    common(run_parser)
    run_parser.add_argument("--rounds", type=int, default=spec.DEFAULT_ROUNDS)
    run_parser.set_defaults(handler=run, out=".bench_out")

    lap_parser = commands.add_parser("lap", help="(internal) one workload-round")
    common(lap_parser)
    lap_parser.add_argument("--workload", required=True,
                            choices=(*spec.WORKLOADS, spec.LADDER))
    lap_parser.add_argument("--trace", type=int, default=0)
    lap_parser.add_argument("--gate", type=int, default=1)
    lap_parser.add_argument("--spawned-at", type=float, required=True)
    lap_parser.set_defaults(handler=lap_main)

    compare_parser = commands.add_parser("compare", help="verdict between two reports")
    compare_parser.add_argument("base")
    compare_parser.add_argument("new")
    compare_parser.set_defaults(handler=compare)

    digests_parser = commands.add_parser("digests", help="print inputs digests to pin")
    digests_parser.set_defaults(handler=print_digests)

    if argv and argv[0].startswith("--"):
        # The BENCHMARK.json form: no sub-command, one workload, one JSON line.
        driver = argparse.ArgumentParser(prog="benchmarks/system/run.py")
        common(driver)
        driver.add_argument("--workload", required=True, choices=tuple(spec.WORKLOADS))
        driver.add_argument("--seconds", type=float, required=True)
        driver.add_argument("--trace", type=int, choices=(0, 1), default=0)
        return drive(driver.parse_args(argv))
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return args.handler(args)
