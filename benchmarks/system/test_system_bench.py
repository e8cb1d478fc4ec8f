"""Tests beside the benchmark: the rules its numbers rest on, and a quick smoke.

Collected by the tier-1 run (``python -m pytest``); the whole file stays
under fifteen seconds by running the smoke's workload-rounds in-process
instead of in fresh interpreters (the numbers are not looked at, only that
every named metric is there and the correctness gate passes).
"""

from __future__ import annotations

import functools
import json
import re
import time
from pathlib import Path

import pytest

from benchmarks.system import cli, spec, stats, workloads
from benchmarks.system import inputs as gen
from benchmarks.system.tracing import Recorder, covered_time, self_times, traced
from repro import PrividSystem

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ------------------------------------------------------------- percentiles

@pytest.mark.parametrize("count, level", [
    (1000, 99.0), (200, 95.0), (199, 90.0), (100, 90.0), (99, 75.0),
    (40, 75.0), (39, 50.0), (5, 50.0)])
def test_supported_percentile_needs_ten_samples_beyond(count, level):
    assert stats.supported_percentile(count) == level


def test_capped_percentile_reports_the_level_it_used():
    samples = [float(value) for value in range(1, 101)]
    assert stats.capped_percentile(samples, 90.0) == (90.0, 90.0)
    # 99 samples: nearest-rank p90 is the 90th, only nine lie beyond it.
    assert stats.capped_percentile(samples[:99], 90.0) == (75.0, 75.0)
    # Asking for less than the samples support is never raised.
    assert stats.capped_percentile(samples * 10, 90.0)[1] == 90.0


def test_verdicts():
    def rounds(*values):
        return stats.summary(values)

    steady = rounds(100.0, 101.0, 102.0)
    assert stats.verdict(steady, rounds(104.0, 105.0, 106.0), "lower", 0.10) == "ok"
    assert stats.verdict(steady, rounds(120.0, 121.0, 122.0), "lower", 0.10) == "regression"
    assert stats.verdict(steady, rounds(80.0, 81.0, 82.0), "higher", 0.10) == "regression"
    assert stats.verdict(steady, rounds(80.0, 81.0, 82.0), "lower", 0.10) == "ok"
    # Wide, overlapping rounds cannot resolve a bound this tight ...
    noisy = rounds(90.0, 115.0, 140.0)
    assert stats.verdict(steady, noisy, "lower", 0.10) == "unresolved"
    # ... but a wide set that never overlaps the base still decides.
    assert stats.verdict(steady, rounds(150.0, 190.0, 230.0), "lower", 0.10) == "regression"


# ------------------------------------------------------------------- spans

def test_self_time_is_duration_minus_what_children_cover():
    # parent 0..10; children 1..3 and 2..6 overlap (a stream span interleaves
    # with its consumer's calls), 8..12 sticks out past the parent.
    spans = [("t", 1, None, "parent", 0.0, 10.0),
             ("t", 2, 1, "stream", 1.0, 3.0),
             ("t", 3, 1, "call", 2.0, 6.0),
             ("t", 4, 1, "late", 8.0, 12.0),
             ("t", 5, 3, "leaf", 2.5, 3.5)]
    own = self_times(spans)
    covered = covered_time(0.0, 10.0, [(1.0, 3.0), (2.0, 6.0), (8.0, 12.0)])
    assert covered == pytest.approx(7.0)          # 1..6 and 8..10
    assert covered <= 10.0                        # children never exceed the parent
    assert own[1] + covered == pytest.approx(10.0)
    assert own[3] == pytest.approx(3.0) and own[5] == pytest.approx(1.0)
    assert all(value >= 0.0 for value in own.values())


def test_traced_records_parents_and_restores_the_program():
    original = PrividSystem.__dict__["execute"]
    recorder = Recorder()
    with traced(recorder):
        assert PrividSystem.__dict__["execute"] is not original
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
    assert PrividSystem.__dict__["execute"] is original
    inner, outer = recorder.spans
    assert inner[3] == "inner" and inner[2] == outer[1] and outer[2] is None
    assert outer[4] <= inner[4] <= inner[5] <= outer[5]


# ------------------------------------------------------------------ inputs

@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(workload):
    first = gen.inputs_digest(gen.generate(workload, 5))
    assert first == gen.inputs_digest(gen.generate(workload, 5))
    assert first != gen.inputs_digest(gen.generate(workload, 6))
    pinned = gen.inputs_digest(gen.generate(workload, spec.DEFAULT_SEED))
    assert pinned == spec.INPUTS_DIGESTS[workload]


def test_admit_burst_reference_ledger_admits_two_thirds():
    size = spec.sizes("admit_burst")
    expected = [item.expect for item in gen.generate("admit_burst", spec.DEFAULT_SEED)]
    assert expected.count("completed") == size["slots"] * int(size["camera_epsilon"])
    assert expected.count("denied") == len(expected) // 3


# ---------------------------------------------------------- BENCHMARK.json

def test_benchmark_json_mirrors_the_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/system"]
    assert bench["command"] == ["python3", "benchmarks/system/run.py"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert {w["name"]: w["why"] for w in bench["workloads"]} == spec.WORKLOADS
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"])
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == list(spec.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(spec.PER_LAYER)
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for m in bench["end_to_end"] + bench["per_layer"])


# ------------------------------------------------------------------- smoke

@pytest.fixture
def in_process_laps(monkeypatch, tmp_path):
    """Run workload-rounds in this process: same code, no interpreter start,
    and the (read-only) scenes built once instead of once per round."""
    def lap(workload, seed, *, quick=False, trace=False, gate=True, out=None):
        summary = workloads.run_lap(workload, seed, quick=quick, trace=trace, gate=gate,
                                    spawned_at=time.perf_counter(), tmp_root=tmp_path,
                                    spans_path=None)
        return json.loads(json.dumps(summary))
    monkeypatch.setattr(cli, "spawn_lap", lap)
    monkeypatch.setattr(workloads, "build_scenes", functools.cache(workloads.build_scenes))


def test_quick_run_reports_every_named_metric_and_passes_the_gate(
        in_process_laps, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--quick", "--rounds", "1", "--seed", "12",
                     "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["failed"] == 0
    seen = set(name for name, value in report["ladder"].items() if value is not None)
    for workload in spec.WORKLOADS:
        total = report["workloads"][workload]
        assert total["failed"] == 0 and total["attempted"] >= 1
        for name, unit, _, _ in spec.END_TO_END:
            assert total["end_to_end"][name]["unit"] == unit
            assert total["end_to_end"][name]["value"] > 0
        seen.update(total["per_layer"])
    assert seen >= {name for name, _, _ in spec.PER_LAYER}
    printed = capsys.readouterr().out
    assert all(name in printed for name, _, _ in spec.PER_LAYER)
    assert all(name in printed for name, _, _, _ in spec.END_TO_END)


def test_driver_form_prints_one_result_line(in_process_laps, capsys):
    assert cli.main(["--workload", "admit_burst", "--seed", "12", "--seconds", "0.1",
                     "--trace", "0", "--quick"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in line["metrics"].items()} \
        == {name: unit for name, unit, _, _ in spec.END_TO_END}


def test_merge_traced_falls_back_in_order():
    def lap(**layers):
        return {"workload": "cold_scan", "layers": layers, "wall_s": 2.2, "speed": 2.0}
    merged = cli.merge_traced(1.0, lap(**{"query.parse_ms": 1.0}),
                              [lap(**{"query.parse_ms": 2.0, "cv.detect_ms": 3.0}),
                               lap(**{"cv.detect_ms": 4.0, "service.submit_ms": 5.0})])
    assert merged["query.parse_ms"] == 1.0
    assert merged["cv.detect_ms"] == 3.0
    assert merged["service.submit_ms"] == 5.0
    assert merged["core.cache.key_ms"] is None
    assert merged["bench.trace_overhead_share"] == pytest.approx(0.1)
    assert set(merged) == {name for name, _, _ in spec.PER_LAYER}
