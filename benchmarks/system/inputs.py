"""Seeded input generation: the system under test receives only these.

Every workload's inputs are a pure function of ``(workload, seed, sizes)``:
a list of :class:`QueryInput` carrying query *text* in the Appendix-D
language (the analyst's interface), an arrival offset for the open loop, and
the outcome a reference ledger predicts.  ``inputs_digest`` fingerprints the
texts and offsets so a generator change cannot silently change the load.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.bench.serving import WorkloadConfig, generate_schedule, zipf_weights

from benchmarks.system import spec

EXECUTABLES = {"campus": "count_entering_people.py",
               "highway": "count_entering_cars.py"}

#: The three SELECT shapes; the first two release once whatever the window.
SELECT_SHAPES = (
    "SELECT COUNT(*) FROM rows CONSUMING {eps};",
    "SELECT SUM(range(dy, 0, 5)) FROM rows CONSUMING {eps};",
    "SELECT COUNT(*) FROM rows GROUP BY hour(chunk) CONSUMING {eps};",
)
#: generate_schedule's query kinds -> SELECT shape.
_KIND_SHAPE = {"count": 0, "sum": 1, "count_bucketed": 2}


@dataclass(frozen=True)
class QueryInput:
    """One query the benchmark sends: text in, plus what the generator knows."""

    text: str
    camera: str
    begin: float
    end: float
    due_s: float | None = None     # open loop: arrival offset from phase start
    expect: str = "completed"      # reference-ledger outcome ("denied" possible)


def query_input(camera: str, begin: float, end: float, shape: int, eps: float,
                **known: object) -> QueryInput:
    """A SPLIT/PROCESS/SELECT query over ``[begin, end)`` of one camera."""
    chunk_s = spec.SIZES["scene"]["chunk_s"]
    text = (
        f"SPLIT {camera} BEGIN {begin:g} END {end:g} BY TIME {chunk_s}sec STRIDE 0sec "
        f"WITH MASK owner INTO chunks;\n"
        f"PROCESS chunks USING {EXECUTABLES[camera]} TIMEOUT 5sec PRODUCING 5 ROWS "
        f'WITH SCHEMA (kind:STRING="", dy:NUMBER=0) INTO rows;\n'
        + SELECT_SHAPES[shape].format(eps=f"{eps:g}"))
    return QueryInput(text=text, camera=camera, begin=begin, end=end, **known)


def warm_up(camera: str) -> QueryInput:
    """Eight chunks at the start of the footage, sent uncharged in set-up."""
    return query_input(camera, 0.0, 8.0 * spec.SIZES["scene"]["chunk_s"], 0, 1.0)


def distinct_chunks(items: list[QueryInput]) -> int:
    """How many different (camera, chunk) pairs the queries cover."""
    chunk_s = spec.SIZES["scene"]["chunk_s"]
    return len({(item.camera, start) for item in items
                for start in range(int(item.begin), int(item.end), chunk_s)})


def _zipf_pick(rng: random.Random, ranked: list, exponent: float) -> object:
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=1)[0]


def _window_s(size: dict) -> float:
    return size["window_chunks"] * spec.SIZES["scene"]["chunk_s"]


def _cold_windows(workload: str, seed: int, size: dict) -> list[QueryInput]:
    """The same distinct windows on every seed, each once, in seeded order;
    the two single-release shapes rotate by seed.  ``window_stride`` spaces
    the windows out over the footage (day and night differ in density)."""
    rng = random.Random(f"{workload}/{seed}")
    window = _window_s(size)
    order = [index * size["window_stride"] for index in range(size["query_count"])]
    rng.shuffle(order)
    return [query_input("campus", index * window, (index + 1) * window,
                        (position + seed) % 2, 1.0)
            for position, index in enumerate(order)]


def _warm_windows(size: dict) -> list[tuple[float, float]]:
    """The working set ``warm_sweep`` pre-fills: every other window from 00:00."""
    window = _window_s(size)
    return [(2 * index * window, (2 * index + 1) * window)
            for index in range(size["windows"])]


def _warm_sweep(seed: int, size: dict) -> list[QueryInput]:
    rng = random.Random(f"warm_sweep/{seed}")
    ranked = _warm_windows(size)
    rng.shuffle(ranked)
    inputs = []
    for position in range(size["query_count"]):
        begin, end = _zipf_pick(rng, ranked, size["zipf"])
        inputs.append(query_input("campus", begin, end, (position + seed) % 3,
                                  rng.choice((0.1, 0.5, 1.0))))
    return inputs


def _hot_windows(size: dict) -> list[tuple[float, float]]:
    """The popular windows ``serve_open`` stores in set-up, from 08:00 on."""
    window = _window_s(size)
    return [(8 * 3600.0 + index * window, 8 * 3600.0 + (index + 1) * window)
            for index in range(size["hot_windows"])]


def _serve_open(seed: int, size: dict) -> list[QueryInput]:
    """Tenants, cameras and kinds from ``generate_schedule``; arrivals evenly
    spaced at the fixed rate (the schedule's Poisson gaps would make the
    offered load itself differ from seed to seed).

    A store entry is keyed by the chunk's index in its window, so a query
    either repeats a stored window (all hits) or opens a fresh one (all
    misses).  Both the cameras' shares of the arrivals (their zipf weights)
    and the fresh share of each camera's arrivals are exact on every seed;
    the seed decides order, tenants, kinds and which stored window repeats.
    Misses are rare enough that the median query is a hit that ran alone and
    the p90 a miss, whatever the seed.
    """
    count = size["query_count"]
    cameras = tuple(EXECUTABLES)
    schedule = generate_schedule(WorkloadConfig(
        seed=seed, mode="open", num_tenants=size["tenants"], cameras=cameras,
        tenant_skew=1.0, camera_skew=0.8, arrival_rate_per_s=size["rate_per_s"],
        duration_s=8.0 * count / size["rate_per_s"]))
    quota = {camera: round(count * weight)
             for camera, weight in zip(cameras, zipf_weights(len(cameras), 0.8))}
    quota[cameras[0]] += count - sum(quota.values())
    rng = random.Random(f"serve_open/{seed}")
    fresh = {}
    for camera, share in quota.items():
        fresh[camera] = [index < round(share * size["fresh_share"])
                         for index in range(share)]
        rng.shuffle(fresh[camera])
    window = _window_s(size)
    opened = {camera: 0 for camera in cameras}
    inputs: list[QueryInput] = []
    for event in schedule.events:
        if len(inputs) == count:
            break
        if not fresh[event.camera]:
            continue  # this camera's share of the arrivals is already sent
        if fresh[event.camera].pop():
            begin = 12 * 3600.0 + opened[event.camera] * window
            opened[event.camera] += 1
        else:
            begin = _zipf_pick(rng, _hot_windows(size), 1.0)[0]
        inputs.append(query_input(event.camera, begin, begin + window,
                                  _KIND_SHAPE[event.kind], 0.1,
                                  due_s=len(inputs) / size["rate_per_s"]))
    if len(inputs) < count:
        raise RuntimeError(f"schedule yielded {len(inputs)} < {count} arrivals")
    return inputs


def _slot_begin(slot: int, size: dict) -> float:
    return 3600.0 + slot * size["slot_gap_s"]


def _admit_burst(seed: int, size: dict) -> list[QueryInput]:
    """Equal shares of queries per slot in seeded order; the reference ledger
    admits a slot's first ``camera_epsilon`` queries (eps=1 each) and denies
    the rest."""
    rng = random.Random(f"admit_burst/{seed}")
    slots = [position % size["slots"] for position in range(size["query_count"])]
    rng.shuffle(slots)
    window = _window_s(size)
    admitted = [0] * size["slots"]
    inputs = []
    for position, slot in enumerate(slots):
        begin = _slot_begin(slot, size)
        fits = admitted[slot] + 1.0 <= size["camera_epsilon"]
        admitted[slot] += 1 if fits else 0
        inputs.append(query_input("campus", begin, begin + window,
                                  (position + seed) % 3, 1.0,
                                  expect="completed" if fits else "denied"))
    return inputs


def setup_queries(workload: str, *, quick: bool = False) -> list[QueryInput]:
    """What set-up sends uncharged so the round starts from its warm state.

    Every workload gets the warm-up (pools, shards and lazy imports finish
    before timing); the store-backed ones also get the windows their measured
    queries expect to find stored.
    """
    size = spec.sizes(workload, quick=quick)
    cameras = tuple(EXECUTABLES) if workload == "serve_open" else ("campus",)
    queries = [warm_up(camera) for camera in cameras]
    if workload == "warm_sweep":
        queries += [query_input("campus", begin, end, 0, 1.0)
                    for begin, end in _warm_windows(size)]
    elif workload == "serve_open":
        queries += [query_input(camera, begin, end, 0, 1.0)
                    for camera in cameras for begin, end in _hot_windows(size)]
    elif workload == "admit_burst":
        queries += [query_input("campus", _slot_begin(slot, size),
                                _slot_begin(slot, size) + _window_s(size), 0, 1.0)
                    for slot in range(size["slots"])]
    return queries


def generate(workload: str, seed: int, *, quick: bool = False) -> list[QueryInput]:
    """The workload's inputs for one seed."""
    size = spec.sizes(workload, quick=quick)
    if workload in ("cold_scan", "sharded_fill"):
        # sharded_fill takes every other window of cold_scan's (sharded:2 is
        # the slower engine on two cores): same footage, same shapes, so the
        # two differ only in the engine and store the chunks cross.
        return _cold_windows(workload, seed, size)
    if workload == "warm_sweep":
        return _warm_sweep(seed, size)
    if workload == "serve_open":
        return _serve_open(seed, size)
    if workload == "admit_burst":
        return _admit_burst(seed, size)
    raise ValueError(f"unknown workload {workload!r}")


def inputs_digest(inputs: list[QueryInput]) -> str:
    """sha256 over the query texts and arrival offsets, exactly."""
    body = repr([(item.text, None if item.due_s is None else item.due_s.hex())
                 for item in inputs])
    return hashlib.sha256(body.encode("utf-8")).hexdigest()
