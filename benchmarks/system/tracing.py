"""Per-layer spans recorded from outside the program.

:func:`traced` wraps a fixed table of public callables of ``repro`` with
recorders (class methods patched on their classes, ``compute_releases``
where ``repro.core.executor`` imports it) and restores them on exit; nothing
under ``src/`` changes.  A span is ``(trace_id, span_id, parent_id, name,
start, end)``; spans and boundary counts stay in memory until the workload
ends.  A layer's self time is its duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import repro.core.executor as executor_module
from repro.core.budget import DurableServiceLedger, ServiceLedger
from repro.core.cache import ChunkResultCache, DiskChunkStore, TieredChunkCache
from repro.core.durability import WriteAheadLog
from repro.core.executor import PrividSystem
from repro.core.noise import LaplaceMechanism
from repro.core.remote import ShardedEngine
from repro.cv.detector import SyntheticDetector
from repro.cv.tracker import IoUTracker
from repro.relational.table import Table
from repro.sandbox.environment import SandboxRunner
from repro.service import QueryService
from repro.video.chunking import Chunk
from repro.video.masking import Mask

from benchmarks.system.stats import decile_medians

Span = tuple  # (trace_id, span_id, parent_id, name, start, end)
TRACE, SPAN_ID, PARENT, NAME, START, END = range(6)


class Recorder:
    """In-memory span and count store; one per traced workload-round."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_trace(self, trace_id: str | None) -> None:
        """Name the request the calling thread's next spans belong to."""
        self._local.trace = trace_id

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around benchmark-side code (e.g. parse+validate)."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((getattr(self._local, "trace", None), span_id,
                               parent, name, start, end))

    def wrap(self, name: str, function: Callable, *,
             on_call: Callable[[tuple, dict], str | None] | None = None,
             on_result: Callable[[Any], None] | None = None) -> Callable:
        """A recording stand-in for ``function``.

        ``on_call`` sees the arguments before the call and may return a
        replacement span name; ``on_result`` counts from the return value.
        The push/pop is written out rather than ``with self.span(...)``: a
        generator-based context manager would double the ~1.6 us a span costs.
        """
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_name = name
            if on_call is not None:
                span_name = on_call(args, kwargs) or name
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append((getattr(recorder._local, "trace", None),
                                       span_id, parent, span_name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        return wrapper

    def wrap_stream(self, name: str, function: Callable) -> Callable:
        """Time an iterator-returning callable from first pull to exhaustion.

        The stream interleaves with its consumer's other calls, so its span
        is a child of whatever was running at the first pull but is never
        pushed on the stack itself.
        """
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = function(*args, **kwargs)

            def stream() -> Iterator[Any]:
                stack = recorder._stack()
                span_id = next(recorder._ids)
                parent = stack[-1] if stack else None
                trace = getattr(recorder._local, "trace", None)
                start = time.perf_counter()
                try:
                    yield from inner
                finally:
                    recorder.spans.append((trace, span_id, parent, name, start,
                                           time.perf_counter()))

            return stream()

        return wrapper

    def write(self, path: Path) -> None:
        """Write spans (one JSON array per line) and the counts object."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")


@contextmanager
def traced(recorder: Recorder) -> Iterator[Recorder]:
    """Install the span recorders on the public layer boundaries."""
    counts = recorder.counts

    def count(name: str, amount: Callable[[Any], float]) -> Callable[[Any], None]:
        def add(result: Any) -> None:
            counts[name] += amount(result)
        return add

    def execute_trace(args: tuple, kwargs: dict) -> None:
        # The durable service keys each query by its journal token; closed
        # loops over a bare PrividSystem set the trace before calling.
        if kwargs.get("query_id") is not None:
            recorder.set_trace(kwargs["query_id"])

    def append_name(args: tuple, kwargs: dict) -> str | None:
        return None if kwargs.get("sync", True) else "core.durability.append_nosync"

    def log_about_to_truncate(args: tuple, kwargs: dict) -> None:
        # Compaction truncates the log, so bytes logged per query need the
        # size each truncation discards.
        counts["core.durability.log_bytes_compacted"] += args[0].status()["log_bytes"]

    wrap, stream = recorder.wrap, recorder.wrap_stream
    patches: list[tuple[Any, str, Callable]] = [
        (PrividSystem, "execute", lambda f: wrap("core.executor.execute", f,
                                                 on_call=execute_trace)),
        (Chunk, "frame_batch", lambda f: wrap(
            "video.frame_batch", f, on_result=count("video.frames", len))),
        (Mask, "hides_boxes", lambda f: wrap("video.mask", f)),
        (SyntheticDetector, "detect_batch", lambda f: wrap(
            "cv.detect", f, on_result=count("cv.detections", len))),
        (IoUTracker, "step_batch", lambda f: wrap("cv.track", f)),
        (IoUTracker, "finalize_views", lambda f: wrap("cv.track", f)),
        (SandboxRunner, "run_chunk_outcome", lambda f: wrap(
            "sandbox.run_chunk", f,
            on_result=count("sandbox.fallback_chunks", lambda o: float(o.fallback)))),
        (Table, "extend", lambda f: wrap("relational.extend", f)),
        (executor_module, "compute_releases",
         lambda f: wrap("relational.aggregate", f)),
        *((store, "key_for", lambda f: wrap("core.cache.key", f))
          for store in (ChunkResultCache, DiskChunkStore, TieredChunkCache)),
        (TieredChunkCache, "get", lambda f: wrap("core.cache.get", f)),
        (TieredChunkCache, "put", lambda f: wrap("core.cache.put", f)),
        (ShardedEngine, "imap_chunks", lambda f: stream("core.remote.stream", f)),
        (ServiceLedger, "admit_many", lambda f: wrap("core.budget.admit", f)),
        (DurableServiceLedger, "admit_many", lambda f: wrap("core.budget.admit", f)),
        (WriteAheadLog, "append", lambda f: wrap("core.durability.append", f,
                                                 on_call=append_name)),
        (WriteAheadLog, "compact", lambda f: wrap("core.durability.compact", f,
                                                  on_call=log_about_to_truncate)),
        (LaplaceMechanism, "add_noise", lambda f: wrap("core.noise.add_noise", f)),
        (QueryService, "submit", lambda f: wrap("service.submit", f)),
    ]
    originals = [(owner, attribute, owner.__dict__[attribute])
                 for owner, attribute, _ in patches]
    try:
        for owner, attribute, make in patches:
            setattr(owner, attribute, make(owner.__dict__[attribute]))
        yield recorder
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)


# ------------------------------------------------------------------ analysis

def covered_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of child intervals."""
    covered = 0.0
    cursor = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, cursor)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """span_id -> duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return {span[SPAN_ID]: (span[END] - span[START])
            - covered_time(span[START], span[END], children.get(span[SPAN_ID], []))
            for span in spans}


def _median_ms(values: list[float]) -> float | None:
    return statistics.median(values) * 1e3 if values else None


def span_metrics(recorder: Recorder) -> dict[str, float | None]:
    """The per-layer metrics that come from spans (``None`` = layer not entered)."""
    spans = recorder.spans
    durations: dict[str, list[float]] = defaultdict(list)
    names = {span[SPAN_ID]: span[NAME] for span in spans}
    per_parent: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        durations[span[NAME]].append(span[END] - span[START])
        if span[NAME] in ("video.mask", "cv.track") and span[PARENT] is not None:
            per_parent[span[NAME]][span[PARENT]] += span[END] - span[START]
    own = self_times(spans)
    self_of: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        if span[NAME] in ("sandbox.run_chunk", "core.executor.execute"):
            self_of[span[NAME]].append(own[span[SPAN_ID]])
    # The durable ledger's admit_many calls the base class's check-only pass:
    # only the outermost span is one admission.
    admits = [span[END] - span[START]
              for span in sorted(spans, key=lambda s: s[START])
              if span[NAME] == "core.budget.admit"
              and names.get(span[PARENT]) != "core.budget.admit"]
    admit_first, admit_last = decile_medians(admits) if admits else (None, None)
    chunks = len(durations["video.frame_batch"])
    detects = len(durations["cv.detect"])
    noise = durations["core.noise.add_noise"]
    return {
        "query.parse_ms": _median_ms(durations["query.parse"]),
        "video.frame_batch_ms": _median_ms(durations["video.frame_batch"]),
        "video.mask_ms": _median_ms(list(per_parent["video.mask"].values())),
        "video.frames_per_chunk":
            recorder.counts["video.frames"] / chunks if chunks else None,
        "cv.detect_ms": _median_ms(durations["cv.detect"]),
        "cv.track_ms": _median_ms(list(per_parent["cv.track"].values())),
        "cv.detections_per_chunk":
            recorder.counts["cv.detections"] / detects if detects else None,
        "sandbox.run_chunk_ms": _median_ms(durations["sandbox.run_chunk"]),
        "sandbox.self_ms": _median_ms(self_of["sandbox.run_chunk"]),
        "sandbox.fallback_chunks": recorder.counts["sandbox.fallback_chunks"]
            if durations["sandbox.run_chunk"] else None,
        "relational.extend_ms": _median_ms(durations["relational.extend"]),
        "relational.aggregate_ms": _median_ms(durations["relational.aggregate"]),
        "core.cache.key_ms": _median_ms(durations["core.cache.key"]),
        "core.cache.get_ms": _median_ms(durations["core.cache.get"]),
        "core.cache.put_ms": _median_ms(durations["core.cache.put"]),
        "core.remote.stream_ms": _median_ms(durations["core.remote.stream"]),
        "core.budget.admit_ms": _median_ms(admits),
        "core.budget.admit_ms_first_decile": admit_first and admit_first * 1e3,
        "core.budget.admit_ms_last_decile": admit_last and admit_last * 1e3,
        "core.durability.append_ms": _median_ms(durations["core.durability.append"]),
        "core.durability.compact_ms": _median_ms(durations["core.durability.compact"]),
        "core.noise.add_noise_us":
            statistics.median(noise) * 1e6 if noise else None,
        "core.executor.self_ms": _median_ms(self_of["core.executor.execute"]),
        "service.submit_ms": _median_ms(durations["service.submit"]),
    }


def self_time_shares(recorder: Recorder) -> dict[str, float]:
    """Share of all query time (root spans) spent in each span name's self time.

    The README's "top three self-time layers per workload" table reads this.
    """
    own = self_times(recorder.spans)
    totals: dict[str, float] = defaultdict(float)
    for span in recorder.spans:
        totals[span[NAME]] += own[span[SPAN_ID]]
    whole = sum(span[END] - span[START] for span in recorder.spans
                if span[PARENT] is None)
    return {name: total / whole for name, total in totals.items()} if whole else {}
