"""The isolated per-chunk execution environment (Appendix B).

Privid's privacy argument relies on each chunk being processed by an
*independent* instance of the analyst's executable whose only input is that
chunk and whose only output is at most ``max_rows`` schema-conforming rows,
produced within a fixed time limit.  The real system uses OS-level sandboxes;
this reproduction enforces the same semantics at the API level:

* a fresh copy of the executable runs per chunk (no state can persist);
* the chunk object exposes only masked/region-filtered views of its own
  interval, so other chunks are unreachable by construction;
* output rows are coerced to the declared schema and truncated to
  ``max_rows``;
* an exception or a wall-clock overrun yields the schema's default row, and
  (matching the TIMEOUT semantics) nothing about the failure is surfaced to
  the analyst beyond that default row.
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from itertools import chain
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.core.engine import ChunkOutcome, ExecutionEngine, SerialEngine
from repro.cv.detector import DetectorConfig, SyntheticDetector
from repro.cv.tracker import TrackerConfig
from repro.errors import SandboxViolationError
from repro.utils import checks
from repro.relational.table import CHUNK_COLUMN, REGION_COLUMN, Schema
from repro.video.chunking import Chunk

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cache import ChunkStore
    from repro.sandbox.executables import ProcessExecutable


def _field_state(instance: Any) -> dict[str, Any]:
    """Pickle/copy state without the memoised key-derivation state below, so
    broadcast bytes do not depend on whether a key was derived first."""
    return {spec.name: getattr(instance, spec.name) for spec in fields(instance)}


def kept_or_fresh(kept: "tuple[Any, str] | None", fresh: Any, *live: Any) -> tuple[Any, str]:
    """``kept`` — the last ``(instance, parts)`` pair built for a registration —
    while ``fresh`` and the ``live`` state its fingerprint reads through a
    reference print the same ``parts``; else a new pair.  How a runner or a
    context, which memoise their chunk-key constants, outlive the query: by
    value (``repr``, not ``==``: ``0 == 0.0`` but their key bytes differ), and
    as an immutable pair its holder swaps in one store, so racing query threads
    each leave with an instance of the parts they asked for
    (docs/architecture.md, "Per registration, not per query")."""
    parts = repr((fresh, live))
    return kept if kept is not None and kept[1] == parts else (fresh, parts)


@dataclass(frozen=True)
class ExecutionContext:
    """Chunk-independent inputs available to an executable.

    Mirrors the allowed inputs of Appendix B: camera identity, frame rate,
    and owner-provided metadata that does not depend on private content.
    ``detector_config`` / ``tracker_config`` describe the analyst's "model" in
    this substrate (a real analyst would ship CNN weights instead).

    Frozen: one instance is one camera registration's constants, so the chunk
    store hashes them once per instance (:func:`repro.core.cache.chunk_key`)
    and queries share it while they read the same (:func:`kept_or_fresh`).
    """

    camera: str
    fps: float
    detector_config: DetectorConfig = field(default_factory=DetectorConfig)
    tracker_config: TrackerConfig = field(default_factory=TrackerConfig)
    metadata: dict[str, Any] = field(default_factory=dict)
    detector_seed: int = 0

    __getstate__ = _field_state

    def detector(self) -> SyntheticDetector:
        """A detector instance configured for this camera."""
        return SyntheticDetector(self.detector_config, seed=self.detector_seed)

    @cached_property
    def fingerprint(self) -> str:
        """This context's part of every chunk-store key (memoised)."""
        from repro.core.cache import context_fingerprint

        return context_fingerprint(self)

    @cached_property
    def key_text_memo(self) -> dict[tuple, tuple]:
        """``chunk_key``'s stream-constant hash states; they live as long as the stream."""
        return {}

    @cached_property
    def chunk_key_memo(self) -> dict[tuple, tuple]:
        """``chunk_key``'s finished keys, per chunk this context keyed (bounded)."""
        return {}


@dataclass(frozen=True)
class SandboxRunner:
    """Runs one executable over chunks under the isolation rules above
    (frozen for the same reason :class:`ExecutionContext` is)."""

    executable: "ProcessExecutable"
    schema: Schema
    max_rows: int
    timeout_seconds: float

    def __post_init__(self) -> None:
        checks.count("max_rows", self.max_rows, SandboxViolationError, 1)
        checks.real("the PROCESS timeout", self.timeout_seconds, SandboxViolationError,
                    above=0)

    __getstate__ = _field_state

    @cached_property
    def fingerprint(self) -> str:
        """This configuration's part of every chunk-store key (memoised)."""
        from repro.core.cache import runner_fingerprint

        return runner_fingerprint(self)

    def run_chunk_outcome(self, chunk: Chunk, context: ExecutionContext) -> ChunkOutcome:
        """Process one chunk, reporting whether the output is a failure fallback.

        The executable returns a list (or tuple) of row dicts; its first
        ``max_rows`` items are coerced to the schema (a non-dict item becomes
        a default row).  One default row marked ``fallback`` replaces the
        output when ``process`` raises, when coercing its output raises
        (coercion may run the executable's own code, such as a value's
        ``__str__``), on a TIMEOUT overrun (wall-clock time), or when the
        output is not a list or tuple.  The implicit ``chunk`` and
        ``region`` columns are appended last, after the schema's columns —
        they are generated by Privid, not the executable, which is why later
        GROUP BYs over them are trusted.
        """
        instance = self.executable.fresh_instance()
        started = time.monotonic()
        try:
            raw_rows = instance.process(chunk, context)
            rows = ([self.schema.coerce_row(raw) for raw in raw_rows[: self.max_rows]]
                    if isinstance(raw_rows, (list, tuple)) else None)
        except Exception:
            rows = None
        timed_out = time.monotonic() - started > self.timeout_seconds
        simulated = getattr(instance, "simulated_runtime", 0.0)
        if simulated and simulated > self.timeout_seconds:
            timed_out = True
        fallback = rows is None or timed_out
        if fallback:
            rows = [self.schema.default_row()]
        region = chunk.region.name if chunk.region is not None else ""
        for row in rows:
            row[CHUNK_COLUMN] = chunk.start_timestamp
            row[REGION_COLUMN] = region
        return ChunkOutcome(rows=rows, fallback=fallback)

    def _engine_outcomes(self, engine: ExecutionEngine, chunks: Iterable[Chunk],
                         context: ExecutionContext, count_hint: int | None
                         ) -> Iterator[ChunkOutcome]:
        """Engine outcomes that degrade to serial re-execution on engine loss.

        Chunks fed to the engine are tracked until their outcome is yielded;
        if the engine stream dies with :class:`~repro.errors.RemoteShardError`
        (every shard lost, a task out of retries, a refused result), the
        unfinished tracked chunks and the rest of the stream are re-executed
        serially in this process, with a :class:`RuntimeWarning`.  There is
        no choice to make: the result is byte-identical either way — chunk
        outputs are pure functions of the chunk, never of placement (the
        determinism contract) — so engine loss costs throughput, never a
        query.
        """
        from repro.errors import RemoteShardError

        pending: deque[Chunk] = deque()
        chunk_iter = iter(chunks)

        def tracked() -> Iterator[Chunk]:
            for chunk in chunk_iter:
                pending.append(chunk)
                yield chunk

        outcomes = engine.imap_chunks(self, tracked(), context,
                                      count_hint=count_hint)
        while True:
            try:
                outcome = next(outcomes, None)
            except RemoteShardError as exc:
                warnings.warn(
                    f"engine {getattr(engine, 'name', '?')!r} failed mid-stream "
                    f"({exc}); re-executing the remaining chunks serially",
                    RuntimeWarning, stacklevel=2)
                break
            if outcome is None:
                return
            if pending:
                pending.popleft()
            yield outcome
        for chunk in chain(pending, chunk_iter):
            yield self.run_chunk_outcome(chunk, context)

    def iter_chunk_rows(self, chunks: Iterable[Chunk], context: ExecutionContext, *,
                        engine: ExecutionEngine | None = None,
                        cache: "ChunkStore | None" = None,
                        count_hint: int | None = None
                        ) -> Iterator[list[dict[str, Any]]]:
        """Stream each chunk's rows, in chunk order, as executions complete.

        The streaming core of the split-process dataflow: chunks are pulled
        lazily from ``chunks`` (typically the generator of
        :func:`~repro.video.chunking.iter_chunks`), cache lookups happen as
        the engine demands work, and only the engine's bounded in-flight
        window of chunks is ever materialized — so memory and
        time-to-first-result are independent of the window length.

        Chunk executions are independent by construction (Appendix B), so an
        :class:`~repro.core.engine.ExecutionEngine` may run them in parallel;
        results are always yielded in chunk order, making the output
        identical across engines.  A chunk result store (memory, disk, or
        tiered — see :mod:`repro.core.cache`) short-circuits chunks whose
        (content, configuration) identity was processed before; only misses
        reach the engine, and failure-fallback outputs (crash/timeout
        default rows, which may be transient) are never cached.  An engine
        that fails mid-stream hands its unfinished chunks back to serial
        execution in this process (:meth:`_engine_outcomes`).
        """
        engine = engine if engine is not None else SerialEngine()
        if cache is None:
            for outcome in self._engine_outcomes(engine, chunks, context, count_hint):
                yield outcome.rows
            return

        # Hits are classified *here, in the outer loop* — only genuine
        # misses ever reach the engine.  The in-order ledger records the
        # stream's shape behind a pending miss: a ("hit", rows) entry per
        # cache hit, a ("miss", key) entry per chunk forwarded to the engine.
        # While no miss is pending, the ledger is empty and a run of hits
        # yields straight from the classifying loop, one key and one lookup
        # per chunk — an all-warm window streams its first row after a
        # single lookup, without the engine (or its in-flight window) ever
        # being driven.
        ledger: deque[tuple[str, Any]] = deque()
        chunk_iter = iter(chunks)
        miss_buffer: deque[Chunk] = deque()

        def classify(chunk: Chunk) -> list[dict[str, Any]] | None:
            """The chunk's stored rows, or None once it is queued as a miss.  No
            chunk yields over ``max_rows`` rows, which sensitivity assumes: the
            store reads such an entry as corrupt, and the shard coordinator
            refuses such a result like an ``error`` frame.  A ``Table`` reads
            only schema columns; aggregation clamps values."""
            key = cache.key_for(self, chunk, context)
            rows = cache.get(key, max_rows=self.max_rows)
            if rows is None:
                ledger.append(("miss", key))
                miss_buffer.append(chunk)
            return rows

        def miss_feed() -> Iterator[Chunk]:
            # The engine pulls from this to fill its in-flight window; when
            # the buffer runs dry, classification advances (burying any hits
            # encountered in the ledger, behind the miss being awaited)
            # until the next miss or the end of the stream.
            while True:
                while not miss_buffer:
                    chunk = next(chunk_iter, None)
                    if chunk is None:
                        return
                    rows = classify(chunk)
                    if rows is not None:
                        ledger.append(("hit", rows))
                yield miss_buffer.popleft()

        # The miss stream is shorter than the full chunk stream by however
        # many cache hits occur — unknowable up front — so no count hint is
        # forwarded: a warm cache with a full-stream hint would otherwise
        # inflate the sharded engine's adaptive batch size and collapse the
        # few real misses into a single shard's task.
        outcomes = self._engine_outcomes(engine, miss_feed(), context, None)
        while True:
            while ledger and ledger[0][0] == "hit":
                yield ledger.popleft()[1]
            if not ledger:
                # Nothing pending (so the miss buffer is empty too): classify
                # and yield hits in one loop until the next miss.
                for chunk in chunk_iter:
                    rows = classify(chunk)
                    if rows is None:
                        break
                    yield rows
                else:
                    return
            # Head of the stream is a miss; the engine yields outcomes in
            # order, so the next one is it.  Driving the engine may classify
            # further chunks through miss_feed — those land behind the head.
            outcome = next(outcomes)
            _, key = ledger.popleft()
            if not outcome.fallback:
                cache.put(key, outcome.rows)
            yield outcome.rows
