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
from repro.relational.table import CHUNK_COLUMN, REGION_COLUMN, RowBatch, Schema
from repro.video.chunking import Chunk

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cache import ChunkStore
    from repro.sandbox.executables import ProcessExecutable


def _field_state(instance: Any) -> dict[str, Any]:
    """Pickle/copy state without the memoised key-derivation state below, so
    broadcast bytes do not depend on whether a key was derived first."""
    return {spec.name: getattr(instance, spec.name) for spec in fields(instance)}


@dataclass(frozen=True)
class ExecutionContext:
    """Chunk-independent inputs available to an executable.

    Mirrors the allowed inputs of Appendix B: camera identity, frame rate,
    and owner-provided metadata that does not depend on private content.
    ``detector_config`` / ``tracker_config`` describe the analyst's "model" in
    this substrate (a real analyst would ship CNN weights instead).

    Frozen: one instance is one stream's constants, so the chunk store
    hashes them once per stream (:func:`repro.core.cache.chunk_key`).
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
        """``chunk_key``'s stream-constant texts; they live as long as the stream."""
        return {}


@dataclass(frozen=True)
class SandboxRunner:
    """Runs one executable over chunks under the isolation rules above
    (frozen for the same reason :class:`ExecutionContext` is)."""

    executable: "ProcessExecutable"
    schema: Schema
    max_rows: int
    timeout_seconds: float
    enforce_wall_clock: bool = True

    def __post_init__(self) -> None:
        if self.max_rows <= 0:
            raise SandboxViolationError("max_rows must be positive")
        if self.timeout_seconds <= 0:
            raise SandboxViolationError("the PROCESS timeout must be positive")

    __getstate__ = _field_state

    @cached_property
    def fingerprint(self) -> str:
        """This configuration's part of every chunk-store key (memoised)."""
        from repro.core.cache import runner_fingerprint

        return runner_fingerprint(self)

    def _default_rows(self) -> list[dict[str, Any]]:
        """Output substituted when the executable crashes or exceeds its timeout."""
        return [self.schema.default_row()]

    def run_chunk(self, chunk: Chunk, context: ExecutionContext) -> list[dict[str, Any]]:
        """Process one chunk and return schema-coerced, truncated rows."""
        return self.run_chunk_outcome(chunk, context).rows

    def run_chunk_outcome(self, chunk: Chunk, context: ExecutionContext, *,
                          thread_clock: bool = False) -> ChunkOutcome:
        """Process one chunk, reporting whether the output is a failure fallback.

        The implicit ``chunk`` and ``region`` columns are appended here —
        they are generated by Privid, not the executable, which is why later
        GROUP BYs over them are trusted.  ``thread_clock`` makes the TIMEOUT
        check measure this thread's CPU time instead of wall-clock time, so a
        chunk sharing the GIL with concurrent pool workers is not timed out
        for its neighbours' work.
        """
        instance = self.executable.fresh_instance()
        clock = time.thread_time if thread_clock else time.monotonic
        started = clock()
        try:
            raw_rows = instance.process(chunk, context)
        except Exception:
            raw_rows = None
        elapsed = clock() - started
        timed_out = self.enforce_wall_clock and elapsed > self.timeout_seconds
        simulated = getattr(instance, "simulated_runtime", 0.0)
        if simulated and simulated > self.timeout_seconds:
            timed_out = True
        region = chunk.region.name if chunk.region is not None else ""
        if raw_rows is not None and not timed_out and isinstance(raw_rows, RowBatch):
            # Batch row-emission path: coercion, truncation and the trusted
            # chunk/region stamping all happen as whole-column operations.
            # The executable is untrusted, so a malformed batch (scalar
            # columns, broken sequences) degrades to the same fallback rows
            # any other garbage output produces instead of crashing the
            # query.
            try:
                return ChunkOutcome(rows=self.schema.coerce_row_batch(
                    raw_rows, max_rows=self.max_rows,
                    chunk_timestamp=chunk.start_timestamp, region=region))
            except Exception:
                raw_rows = None
        fallback = False
        if raw_rows is None or timed_out:
            rows = self._default_rows()
            fallback = True
        else:
            if not isinstance(raw_rows, (list, tuple)):
                rows = self._default_rows()
                fallback = True
            else:
                rows = [self.schema.coerce_row(raw) for raw in list(raw_rows)[: self.max_rows]]
        stamped: list[dict[str, Any]] = []
        for row in rows:
            stamped_row = dict(row)
            stamped_row[CHUNK_COLUMN] = chunk.start_timestamp
            stamped_row[REGION_COLUMN] = region
            stamped.append(stamped_row)
        return ChunkOutcome(rows=stamped, fallback=fallback)

    def _outcomes_with_serial_fallback(
            self, engine: ExecutionEngine, chunks: Iterable[Chunk],
            context: ExecutionContext, count_hint: int | None
    ) -> Iterator[ChunkOutcome]:
        """Engine outcomes that degrade to serial re-execution on engine loss.

        The ``on_engine_failure="serial_fallback"`` policy: chunks fed to
        the engine are tracked until their outcome is yielded; if the engine
        stream dies with :class:`~repro.errors.RemoteShardError` (every
        shard lost, a task out of retries), the unfinished tracked chunks
        and the rest of the stream are re-executed serially in this process.
        The result is byte-identical either way — chunk outputs are pure
        functions of the chunk, never of placement (the determinism
        contract) — so degradation costs throughput, not correctness.
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

    def _engine_outcomes(self, engine: ExecutionEngine, chunks: Iterable[Chunk],
                         context: ExecutionContext, *, count_hint: int | None,
                         on_engine_failure: str) -> Iterator[ChunkOutcome]:
        if on_engine_failure == "serial_fallback":
            return self._outcomes_with_serial_fallback(engine, chunks, context,
                                                       count_hint)
        return engine.imap_chunks(self, chunks, context, count_hint=count_hint)

    def iter_chunk_rows(self, chunks: Iterable[Chunk], context: ExecutionContext, *,
                        engine: ExecutionEngine | None = None,
                        cache: "ChunkStore | None" = None,
                        count_hint: int | None = None,
                        on_engine_failure: str = "fail"
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
        default rows, which may be transient) are never cached.

        ``on_engine_failure`` picks the degradation policy when a
        distributed engine loses every shard mid-stream: ``"fail"`` (the
        default) propagates :class:`~repro.errors.RemoteShardError`;
        ``"serial_fallback"`` re-executes the unfinished chunks serially in
        this process — byte-identical by the determinism contract, just
        slower.
        """
        engine = engine if engine is not None else SerialEngine()
        if cache is None:
            for outcome in self._engine_outcomes(
                    engine, chunks, context, count_hint=count_hint,
                    on_engine_failure=on_engine_failure):
                yield outcome.rows
            return

        # Hits are classified *here, in the outer loop* — only genuine
        # misses ever reach the engine.  The in-order ledger records the
        # stream's shape: a ("hit", rows) entry per cache hit, a
        # ("miss", key) entry per chunk forwarded to the engine.  A run of
        # consecutive hits at the head therefore yields immediately, one
        # chunk lookup at a time — an all-warm window streams its first row
        # after a single lookup, without the engine (or its in-flight
        # window) ever being driven.
        ledger: deque[tuple[str, Any]] = deque()
        chunk_iter = iter(chunks)
        miss_buffer: deque[Chunk] = deque()
        exhausted = False

        def classify_next() -> bool:
            """Pull and classify one chunk; False once the stream ends."""
            nonlocal exhausted
            chunk = next(chunk_iter, None)
            if chunk is None:
                exhausted = True
                return False
            key = cache.key_for(self, chunk, context)
            rows = cache.get(key)
            if rows is None:
                ledger.append(("miss", key))
                miss_buffer.append(chunk)
            else:
                ledger.append(("hit", rows))
            return True

        def miss_feed() -> Iterator[Chunk]:
            # The engine pulls from this to fill its in-flight window; when
            # the buffer runs dry, classification advances (burying any hits
            # encountered in the ledger, behind the miss being awaited)
            # until the next miss or the end of the stream.
            while True:
                while not miss_buffer:
                    if not classify_next():
                        return
                yield miss_buffer.popleft()

        # The miss stream is shorter than the full chunk stream by however
        # many cache hits occur — unknowable up front — so no count hint is
        # forwarded: a warm cache with a full-stream hint would otherwise
        # inflate the process engine's adaptive batch size and collapse the
        # few real misses into a single worker's future.
        outcomes = self._engine_outcomes(engine, miss_feed(), context,
                                         count_hint=None,
                                         on_engine_failure=on_engine_failure)
        while True:
            while ledger and ledger[0][0] == "hit":
                yield ledger.popleft()[1]
            if not ledger:
                if exhausted:
                    return
                classify_next()
                continue
            # Head of the stream is a miss; the engine yields outcomes in
            # order, so the next one is it.  Driving the engine may classify
            # further chunks through miss_feed — those land behind the head.
            outcome = next(outcomes)
            _, key = ledger.popleft()
            if not outcome.fallback:
                if outcome.stored:
                    # The engine already persisted these rows in the store's
                    # shared tier (sharded write-through); only the hot tier
                    # needs them.
                    cache.promote(key, outcome.rows)
                else:
                    cache.put(key, outcome.rows)
            yield outcome.rows

    def run_chunks(self, chunks: Iterable[Chunk], context: ExecutionContext, *,
                   engine: ExecutionEngine | None = None,
                   cache: "ChunkStore | None" = None,
                   count_hint: int | None = None) -> list[dict[str, Any]]:
        """Process every chunk independently and concatenate the rows.

        Batch adapter over :meth:`iter_chunk_rows`, kept for callers that
        want the whole table at once.
        """
        rows: list[dict[str, Any]] = []
        for chunk_rows in self.iter_chunk_rows(chunks, context, engine=engine,
                                               cache=cache, count_hint=count_hint):
            rows.extend(chunk_rows)
        return rows
