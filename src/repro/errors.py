"""Exception hierarchy for the Privid reproduction.

Every error raised by the library derives from :class:`PrividError` so that
callers can catch library failures without also swallowing programming errors
such as ``TypeError``.
"""

from __future__ import annotations


class PrividError(Exception):
    """Base class for all errors raised by this library."""


class PolicyError(PrividError):
    """An invalid privacy policy (e.g. non-positive rho, K, or epsilon)."""


class BudgetExceededError(PrividError):
    """A query requested more privacy budget than remains on some frame.

    Mirrors the DENY branch of Algorithm 1 (lines 1-3): the query interval,
    extended by rho on either side, contains at least one frame whose
    remaining budget is smaller than the requested epsilon.
    """

    def __init__(self, message: str, *, interval=None, requested: float | None = None,
                 available: float | None = None) -> None:
        super().__init__(message)
        self.interval = interval
        self.requested = requested
        self.available = available


class QuerySyntaxError(PrividError):
    """The query text could not be parsed against the Privid grammar."""

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None) -> None:
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + location)
        self.line = line
        self.column = column


class QueryValidationError(PrividError):
    """The query parsed but violates a Privid constraint.

    Examples: an aggregation over a column without a declared range, a
    GROUP BY over an analyst column without explicit keys, or a chunk
    duration that is not an integer number of frames.
    """


class UnboundSensitivityError(PrividError):
    """The sensitivity of an aggregation could not be bounded.

    Raised when a required constraint (row-count bound or column range) was
    left unbound by every operator beneath the aggregation.
    """


class SchemaError(PrividError):
    """A schema is malformed or a row does not match its schema."""


class SandboxViolationError(PrividError):
    """An analyst executable attempted to break chunk isolation."""


class UnknownExecutableError(PrividError):
    """A PROCESS statement referenced an executable that is not registered."""


class RemoteShardError(PrividError):
    """Sharded execution could not complete a task.

    Raised by :class:`repro.core.remote.ShardedEngine` when a task exhausts
    its retry budget or no live shard remains to run it; individual shard
    deaths are handled transparently by reassignment and never surface here.
    """


class QueryCancelledError(PrividError):
    """A query was cancelled cooperatively before it finished.

    Raised out of :meth:`repro.core.executor.PrividSystem.execute` (and the
    futures of :class:`repro.service.QueryService`) when the query's
    :class:`~repro.core.resilience.CancellationToken` is cancelled between
    chunks.  Cancellation always happens *before* budget admission, so a
    cancelled query never charges any ledger (all-or-nothing holds).
    """


class QueryTimeoutError(QueryCancelledError):
    """A query exceeded its deadline and was cancelled cooperatively.

    The timeout flavour of :class:`QueryCancelledError`: raised when the
    token's monotonic deadline passes.  Like every cancellation it fires
    between chunks, before any budget is charged.
    """


class ServiceOverloadedError(PrividError):
    """The service's bounded wait queue is full; the query was not admitted.

    Typed admission-control rejection from
    :meth:`repro.service.QueryService.submit`: raised synchronously (no
    future is created, nothing is queued, nothing is charged) when the
    number of queries waiting for a pool slot has reached
    ``max_queue_depth``.
    """

    def __init__(self, message: str, *, active: int | None = None,
                 queue_depth: int | None = None, limit: int | None = None) -> None:
        super().__init__(message)
        self.active = active
        self.queue_depth = queue_depth
        self.limit = limit


class DurabilityError(PrividError):
    """Persistent ledger state could not be recovered or written.

    Raised by :mod:`repro.core.durability` when a snapshot file is damaged
    beyond the write-ahead log's self-repair (torn log *tails* are repaired
    silently; a corrupt snapshot means charges may have been lost, which must
    never pass unnoticed), or when a record cannot be encoded.
    """


class ResumeMismatchError(PrividError):
    """A resume token was resubmitted with a *different* query.

    Raised synchronously from :meth:`repro.service.QueryService.submit` when
    the fingerprint of the resubmitted query (its canonical AST plus the
    release-affecting execute options) does not match the one journaled at
    the original submission.  Without this check a resubmission under a
    token whose charge already landed would run an arbitrary new query with
    zero budget charge *and* reuse the original query's noise stream — in
    Privid's threat model the analyst is the adversary, so a mismatch is a
    privacy-budget bypass attempt, not a convenience to paper over.
    """


class ResumeConflictError(PrividError):
    """A resume token was submitted while already in flight.

    Raised synchronously from :meth:`repro.service.QueryService.submit` when
    a second submission arrives for a token whose query is still running:
    two concurrent executions of one journaled query would share a noise
    stream (same query seq) and race on one idempotent charge key.  Wait
    for the first future instead.
    """


class SimulatedCrashError(PrividError):
    """An injected ``service.crash_at_*`` fault fired (kill -9 stand-in).

    The default :attr:`repro.core.durability.WriteAheadLog.crash_hook`: tests
    catch this, abandon the service instance, and recover a fresh one over
    the same WAL directory.  The chaos harness replaces the hook with a real
    ``SIGKILL`` so recovery is exercised against a genuinely dead process.
    """


class UnknownCameraError(PrividError):
    """A SPLIT statement referenced a camera that is not registered."""


class RegionError(PrividError):
    """Invalid spatial-region specification or use (e.g. soft boundaries with
    a chunk size larger than one frame)."""


class MaskError(PrividError):
    """Invalid mask specification or reference to an unknown mask."""
