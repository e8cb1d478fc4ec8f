"""Self-healing primitives: circuit breaking and deadlines.

The always-on deployment of :mod:`repro.service` has to survive the failures
a months-long camera installation actually sees — shard workers that die or
cannot start, queries wedged behind a dead shard.  This module holds the two
small mechanisms the service and the sharded engine build their failure
handling from:

* :class:`CircuitBreaker` — the classic three-state breaker per shard slot:
  CLOSED until ``failure_threshold`` consecutive failures, then OPEN
  (requests refused without touching the slot) until ``reset_timeout``
  passes, then HALF_OPEN admitting a single probe whose outcome closes or
  re-opens the circuit.  Keeps a slot whose worker cannot start from
  absorbing a spawn attempt at every stream start.
* :class:`CancellationToken` — cooperative cancellation with an optional
  monotonic deadline.  Work that honours a token calls :meth:`~CancellationToken.check`
  at its natural yield points (the executor checks between chunks); a passed
  deadline raises :class:`~repro.errors.QueryTimeoutError`, a manual
  :meth:`~CancellationToken.cancel` raises
  :class:`~repro.errors.QueryCancelledError`.

Both are deliberately dependency-free and thread-safe: breakers are
shared between stream starts on different query threads, and a token is
armed by the submitting thread but checked by the pool thread running the
query.
"""

from __future__ import annotations

import threading
import time
from enum import Enum
from typing import Any, Callable

from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.utils import checks


class BreakerState(str, Enum):
    """The three circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-slot circuit breaker: open after K consecutive failures.

    ``allow()`` gates an attempt: True in CLOSED, False in OPEN until
    ``reset_timeout`` has passed, at which point the breaker moves to
    HALF_OPEN and admits exactly one probe (further ``allow()`` calls return
    False until that probe reports).  ``record_success`` closes the circuit
    and zeroes the failure run; ``record_failure`` extends it — and any
    failure in HALF_OPEN re-opens immediately, restarting the reset clock.
    Thread-safe; the clock is injectable for tests.
    """

    def __init__(self, *, failure_threshold: int = 3, reset_timeout: float = 10.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.failure_threshold = checks.count("failure_threshold", failure_threshold,
                                              ValueError, 1)
        self.reset_timeout = checks.real("reset_timeout", reset_timeout, ValueError, above=0)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self.opens = 0
        self.probes = 0

    @property
    def state(self) -> BreakerState:
        """Current state (OPEN reads as OPEN until a probe is *taken*)."""
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May an attempt proceed right now?  (Taking a HALF_OPEN probe.)"""
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                assert self._opened_at is not None
                if self._clock() - self._opened_at >= self.reset_timeout:
                    self._state = BreakerState.HALF_OPEN
                    self.probes += 1
                    return True
                return False
            # HALF_OPEN: one probe is already in flight; everyone else waits
            # for its verdict.
            return False

    def record_success(self) -> None:
        """An attempt succeeded: close the circuit, zero the failure run."""
        with self._lock:
            self._state = BreakerState.CLOSED
            self._consecutive_failures = 0
            self._opened_at = None

    def record_failure(self) -> None:
        """An attempt failed: extend the run, open at the threshold."""
        with self._lock:
            self._consecutive_failures += 1
            if (self._state is BreakerState.HALF_OPEN
                    or self._consecutive_failures >= self.failure_threshold):
                if self._state is not BreakerState.OPEN:
                    self.opens += 1
                self._state = BreakerState.OPEN
                self._opened_at = self._clock()

    def state_dict(self) -> dict[str, Any]:
        """Snapshot for ``stats()`` / ``health()`` reporting."""
        with self._lock:
            return {"state": self._state.value,
                    "consecutive_failures": self._consecutive_failures,
                    "opens": self.opens,
                    "probes": self.probes}


class CancellationToken:
    """Cooperative cancellation with an optional monotonic deadline.

    A token is shared between the thread that owns a query (which may
    :meth:`cancel` it) and the thread running it (which calls :meth:`check`
    at its yield points — the executor checks between chunks, so a stream
    stops within one chunk of the deadline).  Deadlines are armed with
    :meth:`set_timeout`; the earliest of several armed deadlines wins.
    """

    def __init__(self, *, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._deadline: float | None = None
        self._cancelled = False
        self._reason = "query cancelled"

    @classmethod
    def with_timeout(cls, seconds: float, *,
                     clock: Callable[[], float] = time.monotonic
                     ) -> "CancellationToken":
        """A fresh token whose deadline is ``seconds`` from now."""
        token = cls(clock=clock)
        token.set_timeout(seconds)
        return token

    def set_timeout(self, seconds: float) -> None:
        """Arm (or tighten) the deadline to ``seconds`` from now."""
        checks.real("timeout", seconds, ValueError, at_least=0)
        deadline = self._clock() + seconds
        with self._lock:
            self._deadline = deadline if self._deadline is None \
                else min(self._deadline, deadline)

    def cancel(self, reason: str = "query cancelled") -> None:
        """Cancel manually; the running query raises at its next check."""
        with self._lock:
            self._cancelled = True
            self._reason = reason

    def remaining(self) -> float | None:
        """Seconds until the deadline (never negative), or None if unarmed."""
        with self._lock:
            deadline = self._deadline
        if deadline is None:
            return None
        return max(0.0, deadline - self._clock())

    @property
    def cancelled(self) -> bool:
        """True once cancelled manually or past the deadline."""
        with self._lock:
            if self._cancelled:
                return True
            return self._deadline is not None and self._clock() >= self._deadline

    def check(self) -> None:
        """Raise if cancelled: the cooperative yield point.

        :class:`~repro.errors.QueryTimeoutError` past the deadline,
        :class:`~repro.errors.QueryCancelledError` after a manual cancel.
        """
        with self._lock:
            if self._cancelled:
                raise QueryCancelledError(self._reason)
            if self._deadline is not None and self._clock() >= self._deadline:
                raise QueryTimeoutError(
                    "query exceeded its deadline and was cancelled between chunks")
