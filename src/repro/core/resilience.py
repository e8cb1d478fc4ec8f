"""Deadlines: cooperative cancellation for the always-on service.

:class:`CancellationToken` is cooperative cancellation with an optional
monotonic deadline, so a query wedged behind a dead shard or a slow scene
cannot hold a service slot forever.  Work that honours a token calls
:meth:`~CancellationToken.check` at its natural yield points (the executor
checks between chunks); a passed deadline raises
:class:`~repro.errors.QueryTimeoutError`, a manual
:meth:`~CancellationToken.cancel` raises
:class:`~repro.errors.QueryCancelledError`.  It is dependency-free and
thread-safe: a token is armed by the submitting thread but checked by the
pool thread running the query.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.utils import checks


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
