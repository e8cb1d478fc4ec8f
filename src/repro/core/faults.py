"""Deterministic, seeded fault injection for chaos testing the deployment.

Resilience claims need systematic, *repeatable* failure experiments — a bug
that only shows up when a shard dies between seq 7 and 8 is useless anecdote
unless the same crash can be replayed on demand.  This module provides that
seam: a :class:`FaultPlan` is a declarative schedule of faults, and a
:class:`FaultInjector` evaluates it at well-defined *sites* threaded through
the transports (:class:`FaultyTransport` around any
:class:`~repro.core.remote.ShardTransport`), the disk store
(:class:`~repro.core.cache.DiskChunkStore` strikes ``store.get`` /
``store.put``), shard spawning (:func:`faulty_transport_factory` strikes
``*.connect``) and the write-ahead log (``wal.*``).  A plan goes in one
way per component: ``set_fault_injector`` on the engine and the store,
the constructor of the WAL (whose recovery polls while the log opens), and
``QueryService(fault_injector=)``, which hands it to all three.  Production
code never imports a plan; a ``None`` injector is free: every site guards
its call with ``is not None``.

Determinism
===========

Fault decisions use the exact splitmix64 discipline of the noise streams
(:mod:`repro.utils.hashing`): whether a probabilistic rule fires at a site is
``unit_draw(stream_key(plan.seed, site, kind), lane) < probability`` where
the *lane* is the injector's per-site operation counter — or, when the
caller passes a content ``token`` (the disk store passes the entry key), a
pure function of that identity.  Scheduled rules (``at`` indices,
``after_seq``) do not draw at all.  Consequences:

* the *decision* for a given (site, lane) is a pure function of the plan —
  never of wall-clock time or a global RNG;
* sites polled from a single driving thread (task dispatch, connects, store
  operations under a sequential query drive) therefore replay their fault
  sequence bit-identically across runs;
* sites polled as frames arrive (result frames) have deterministic
  per-decision draws but an arrival order the OS scheduler picks, so their
  realized sequence is only guaranteed to replay under a sequential drive
  with deterministic shard assignment.  The chaos harness asserts exact
  replay on the former class and byte-identity-of-results on all of them.

Heartbeat traffic (``ping``/``pong``) is deliberately *exempt* from
injection: pings fire on wall-clock silence, so polling the injector for
them would make every other site's operation counters timing-dependent and
destroy replay.

Fault taxonomy (:class:`FaultKind`)
===================================

Two kinds mean the same at every site, and :meth:`FaultInjector.strike`
alone carries them out:

``DELAY``         the operation sleeps ``delay`` seconds, then proceeds.
``IO_ERROR``      the operation raises :class:`OSError` naming the site: a
                  store read or write degrades to a counted miss, a task
                  write or a result read marks the shard dead, a connect
                  leaves the slot unreachable, a WAL operation fails.

The one exception is a DELAY on a result frame: it sleeps nowhere, but goes
on as a ``delayed`` wrapper that the coordinator's core delivers that much
later, because a sleep inside the one wait would stall every shard.

Every other kind comes back to its site, which gives it the site's meaning:

``TORN_FRAME``    a result frame is lost mid-read and the connection torn
                  down (reads as shard death; pending work is redispatched).
``DROP_FRAME``    a frame silently vanishes (written into the void, or read
                  and discarded) while the connection stays up — the stall
                  only ``task_timeout`` redispatch recovers from.
``CONNECT_REFUSED`` a transport factory raises ``ConnectionRefusedError``
                  (the slot stays empty until the next stream start).
``CRASH``         the far end is killed right after accepting a task frame
                  (``after_seq`` schedules "crash at seq N"; pair with
                  ``max_fires`` so the respawned shard survives the retry);
                  at a ``service.crash_at_*`` site, the WAL's crash hook.
``CORRUPT``       the store entry is scribbled over before the read (or a
                  byte of the loaded WAL image flipped), so the
                  corrupt-entry self-heal path runs for real.

A site ignores a returned kind it gives no meaning to.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from enum import Enum
from fnmatch import fnmatchcase
from typing import Any

from repro.utils import checks
from repro.utils.hashing import stream_key, string_token, unit_draw


class FaultKind(str, Enum):
    """What happens when a rule fires (see the module taxonomy table)."""

    TORN_FRAME = "torn_frame"
    DROP_FRAME = "drop_frame"
    CONNECT_REFUSED = "connect_refused"
    CRASH = "crash"
    DELAY = "delay"
    IO_ERROR = "io_error"
    CORRUPT = "corrupt"


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault: *where* (site pattern), *what* (kind), *when*.

    ``site`` is an ``fnmatch`` pattern over site names
    (``"transport.*.task"``, ``"store.get"``).  Exactly one trigger should
    be meaningful: ``probability`` draws per operation from the plan's
    seeded stream, ``at`` fires at explicit per-site operation indices,
    ``after_seq`` fires once the polled ``seq`` reaches a threshold (the
    "crash at seq N" schedule — it defaults ``max_fires`` to 1, since every
    later seq would match too).  ``max_fires`` caps total firings of the
    rule across all sites; ``delay`` is the sleep of DELAY faults.
    """

    site: str
    kind: FaultKind
    probability: float = 0.0
    at: tuple[int, ...] = ()
    after_seq: int | None = None
    delay: float = 0.0
    max_fires: int | None = None

    def __post_init__(self) -> None:
        if checks.probability("probability", self.probability, ValueError) == 0 \
                and not self.at and self.after_seq is None:
            raise ValueError(
                "a FaultRule needs a trigger: probability, at, or after_seq")
        if self.after_seq is not None:
            checks.count("after_seq", self.after_seq, ValueError)
        checks.real("delay", self.delay, ValueError, at_least=0)
        if self.max_fires is not None:
            checks.count("max_fires", self.max_fires, ValueError, 1)
        if self.after_seq is not None and self.max_fires is None:
            # Every seq past the threshold matches, so an unbounded
            # crash-at-seq rule would kill the respawned shard on the very
            # retry that was meant to recover.  One firing is the schedule
            # people mean by "crash at seq N".
            object.__setattr__(self, "max_fires", 1)


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded schedule of faults — the unit a chaos run replays."""

    rules: tuple[FaultRule, ...]
    seed: int = 0
    name: str = "fault-plan"

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        checks.count("seed", self.seed, ValueError)

    def injector(self) -> "FaultInjector":
        """A fresh injector (fresh counters) evaluating this plan."""
        return FaultInjector(self)


@dataclass(frozen=True)
class FaultEvent:
    """One firing, recorded for replay assertions: where, what, which op."""

    site: str
    kind: FaultKind
    index: int
    seq: int | None = None
    token: str | None = None

    def describe(self) -> str:
        parts = [f"{self.site}#{self.index}", self.kind.value]
        if self.seq is not None:
            parts.append(f"seq={self.seq}")
        if self.token is not None:
            parts.append(f"token={self.token[:12]}")
        return " ".join(parts)


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at injection sites; thread-safe.

    One injector per chaos run: it owns the per-site operation counters and
    the ``fired`` log.  ``poll(site)`` advances the site's counter and
    returns the first matching rule that fires (or None), recording a
    :class:`FaultEvent`.  Pass ``seq`` at sites with a protocol sequence
    number (task writes) so ``after_seq`` rules can trigger, and ``token``
    at content-addressed sites (store entries) so decisions are pure
    functions of the entry identity rather than arrival order.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._op_counts: dict[str, int] = {}
        self._rule_fires: dict[int, int] = {}
        self._fired: list[FaultEvent] = []

    @property
    def fired(self) -> list[FaultEvent]:
        """A snapshot of the fired events, safe to iterate while polling.

        One injector is shared by the engine, the store, and the WAL, all of
        which may poll from concurrent query threads — so the backing list
        mutates under readers.  Returning a copy taken under the lock keeps
        ``len(injector.fired)`` and iteration race-free; appends happen only
        inside :meth:`poll`, which already holds the same lock.
        """
        with self._lock:
            return list(self._fired)

    def poll(self, site: str, *, seq: int | None = None,
             token: str | None = None) -> FaultRule | None:
        """Evaluate the plan for one operation at ``site``."""
        with self._lock:
            index = self._op_counts.get(site, 0)
            self._op_counts[site] = index + 1
            for rule_index, rule in enumerate(self.plan.rules):
                if not fnmatchcase(site, rule.site):
                    continue
                if (rule.max_fires is not None
                        and self._rule_fires.get(rule_index, 0) >= rule.max_fires):
                    continue
                if not self._rule_fires_now(rule, site, index, seq, token):
                    continue
                self._rule_fires[rule_index] = self._rule_fires.get(rule_index, 0) + 1
                self._fired.append(FaultEvent(site=site, kind=rule.kind,
                                              index=index, seq=seq, token=token))
                return rule
            return None

    def strike(self, site: str, *, seq: int | None = None,
               token: str | None = None) -> FaultKind | None:
        """Poll ``site`` and carry out what the firing rule means there."""
        return self.carry_out(self.poll(site, seq=seq, token=token), site)

    def carry_out(self, rule: FaultRule | None, site: str) -> FaultKind | None:
        """The kinds that mean one thing everywhere (module taxonomy): a
        DELAY sleeps and returns None, an IO_ERROR raises :class:`OSError`
        naming ``site``; any other kind comes back for the site to apply."""
        if rule is None:
            return None
        if rule.kind is FaultKind.DELAY:
            time.sleep(rule.delay)
            return None
        if rule.kind is FaultKind.IO_ERROR:
            raise OSError(f"injected IO error at {site}")
        return rule.kind

    def _rule_fires_now(self, rule: FaultRule, site: str, index: int,
                        seq: int | None, token: str | None) -> bool:
        if rule.after_seq is not None:
            return seq is not None and seq >= rule.after_seq
        if index in rule.at:
            return True
        if rule.probability <= 0.0:
            return False
        if rule.probability >= 1.0:
            return True
        lane = string_token(token) if token is not None else index
        key = stream_key(self.plan.seed, string_token(site),
                         string_token(rule.kind.value))
        return unit_draw(key, lane) < rule.probability

    def op_count(self, site: str) -> int:
        """Operations polled at ``site`` so far."""
        with self._lock:
            return self._op_counts.get(site, 0)

    def log(self) -> tuple[str, ...]:
        """The fired events as stable strings, for replay comparison."""
        with self._lock:
            return tuple(event.describe() for event in self._fired)

    def summary(self) -> dict[str, int]:
        """Fired-event counts by (site, kind) — the chaos report shape."""
        with self._lock:
            counts: dict[str, int] = {}
            for event in self._fired:
                label = f"{event.site}:{event.kind.value}"
                counts[label] = counts.get(label, 0) + 1
            return counts


# ---------------------------------------------------------------- transports


def _frame_bytes(message: dict[str, Any]) -> int:
    """Wire size a frame would have had (for faults that swallow writes)."""
    return 4 + len(json.dumps(message, separators=(",", ":")).encode("utf-8"))


class FaultyTransport:
    """Wraps a :class:`~repro.core.remote.ShardTransport`, injecting faults.

    Polls the injector only on the *deterministic* protocol events — task
    frames on the write side (site ``{site}.task``, with the task's seq) and
    result frames on the read side (site ``{site}.result``) — so heartbeat
    timing never perturbs the operation counters.  Everything else,
    ``payload`` frames included, is the wrapped transport's.
    """

    def __init__(self, inner: Any, injector: FaultInjector, site: str) -> None:
        self.inner = inner
        self.injector = injector
        self.site = site
        self.description = f"faulty({inner.description})"

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def read(self) -> list[dict[str, Any]] | None:
        frames = self.inner.read()
        if not frames:
            return frames
        site = f"{self.site}.result"
        passed: list[dict[str, Any]] = []
        for message in frames:
            rule = None if message.get("type") != "result" else \
                self.injector.poll(site, seq=message.get("seq"))
            if rule is not None and rule.kind is FaultKind.DELAY:
                # The taxonomy's one exception: held back by the
                # coordinator's core, never by a sleep, because the one wait
                # reads every shard and a sleep would stall them all.
                passed.append({"type": "delayed", "delay": rule.delay, "frame": message})
                continue
            kind = self.injector.carry_out(rule, site)
            if kind is FaultKind.TORN_FRAME:
                # The stream tore mid-frame: unrecoverable on a byte
                # transport, so the connection dies with it.
                self.inner.kill()
                return passed or None
            if kind is not FaultKind.DROP_FRAME:  # a drop vanished in transit
                passed.append(message)
        return passed

    def write(self, message: dict[str, Any]) -> int:
        if message.get("type") != "task":
            return self.inner.write(message)
        kind = self.injector.strike(f"{self.site}.task", seq=message.get("seq"))
        if kind is FaultKind.DROP_FRAME:
            # Written into the void: the caller sees success, the far end
            # sees nothing — the pure stall only task timeouts recover from.
            return _frame_bytes(message)
        if kind is FaultKind.CRASH:
            # The far end dies right after accepting the task.
            try:
                sent = self.inner.write(message)
            except OSError:
                sent = _frame_bytes(message)
            self.inner.kill()
            return sent
        return self.inner.write(message)


def faulty_transport_factory(factory: Any, injector: FaultInjector,
                             site: str) -> Any:
    """Wrap a transport factory so connects and frames go through the plan.

    Strikes ``{site}.connect`` before construction: a DELAY sleeps first,
    and an IO_ERROR or a CONNECT_REFUSED (a :class:`ConnectionRefusedError`)
    raises the :class:`OSError` a worker that cannot be started raises, so
    the slot reads as unreachable.  Then wraps the built transport in a
    :class:`FaultyTransport`.
    """

    def build() -> FaultyTransport:
        if injector.strike(f"{site}.connect") is FaultKind.CONNECT_REFUSED:
            raise ConnectionRefusedError(f"injected connection refusal at {site}")
        return FaultyTransport(factory(), injector, site)

    return build
