"""Seeded multi-tenant workload model: an open-loop arrival schedule.

A workload is a *schedule*: a sorted sequence of arrival events, each naming
the tenant that submits, the camera it targets, the query kind it draws from
the configured mix, and the virtual-time offset at which it arrives.  Two
modeling choices follow the methodology exemplars in PAPERS.md:

* **Skewed popularity.**  Real tenant populations are never uniform: a few
  analysts issue most queries and a few cameras absorb most load.  Both
  tenant activity and camera popularity follow zipf distributions
  (``weight(rank) = 1 / rank**s``), the standard heavy-tail model.
* **Open-loop Poisson arrivals.**  Open-loop load (arrivals keep coming
  whether or not the service keeps up) is what exposes queueing collapse;
  inter-arrival gaps are exponential draws, making the arrival process
  Poisson.

Determinism is the non-negotiable property: every draw is
``unit_draw(stream_key(seed, tokens...), counter)`` — the same splitmix64
counter-hash discipline as the synthetic detector — so a schedule is a pure
function of its :class:`WorkloadConfig`, independent of Python hash seeds,
dict order, numpy versions or wall clocks, and two generations are
byte-identical (``WorkloadSchedule.digest`` pins it).
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from numbers import Integral

from repro.utils.hashing import stream_key, string_token, unit_draw

__all__ = [
    "ArrivalEvent",
    "WorkloadConfig",
    "WorkloadSchedule",
    "generate_schedule",
    "zipf_weights",
]


def zipf_weights(count: int, exponent: float) -> tuple[float, ...]:
    """Normalized zipf weights for ``count`` ranks: ``1 / rank**exponent``.

    ``exponent=0`` degenerates to uniform; larger exponents concentrate mass
    on the first ranks (at 1.0, rank 1 of 8 carries ~37% of the load).
    """
    if count <= 0:
        raise ValueError("zipf_weights needs at least one rank")
    raw = [1.0 / float(rank) ** exponent for rank in range(1, count + 1)]
    total = math.fsum(raw)
    return tuple(weight / total for weight in raw)


def _cumulative(weights: tuple[float, ...]) -> list[float]:
    edges: list[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight
        edges.append(acc)
    edges[-1] = 1.0 + 1e-12  # guard the u≈1.0 edge against fsum round-off
    return edges


def _pick(edges: list[float], u: float) -> int:
    """Index of the category whose cumulative-weight slot contains ``u``."""
    return min(bisect_right(edges, u), len(edges) - 1)


def _exponential(u: float, mean: float) -> float:
    """Inverse-CDF exponential draw with the given mean from ``u ∈ [0, 1)``."""
    return -mean * math.log1p(-u)


@dataclass(frozen=True)
class ArrivalEvent:
    """One query arrival of the workload.

    ``offset_s`` is the submission instant, in virtual time from the start
    of the run.  ``tenant_seq`` numbers the event among its tenant's own
    arrivals.
    """

    seq: int
    tenant: int
    tenant_seq: int
    offset_s: float
    camera: str
    kind: str

    def canonical(self) -> tuple:
        """The tuple the schedule digest hashes — every field, exactly."""
        return (self.seq, self.tenant, self.tenant_seq,
                self.offset_s.hex(), self.camera, self.kind)


def _check_number(name: str, value: float, *, positive: bool = False) -> None:
    """Raise unless ``value`` is finite and ``>= 0`` (``> 0`` if ``positive``)."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {bound}, not {value!r}")


@dataclass(frozen=True)
class WorkloadConfig:
    """Everything that determines a workload schedule, and nothing else.

    ``arrival_rate_per_s`` is the mean arrivals per virtual second over the
    whole population, for ``duration_s`` virtual seconds.  ``query_mix``
    maps query kind → weight; the caller resolves kinds to concrete
    queries, so the workload model stays independent of the query language.
    ``mode`` names the arrival process; ``"open"`` is the only one.
    """

    seed: int
    num_tenants: int
    cameras: tuple[str, ...]
    mode: str = "open"
    duration_s: float = 60.0              # virtual run length
    arrival_rate_per_s: float = 4.0       # population-wide rate
    tenant_skew: float = 1.0              # zipf exponent over tenants
    camera_skew: float = 0.8              # zipf exponent over cameras
    query_mix: tuple[tuple[str, float], ...] = (("count", 3.0),
                                                ("count_bucketed", 2.0),
                                                ("sum", 1.0))
    max_events: int = 100_000             # runaway guard

    def __post_init__(self) -> None:
        if self.mode != "open":
            raise ValueError(f"mode must be 'open', not {self.mode!r}")
        for name in ("num_tenants", "max_events"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value <= 0:
                raise ValueError(f"{name} must be a positive integer, "
                                 f"not {value!r}")
        if not self.cameras:
            raise ValueError("at least one camera is required")
        if not self.query_mix:
            raise ValueError("query_mix must name at least one kind")
        _check_number("duration_s", self.duration_s)
        _check_number("arrival_rate_per_s", self.arrival_rate_per_s,
                      positive=True)
        _check_number("tenant_skew", self.tenant_skew)
        _check_number("camera_skew", self.camera_skew)
        for kind, weight in self.query_mix:
            _check_number(f"query_mix weight of {kind!r}", weight)
        if not math.fsum(weight for _, weight in self.query_mix) > 0:
            raise ValueError(f"query_mix weights must have a positive sum, "
                             f"not {self.query_mix!r}")


@dataclass(frozen=True)
class WorkloadSchedule:
    """A generated workload: the config plus its sorted arrival events."""

    config: WorkloadConfig
    events: tuple[ArrivalEvent, ...] = field(default_factory=tuple)

    def digest(self) -> str:
        """sha256 over the canonical event tuples — the replay fingerprint.

        Floats enter as ``float.hex()`` so the digest is exact, not
        formatted: two schedules share a digest iff they are byte-identical.
        """
        body = repr([event.canonical() for event in self.events])
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    def counts_by(self, attribute: str) -> dict:
        """Event counts grouped by an event attribute (``camera``, ``tenant``,
        ``kind``) — the inputs to the zipf frequency checks."""
        counts: dict = {}
        for event in self.events:
            key = getattr(event, attribute)
            counts[key] = counts.get(key, 0) + 1
        return counts

    @property
    def duration_s(self) -> float:
        """Offset of the last event (0.0 for an empty schedule)."""
        return self.events[-1].offset_s if self.events else 0.0


def generate_schedule(config: WorkloadConfig) -> WorkloadSchedule:
    """Generate the deterministic arrival schedule of a workload config.

    One population-wide Poisson clock; every draw keyed by arrival index.
    """
    tenant_edges = _cumulative(zipf_weights(config.num_tenants,
                                            config.tenant_skew))
    camera_edges = _cumulative(zipf_weights(len(config.cameras),
                                            config.camera_skew))
    mix_total = math.fsum(weight for _, weight in config.query_mix)
    mix_edges = _cumulative(tuple(weight / mix_total
                                  for _, weight in config.query_mix))
    kinds = tuple(kind for kind, _ in config.query_mix)
    gap_key = stream_key(config.seed, string_token("serving/open/gap"))
    tenant_key = stream_key(config.seed, string_token("serving/open/tenant"))
    camera_key = stream_key(config.seed, string_token("serving/open/camera"))
    kind_key = stream_key(config.seed, string_token("serving/open/kind"))
    mean_gap = 1.0 / config.arrival_rate_per_s

    events: list[ArrivalEvent] = []
    tenant_seqs: dict[int, int] = {}
    offset = 0.0
    for index in range(config.max_events):
        offset += _exponential(unit_draw(gap_key, index), mean_gap)
        if offset > config.duration_s:
            break
        tenant = _pick(tenant_edges, unit_draw(tenant_key, index))
        tenant_seq = tenant_seqs.get(tenant, 0)
        tenant_seqs[tenant] = tenant_seq + 1
        events.append(ArrivalEvent(
            seq=index, tenant=tenant, tenant_seq=tenant_seq, offset_s=offset,
            camera=config.cameras[_pick(camera_edges, unit_draw(camera_key, index))],
            kind=kinds[_pick(mix_edges, unit_draw(kind_key, index))]))
    return WorkloadSchedule(config=config, events=tuple(events))
