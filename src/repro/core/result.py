"""Query results returned to the analyst.

A query produces one :class:`ReleaseResult` per data release (one for a plain
aggregation, several for a GROUP BY).  In a production deployment only the
noisy values would leave the system; the raw values are retained on the
result objects because the paper's evaluation needs them (the "Privid (No
Noise)" curves of Fig. 5 and all accuracy numbers of Table 3) — they are
clearly named so no caller mistakes them for safe outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.utils.timebase import TimeInterval


@dataclass
class ReleaseResult:
    """One released datum with its noise accounting.

    ``interval`` is the smallest interval covering every frame the release
    drew budget from (it may include uncharged gaps between sources);
    ``source_intervals`` lists the exact charged intervals per camera,
    matching the ledger charges one for one.  ``candidates`` retains the raw
    per-key values of an ARGMAX release so noise re-sampling can redraw
    report-noisy-max — like ``raw_value_unsafe`` they are evaluation-only and
    never released.
    """

    label: str
    kind: str
    noisy_value: Any
    raw_value_unsafe: Any
    sensitivity: float
    epsilon: float
    noise_scale: float
    group_key: Any | None = None
    interval: TimeInterval | None = None
    source_intervals: dict[str, tuple[TimeInterval, ...]] | None = None
    candidates: dict[Any, float] | None = None

    @property
    def absolute_noise(self) -> float:
        """|noisy - raw| for numeric releases (0 for argmax releases)."""
        if isinstance(self.noisy_value, (int, float)) and isinstance(self.raw_value_unsafe,
                                                                     (int, float)):
            return abs(float(self.noisy_value) - float(self.raw_value_unsafe))
        return 0.0


@dataclass
class QueryResult:
    """All releases of one query plus aggregate accounting.

    ``budget_remaining`` reports, per contributing camera, the minimum
    remaining per-frame budget over the span this query charged — read
    right after the charge with the admission lock still held, so under a
    shared service ledger it reflects every query admitted before this one
    and none admitted after.  ``None`` with ``charge_budget=False``.
    """

    query_name: str
    releases: list[ReleaseResult] = field(default_factory=list)
    epsilon_consumed: float = 0.0
    metadata: dict[str, Any] = field(default_factory=dict)
    budget_remaining: dict[str, float] | None = None

    @property
    def num_releases(self) -> int:
        """Number of data releases the query produced."""
        return len(self.releases)

    def value(self) -> Any:
        """Noisy value of a single-release query (raises if there are several)."""
        if len(self.releases) != 1:
            raise ValueError(f"query produced {len(self.releases)} releases, not exactly one")
        return self.releases[0].noisy_value

    def series(self) -> list[tuple[Any, Any]]:
        """(group key, noisy value) pairs in release order (for grouped queries)."""
        return [(release.group_key, release.noisy_value) for release in self.releases]

    def raw_series_unsafe(self) -> list[tuple[Any, Any]]:
        """(group key, raw value) pairs — evaluation only, never released."""
        return [(release.group_key, release.raw_value_unsafe) for release in self.releases]

    def by_key(self) -> dict[Any, Any]:
        """Mapping from group key to noisy value."""
        return {release.group_key: release.noisy_value for release in self.releases}
