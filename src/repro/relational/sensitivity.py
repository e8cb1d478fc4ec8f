"""Sensitivity bookkeeping carried through the relational plan (Fig. 10).

Every relational operator computes three pieces of information about its
output relation:

* ``delta`` — the maximum number of rows that could differ given the presence
  or absence of any (rho, K)-bounded event (written Delta_P(R) in the paper);
* ``ranges`` — per-column range constraints (written C~_r(R, a)); a column
  without an entry is *unbound* and cannot be summed or averaged until a
  ``range(col, low, high)`` projection binds it;
* ``size`` — an upper bound on the total number of rows (C~_s(R)), required
  by AVG and VAR; unbound until a LIMIT, explicit GROUP BY keys, or the base
  table's chunk-count bound provides one.

The base-table delta is Definition 6.1 / Equation 6.2:
``max_rows * K * max_chunks(rho)`` with ``max_chunks`` from Equation 6.1.

``trusted_columns`` tracks which columns were generated by Privid itself
(``chunk``, ``region``) or derived purely from them; only those may be used
as GROUP BY keys without an explicit key list (Appendix D).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.video.chunking import num_chunks_spanned
from repro.relational.table import CHUNK_COLUMN, REGION_COLUMN
from repro.utils import checks


@dataclass(frozen=True)
class TableProperties:
    """Facts about a PROCESS'd intermediate table needed for sensitivity.

    These are all chosen by the query / policy, never read from the table
    contents: the chunk duration and window come from the SPLIT statement,
    ``max_rows`` from the PROCESS statement, and (rho, K) from the camera's
    privacy policy (possibly adjusted for the selected mask).
    """

    name: str
    max_rows: int
    chunk_duration: float
    num_chunks: int
    rho: float
    k_segments: int

    def __post_init__(self) -> None:
        checks.count("max_rows", self.max_rows, ValueError, 1)
        checks.real("chunk_duration", self.chunk_duration, ValueError, above=0)
        checks.count("num_chunks", self.num_chunks, ValueError)
        checks.real("rho", self.rho, ValueError, at_least=0)
        checks.count("k_segments", self.k_segments, ValueError, 1)

    @property
    def max_chunks_per_segment(self) -> int:
        """Equation 6.1: chunks a single segment of duration rho can span."""
        return num_chunks_spanned(self.rho, self.chunk_duration)

    @property
    def table_delta(self) -> float:
        """Equation 6.2: rows a (rho, K)-bounded event could influence.

        ``rho == 0`` means nothing protected is ever visible (fully masked
        scenes), so the delta is zero and the query needs no noise.
        """
        if self.rho == 0:
            return 0.0
        return float(self.max_rows * self.k_segments * self.max_chunks_per_segment)

    @property
    def size_bound(self) -> float:
        """Upper bound on the table's total row count."""
        return float(self.max_rows * self.num_chunks)


@dataclass(frozen=True)
class SensitivityInfo:
    """The (delta, range-constraints, size-constraint) triple of Fig. 10."""

    delta: float
    ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    size: float | None = None
    trusted_columns: frozenset[str] = frozenset({CHUNK_COLUMN, REGION_COLUMN})

    def range_of(self, column: str) -> tuple[float, float] | None:
        """Range constraint of a column, or None if unbound."""
        return self.ranges.get(column)

    def with_size(self, size: float | None) -> "SensitivityInfo":
        """Copy with a new size constraint."""
        return replace(self, size=size)

    @classmethod
    def for_table(cls, properties: TableProperties) -> "SensitivityInfo":
        """Initial sensitivity info of a PROCESS'd intermediate table."""
        return cls(
            delta=properties.table_delta,
            ranges={},
            size=properties.size_bound,
            trusted_columns=frozenset({CHUNK_COLUMN, REGION_COLUMN}),
        )
