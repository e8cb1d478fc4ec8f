"""Final aggregations and data releases.

The outermost operation of every SELECT statement is an aggregation,
optionally grouped.  Each aggregated value (one per group key) is a separate
*data release*: it receives its own Laplace noise sample and consumes its own
share of the privacy budget (Section 6.2).

Aggregation sensitivities follow the table in Fig. 10, for ``range(a)`` =
``[l, u]``:

=========  =====================================  ===============================
Function   Required constraints                   Sensitivity
=========  =====================================  ===============================
COUNT      delta                                  delta
SUM        delta, range(a)                        delta * (max(u, 0) - min(l, 0))
AVG        delta, range(a), size                  delta * (u - l) / size
VAR        delta, range(a), size                  (delta * (u - l))^2 / size
ARGMAX     delta, explicit keys                   max_k delta(sigma_{a=k})
=========  =====================================  ===============================

A chunk may emit anywhere from 0 to ``max_rows`` rows, so one individual can
add or remove whole rows, not only shift their values: a SUM row moves the
sum by at most its distance from 0, which is ``u - l`` only when the range
contains 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Sequence

from repro.errors import QueryValidationError, UnboundSensitivityError
from repro.relational.expressions import Expression
from repro.relational.sensitivity import SensitivityInfo
from repro.relational.table import Table

SUPPORTED_AGGREGATES = ("COUNT", "SUM", "AVG", "VAR", "ARGMAX")


@dataclass(frozen=True)
class Aggregation:
    """One aggregation of the outer SELECT: function plus target column."""

    function: str
    column: str | None = None
    output_name: str = ""

    def __post_init__(self) -> None:
        function = self.function.upper()
        if function not in SUPPORTED_AGGREGATES:
            raise QueryValidationError(f"unsupported aggregation {self.function!r}")
        object.__setattr__(self, "function", function)
        if function != "COUNT" and function != "ARGMAX" and self.column is None:
            raise QueryValidationError(f"{function} requires a column")
        if not self.output_name:
            target = self.column or "*"
            object.__setattr__(self, "output_name", f"{function.lower()}({target})")


@dataclass(frozen=True)
class GroupSpec:
    """Grouping of the outer SELECT.

    ``expressions`` are the computed key columns (e.g. ``hour(chunk)`` or a
    bare analyst column); ``expected_keys`` enumerates every group to release:
    the ``WITH KEYS`` list, or None until the executor's plan enumerates the
    keys of a chunk or region grouping from the query.
    """

    expressions: tuple[tuple[str, Expression], ...]
    expected_keys: tuple[Any, ...] | None = None

    def referenced_columns(self) -> frozenset[str]:
        """All columns used by the grouping expressions."""
        referenced: frozenset[str] = frozenset()
        for _, expression in self.expressions:
            referenced = referenced | expression.referenced_columns()
        return referenced


class ReleaseKind(str, Enum):
    """Whether a release is a noisy number or a noisy argmax over candidates."""

    NUMERIC = "numeric"
    ARGMAX = "argmax"


@dataclass
class Release:
    """One datum released to the analyst, prior to noise addition."""

    label: str
    kind: ReleaseKind
    sensitivity: float
    #: The aggregate's value; an ARGMAX release's winning key.
    raw_value: Any = None
    candidates: dict[Any, float] | None = None
    group_key: Any | None = None


def _aggregate_values(function: str, values: Sequence[float]) -> float:
    """Raw (non-private) value of a numeric aggregation over a group."""
    if function == "COUNT":
        return float(sum(1 for value in values if value is not None))
    numbers = []
    for value in values:
        if value is None:
            continue
        try:
            numbers.append(float(value))
        except (TypeError, ValueError):
            continue
    if not numbers:
        return 0.0
    if function == "SUM":
        return float(sum(numbers))
    if function == "AVG":
        return float(sum(numbers) / len(numbers))
    if function == "VAR":
        mean = sum(numbers) / len(numbers)
        return float(sum((value - mean) ** 2 for value in numbers) / len(numbers))
    raise QueryValidationError(f"unsupported aggregation {function!r}")


def _numeric_sensitivity(aggregation: Aggregation, info: SensitivityInfo) -> float:
    """Sensitivity of one numeric release, per the Fig. 10 aggregation table."""
    function = aggregation.function
    if function == "COUNT":
        return info.delta
    column = aggregation.column
    bounds = info.range_of(column) if column is not None else None
    if bounds is None:
        raise UnboundSensitivityError(
            f"{function} over column {column!r} requires a range constraint; "
            "wrap the column in range(col, low, high)")
    low, high = bounds
    if function == "SUM":
        return info.delta * (max(high, 0.0) - min(low, 0.0))
    width = high - low
    if info.size is None or info.size <= 0:
        raise UnboundSensitivityError(
            f"{function} requires a bound on the number of rows (LIMIT, WITH KEYS, "
            "or the base table's chunk-count bound)")
    if function == "AVG":
        return info.delta * width / info.size
    if function == "VAR":
        return (info.delta * width) ** 2 / info.size
    raise QueryValidationError(f"unsupported aggregation {function!r}")


def _group_indices(table: Table, group: GroupSpec) -> dict[Any, list[int]]:
    """Partition the table's row indices by group key (row order preserved).

    Each row's key is its grouping expressions' scalar ``evaluate`` (a tuple
    of them for several expressions).
    """
    expressions = [expression for _, expression in group.expressions]
    if len(expressions) == 1:
        keys: Iterable[Any] = map(expressions[0].evaluate, table.rows)
    else:
        keys = (tuple(expression.evaluate(row) for expression in expressions)
                for row in table.rows)
    grouped: dict[Any, list[int]] = {}
    for index, key in enumerate(keys):
        bucket = grouped.get(key)
        if bucket is None:
            grouped[key] = [index]
        else:
            bucket.append(index)
    return grouped


def _source_column(aggregation: Aggregation, table: Table) -> list[Any] | None:
    """The full column an aggregation reads, or None for bare COUNT.

    Extracted once per aggregation (not once per group); the fold in
    :func:`_aggregate_values` is a sequential scalar sum in row order.
    """
    if aggregation.column is None:
        return None
    if not table.has_column(aggregation.column):
        return [None] * len(table)
    return table.column_values(aggregation.column)


def _values_for(source: list[Any] | None, indices: list[int] | None,
                table_size: int) -> list[Any]:
    """Values of one group (``indices`` None = the whole table)."""
    if source is None:
        return [1.0] * (table_size if indices is None else len(indices))
    if indices is None:
        return source
    return [source[index] for index in indices]


def planned_releases(aggregation: Aggregation, info: SensitivityInfo,
                     group: GroupSpec | None = None) -> list[Release]:
    """Every data release of a SELECT, before any row exists: its label, key
    and sensitivity, with no value yet.

    Without grouping this is a single release.  With grouping, one release
    per key of ``group.expected_keys`` (listed by ``WITH KEYS`` or enumerated
    from the query by the executor's plan); ARGMAX is a single release whose
    candidates will be those keys.  A grouping without its keys is refused:
    keys read off the rows would leak which groups had rows.
    """
    if group is None:
        assert aggregation.function != "ARGMAX", "validate_query refuses an ungrouped ARGMAX"
        return [Release(label=aggregation.output_name, kind=ReleaseKind.NUMERIC,
                        sensitivity=_numeric_sensitivity(aggregation, info))]
    keys = group.expected_keys
    if keys is None:
        raise QueryValidationError(
            "a grouped release needs its keys listed (WITH KEYS) or enumerated from the query")
    if aggregation.function == "ARGMAX":
        return [Release(label=aggregation.output_name, kind=ReleaseKind.ARGMAX,
                        sensitivity=_numeric_sensitivity(_argmax_inner(aggregation), info))]
    sensitivity = _numeric_sensitivity(aggregation, info)
    return [Release(label=f"{aggregation.output_name}[{key}]", kind=ReleaseKind.NUMERIC,
                    sensitivity=sensitivity, group_key=key) for key in keys]


def _argmax_inner(aggregation: Aggregation) -> Aggregation:
    """The per-key aggregation ARGMAX ranks: COUNT, or SUM of its column."""
    return Aggregation(function="COUNT" if aggregation.column is None else "SUM",
                       column=aggregation.column)


def compute_releases(table: Table, aggregation: Aggregation, releases: list[Release],
                     group: GroupSpec | None = None) -> list[Release]:
    """Fill in the raw value of every planned data release of a SELECT.

    ``releases`` are :func:`planned_releases`' for ``aggregation`` and
    ``group``; each gets its raw value over ``table`` in place (an ARGMAX
    release also its candidates, the per-key raw values, and the winning
    key as its raw value), and the list is returned.
    """
    if group is None:
        releases[0].raw_value = _aggregate_values(
            aggregation.function,
            _values_for(_source_column(aggregation, table), None, len(table)))
        return releases
    grouped = _group_indices(table, group)
    if aggregation.function == "ARGMAX":
        inner = _argmax_inner(aggregation)
        source = _source_column(inner, table)
        candidates = releases[0].candidates = {
            key: _aggregate_values(inner.function,
                                   _values_for(source, grouped.get(key, []), len(table)))
            for key in group.expected_keys or ()}
        releases[0].raw_value = max(candidates, key=candidates.get) if candidates else None
        return releases
    source = _source_column(aggregation, table)
    for release in releases:
        raw = _aggregate_values(aggregation.function, _values_for(
            source, grouped.get(release.group_key, []), len(table)))
        release.raw_value = 0.0 if math.isnan(raw) else raw
    return releases
