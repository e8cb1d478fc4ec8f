"""Relational plan operators: evaluation plus Fig. 10 sensitivity propagation.

Each operator implements two independent walks over the plan:

* :meth:`Relation.evaluate` computes the operator's output rows from the
  untrusted intermediate tables (used only for the *raw* query answer);
* :meth:`Relation.sensitivity` computes the operator's
  :class:`~repro.relational.sensitivity.SensitivityInfo` purely from query
  structure and the tables' declared properties — never from their contents.
  This separation is what lets Privid bound noise without trusting the
  analyst-generated tables (Section 6.3).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping, Sequence

from repro.errors import QueryValidationError, SchemaError
from repro.relational.expressions import Expression, RangeExpression, TimeBucket
from repro.relational.sensitivity import SensitivityInfo, TableProperties
from repro.relational.table import Table
from repro.utils import checks


@dataclass
class PlanContext:
    """Everything a plan needs to evaluate and analyse itself.

    ``tables`` holds the materialised intermediate tables by name, and
    ``properties`` the corresponding declared facts (max_rows, chunking,
    policy) used for sensitivity.
    """

    tables: dict[str, Table] = field(default_factory=dict)
    properties: dict[str, TableProperties] = field(default_factory=dict)

    def table(self, name: str) -> Table:
        """Materialised table by name."""
        if name not in self.tables:
            raise QueryValidationError(f"unknown table {name!r}")
        return self.tables[name]

    def table_properties(self, name: str) -> TableProperties:
        """Declared properties of a table by name."""
        if name not in self.properties:
            raise QueryValidationError(f"no declared properties for table {name!r}")
        return self.properties[name]


class Relation(ABC):
    """Base class of all relational plan operators."""

    @abstractmethod
    def evaluate(self, context: PlanContext) -> Table:
        """Materialise the operator's output rows."""

    @abstractmethod
    def sensitivity(self, context: PlanContext) -> SensitivityInfo:
        """Propagate the Fig. 10 sensitivity bookkeeping."""

    @abstractmethod
    def output_columns(self, context: PlanContext) -> tuple[str, ...]:
        """Names of the operator's output columns."""


@dataclass
class TableScan(Relation):
    """Read an intermediate table produced by a PROCESS statement."""

    table_name: str

    def evaluate(self, context: PlanContext) -> Table:
        return context.table(self.table_name)

    def sensitivity(self, context: PlanContext) -> SensitivityInfo:
        return SensitivityInfo.for_table(context.table_properties(self.table_name))

    def output_columns(self, context: PlanContext) -> tuple[str, ...]:
        return context.table(self.table_name).columns


@dataclass
class Limit(Relation):
    """``LIMIT n``: keep the first n rows; binds the size constraint."""

    child: Relation
    limit: int

    def __post_init__(self) -> None:
        checks.count("LIMIT", self.limit, QueryValidationError, 1)

    def evaluate(self, context: PlanContext) -> Table:
        source = self.child.evaluate(context)
        return Table(columns=source.columns, rows=source.rows[: self.limit], name=source.name)

    def sensitivity(self, context: PlanContext) -> SensitivityInfo:
        info = self.child.sensitivity(context)
        size = float(self.limit) if info.size is None else min(info.size, float(self.limit))
        return info.with_size(size)

    def output_columns(self, context: PlanContext) -> tuple[str, ...]:
        return self.child.output_columns(context)


@dataclass
class Projection(Relation):
    """``SELECT expr AS name, ...``: compute output columns row by row.

    Range propagation follows Fig. 10: a bare column reference keeps the
    column's existing range constraint; a ``range()`` expression binds a new
    one; any other transformation leaves the output column unbound.  An
    output column is *trusted* (usable as a bare GROUP BY key) only if it is
    derived exclusively from trusted columns.
    """

    child: Relation
    outputs: Sequence[tuple[str, Expression]]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.outputs]
        if not names:
            raise QueryValidationError("projection must produce at least one column")
        if len(names) != len(set(names)):
            raise QueryValidationError("duplicate output column names in projection")

    def evaluate(self, context: PlanContext) -> Table:
        source = self.child.evaluate(context)
        rows = source.rows
        # Each output column is one list, filled straight from the source rows.
        return Table.from_columns({name: [expression.evaluate(row) for row in rows]
                                   for name, expression in self.outputs}, name=source.name)

    def sensitivity(self, context: PlanContext) -> SensitivityInfo:
        info = self.child.sensitivity(context)
        ranges: dict[str, tuple[float, float]] = {}
        trusted: set[str] = set()
        for name, expression in self.outputs:
            referenced = expression.referenced_columns()
            if referenced and referenced <= info.trusted_columns:
                trusted.add(name)
            if isinstance(expression, RangeExpression):
                ranges[name] = (expression.low, expression.high)
            elif expression.is_column_passthrough():
                source_range = info.range_of(next(iter(referenced)))
                if source_range is not None:
                    ranges[name] = source_range
            elif isinstance(expression, TimeBucket):
                # Bucketing preserves trust but produces no numeric range.
                pass
        return SensitivityInfo(delta=info.delta, ranges=ranges, size=info.size,
                               trusted_columns=frozenset(trusted))

    def output_columns(self, context: PlanContext) -> tuple[str, ...]:
        return tuple(name for name, _ in self.outputs)


#: Per-column aggregation functions allowed inside an intermediate GROUP BY.
GROUP_AGGREGATORS = ("first", "min", "max", "sum", "count")


@dataclass
class GroupBy(Relation):
    """Intermediate GROUP BY used to collapse duplicate rows (deduplication).

    The paper's canonical use is ``GROUP BY plate`` before counting unique
    cars (Section 6.2).  Output rows contain the key columns plus, for every
    other child column, the first value observed in the group; ``aggregations``
    can instead compute per-group summaries (min/max/sum/count), e.g. the
    first and last chunk a taxi was sighted in.  When the key columns are
    analyst-provided, an explicit key list must be supplied (``WITH KEYS``);
    rows whose key is not in the list are dropped, so the key set — and hence
    the group structure — is data-independent.
    """

    child: Relation
    keys: Sequence[str]
    explicit_keys: Sequence[Any] | None = None
    aggregations: Mapping[str, tuple[str, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.keys:
            raise QueryValidationError("GROUP BY requires at least one key column")
        for output_name, (source, func) in self.aggregations.items():
            if func not in GROUP_AGGREGATORS:
                raise QueryValidationError(
                    f"unsupported group aggregator {func!r} for column {output_name!r}")
            if not source:
                raise QueryValidationError(f"aggregator for {output_name!r} needs a source column")

    def _key_of(self, row: Mapping[str, Any]) -> tuple[Any, ...]:
        return tuple(row.get(key) for key in self.keys)

    def _allowed_keys(self) -> set[tuple[Any, ...]] | None:
        if self.explicit_keys is None:
            return None
        allowed: set[tuple[Any, ...]] = set()
        for key in self.explicit_keys:
            if isinstance(key, tuple):
                allowed.add(key)
            else:
                allowed.add((key,))
        return allowed

    @staticmethod
    def _apply_aggregator(func: str, values: list[Any]) -> Any:
        numbers = []
        for value in values:
            if value is None:
                continue
            try:
                numbers.append(float(value))
            except (TypeError, ValueError):
                continue
        if func == "count":
            return float(len([value for value in values if value is not None]))
        if func == "first":
            return values[0] if values else None
        if not numbers:
            return None
        if func == "min":
            return min(numbers)
        if func == "max":
            return max(numbers)
        return sum(numbers)

    def evaluate(self, context: PlanContext) -> Table:
        source = self.child.evaluate(context)
        allowed = self._allowed_keys()
        groups: dict[tuple[Any, ...], list[dict[str, Any]]] = {}
        for row in source.rows:
            key = self._key_of(row)
            if allowed is not None and key not in allowed:
                continue
            groups.setdefault(key, []).append(row)
        rows: list[dict[str, Any]] = []
        for key, members in groups.items():
            output = dict(members[0])
            for output_name, (source_column, func) in self.aggregations.items():
                values = [member.get(source_column) for member in members]
                output[output_name] = self._apply_aggregator(func, values)
            rows.append(output)
        return Table(columns=self.output_columns(context), rows=rows, name=source.name)

    def sensitivity(self, context: PlanContext) -> SensitivityInfo:
        info = self.child.sensitivity(context)
        ranges = dict(info.ranges)
        for output_name, (source_column, func) in self.aggregations.items():
            if func in ("first", "min", "max") and info.range_of(source_column) is not None:
                ranges[output_name] = info.ranges[source_column]
            elif output_name in ranges and output_name not in (source_column,):
                ranges.pop(output_name, None)
        info = SensitivityInfo(delta=info.delta, ranges=ranges, size=info.size,
                               trusted_columns=info.trusted_columns)
        if self.explicit_keys is None:
            untrusted = [key for key in self.keys if key not in info.trusted_columns]
            if untrusted:
                raise QueryValidationError(
                    f"GROUP BY over analyst columns {untrusted} requires WITH KEYS "
                    "(otherwise the presence of a rare key itself leaks information)")
            return info
        size = float(len(self.explicit_keys))
        if info.size is not None:
            size = min(size, info.size)
        return info.with_size(size)

    def output_columns(self, context: PlanContext) -> tuple[str, ...]:
        base = self.child.output_columns(context)
        extra = tuple(name for name in self.aggregations if name not in base)
        return base + extra


@dataclass
class Union(Relation):
    """Concatenate the rows of several relations (UNION ALL).

    Used to aggregate across multiple cameras by stacking their intermediate
    tables (e.g. Q4 and Q6 in the evaluation).  An event could influence rows
    in every input, so the deltas add; row-count bounds add as well; a range
    constraint survives only if every input binds it (with the union of the
    bounds).
    """

    children: Sequence[Relation]

    def __post_init__(self) -> None:
        if not self.children:
            raise QueryValidationError("UNION requires at least one input relation")

    def evaluate(self, context: PlanContext) -> Table:
        columns = self.output_columns(context)
        rows: list[dict[str, Any]] = []
        for child in self.children:
            for row in child.evaluate(context).rows:
                rows.append({column: row.get(column) for column in columns})
        return Table(columns=columns, rows=rows, name="union")

    def sensitivity(self, context: PlanContext) -> SensitivityInfo:
        infos = [child.sensitivity(context) for child in self.children]
        delta = sum(info.delta for info in infos)
        if any(info.size is None for info in infos):
            size: float | None = None
        else:
            size = sum(info.size for info in infos)  # type: ignore[misc]
        ranges: dict[str, tuple[float, float]] = {}
        shared = set(infos[0].ranges)
        for info in infos[1:]:
            shared &= set(info.ranges)
        for column in shared:
            lows = [info.ranges[column][0] for info in infos]
            highs = [info.ranges[column][1] for info in infos]
            ranges[column] = (min(lows), max(highs))
        trusted = infos[0].trusted_columns
        for info in infos[1:]:
            trusted = trusted & info.trusted_columns
        return SensitivityInfo(delta=delta, ranges=ranges, size=size,
                               trusted_columns=frozenset(trusted))

    def output_columns(self, context: PlanContext) -> tuple[str, ...]:
        columns: list[str] = []
        for child in self.children:
            for column in child.output_columns(context):
                if column not in columns:
                    columns.append(column)
        return tuple(columns)


class JoinKind(str, Enum):
    """Join flavours supported by the grammar (equijoin = intersection, outer = union)."""

    INNER = "inner"
    OUTER = "outer"


@dataclass
class Join(Relation):
    """Equi/outer join of two relations on a set of key columns.

    The sensitivity of a join is the *sum* of its inputs' sensitivities, not
    the minimum: because either input's executable can "prime" its table with
    values it expects in the other, an event need only influence one side to
    influence the join output (Section 6.3, "Privacy semantics of untrusted
    tables").
    """

    left: Relation
    right: Relation
    on: Sequence[str]
    kind: JoinKind = JoinKind.INNER

    def __post_init__(self) -> None:
        if not self.on:
            raise QueryValidationError("JOIN requires at least one key column")

    def _key_of(self, row: Mapping[str, Any]) -> tuple[Any, ...]:
        return tuple(row.get(key) for key in self.on)

    def _inputs_deduplicated_on_keys(self) -> bool:
        """True if both inputs are GROUP BYs over exactly the join keys."""
        return (isinstance(self.left, GroupBy) and isinstance(self.right, GroupBy)
                and set(self.left.keys) == set(self.on)
                and set(self.right.keys) == set(self.on))

    def evaluate(self, context: PlanContext) -> Table:
        left_table = self.left.evaluate(context)
        right_table = self.right.evaluate(context)
        for key in self.on:
            if not left_table.has_column(key) or not right_table.has_column(key):
                raise SchemaError(f"join key {key!r} missing from one of the inputs")
        output_columns = self.output_columns(context)
        right_by_key: dict[tuple[Any, ...], list[dict[str, Any]]] = {}
        for row in right_table.rows:
            right_by_key.setdefault(self._key_of(row), []).append(row)
        rows: list[dict[str, Any]] = []
        matched_right_keys: set[tuple[Any, ...]] = set()
        for left_row in left_table.rows:
            key = self._key_of(left_row)
            matches = right_by_key.get(key, [])
            if matches:
                matched_right_keys.add(key)
                for right_row in matches:
                    merged = dict(right_row)
                    merged.update(left_row)
                    rows.append({column: merged.get(column) for column in output_columns})
            elif self.kind is JoinKind.OUTER:
                rows.append({column: left_row.get(column) for column in output_columns})
        if self.kind is JoinKind.OUTER:
            for key, right_rows in right_by_key.items():
                if key in matched_right_keys:
                    continue
                for right_row in right_rows:
                    rows.append({column: right_row.get(column) for column in output_columns})
        return Table(columns=output_columns, rows=rows, name="join")

    def sensitivity(self, context: PlanContext) -> SensitivityInfo:
        left_info = self.left.sensitivity(context)
        right_info = self.right.sensitivity(context)
        delta = left_info.delta + right_info.delta
        ranges = dict(right_info.ranges)
        ranges.update(left_info.ranges)
        if left_info.size is None or right_info.size is None:
            size: float | None = None
        elif self._inputs_deduplicated_on_keys():
            # Fig. 10 requires joins to be immediately preceded by a GROUP BY
            # over the join keys; keys are then unique on each side, so an
            # inner join has at most min(left, right) rows and an outer join
            # at most left + right.
            if self.kind is JoinKind.INNER:
                size = min(left_info.size, right_info.size)
            else:
                size = left_info.size + right_info.size
        elif self.kind is JoinKind.INNER:
            size = left_info.size * right_info.size
        else:
            size = left_info.size + right_info.size
        trusted = left_info.trusted_columns & right_info.trusted_columns
        return SensitivityInfo(delta=delta, ranges=ranges, size=size,
                               trusted_columns=frozenset(trusted))

    def output_columns(self, context: PlanContext) -> tuple[str, ...]:
        left_columns = self.left.output_columns(context)
        right_columns = self.right.output_columns(context)
        extra = tuple(column for column in right_columns if column not in left_columns)
        return left_columns + extra
