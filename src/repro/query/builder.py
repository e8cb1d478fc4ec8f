"""Fluent programmatic construction of Privid queries.

The textual language (Appendix D) is convenient for analysts typing queries;
programs — the evaluation harness, the examples, downstream users embedding
Privid — are better served by a builder that produces the same AST without
string manipulation.

Example::

    query = (QueryBuilder("hourly-people")
             .split("campus", begin=0, end=12 * 3600, chunk_duration=60,
                    mask="campus-bench-mask", into="chunksA")
             .process("chunksA", executable="count_entering_people.py", max_rows=20,
                      schema=[("kind", "STRING", "")], into="tableA")
             .select_count(table="tableA", group_by_hour=True, epsilon=1.0)
             .build())
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import QueryValidationError
from repro.query.ast import PrividQuery, ProcessStatement, SelectStatement, SplitStatement
from repro.relational.aggregates import Aggregation, GroupSpec
from repro.relational.expressions import Column, RangeExpression, TimeBucket
from repro.relational.plan import Relation, TableScan
from repro.relational.table import ColumnSpec, DataType, Schema
from repro.utils.timebase import SECONDS_PER_HOUR


def make_schema(columns: Sequence[tuple[str, str, Any]] | Schema) -> Schema:
    """Build a Schema from ``(name, dtype, default)`` triples (or pass one through)."""
    if isinstance(columns, Schema):
        return columns
    specs = [ColumnSpec(name=name, dtype=DataType(dtype.upper()), default=default)
             for name, dtype, default in columns]
    return Schema(columns=tuple(specs))


class QueryBuilder:
    """Incrementally assemble a :class:`~repro.query.ast.PrividQuery`."""

    def __init__(self, name: str) -> None:
        self._name = name
        self._splits: list[SplitStatement] = []
        self._processes: list[ProcessStatement] = []
        self._selects: list[SelectStatement] = []

    def split(self, camera: str, *, begin: float, end: float, chunk_duration: float,
              into: str, stride: float = 0.0, mask: str | None = None,
              region_scheme: str | None = None,
              sample_period: float | None = None) -> "QueryBuilder":
        """Add a SPLIT statement."""
        self._splits.append(SplitStatement(
            camera=camera, begin=begin, end=end, chunk_duration=chunk_duration,
            stride=stride, output=into, mask=mask, region_scheme=region_scheme,
            sample_period=sample_period))
        return self

    def process(self, chunks: str, *, executable: str, max_rows: int,
                schema: Sequence[tuple[str, str, Any]] | Schema, into: str,
                timeout: float = 1.0) -> "QueryBuilder":
        """Add a PROCESS statement."""
        self._processes.append(ProcessStatement(
            chunks=chunks, executable=executable, max_rows=max_rows,
            schema=make_schema(schema), output=into, timeout=timeout))
        return self

    def select(self, aggregation: Aggregation, source: Relation, *,
               group_by: GroupSpec | None = None, epsilon: float | None = None,
               label: str = "") -> "QueryBuilder":
        """Add a fully-specified SELECT statement."""
        self._selects.append(SelectStatement(
            aggregation=aggregation, source=source, group_by=group_by,
            epsilon=epsilon, label=label))
        return self

    def select_count(self, *, table: str | None = None, source: Relation | None = None,
                     group_by_hour: bool = False, bucket_seconds: float | None = None,
                     group_by_column: str | None = None, keys: Sequence[Any] | None = None,
                     epsilon: float | None = None, label: str = "") -> "QueryBuilder":
        """Convenience: COUNT(*) over a table, optionally grouped by time or keys."""
        relation = source if source is not None else TableScan(self._require_table(table))
        group = self._build_group(group_by_hour=group_by_hour, bucket_seconds=bucket_seconds,
                                  group_by_column=group_by_column, keys=keys)
        return self.select(Aggregation(function="COUNT"), relation, group_by=group,
                           epsilon=epsilon, label=label)

    def select_average(self, column: str, low: float, high: float, *,
                       table: str | None = None, source: Relation | None = None,
                       group_by_hour: bool = False, bucket_seconds: float | None = None,
                       group_by_column: str | None = None, keys: Sequence[Any] | None = None,
                       epsilon: float | None = None, label: str = "") -> "QueryBuilder":
        """Convenience: AVG(range(column, low, high)) over a table.

        The range projection is inserted automatically so the sensitivity of
        the average is bounded.
        """
        base = source if source is not None else TableScan(self._require_table(table))
        from repro.relational.plan import Projection
        from repro.relational.table import CHUNK_COLUMN, REGION_COLUMN

        projected = Projection(base, outputs=(
            (column, RangeExpression(Column(column), low, high)),
            (CHUNK_COLUMN, Column(CHUNK_COLUMN)),
            (REGION_COLUMN, Column(REGION_COLUMN)),
        ))
        group = self._build_group(group_by_hour=group_by_hour, bucket_seconds=bucket_seconds,
                                  group_by_column=group_by_column, keys=keys)
        return self.select(Aggregation(function="AVG", column=column), projected,
                           group_by=group, epsilon=epsilon, label=label)

    def build(self) -> PrividQuery:
        """Finalize and return the query AST."""
        if not self._splits or not self._processes or not self._selects:
            raise QueryValidationError(
                "a Privid query needs at least one SPLIT, one PROCESS and one SELECT")
        return PrividQuery(name=self._name, splits=list(self._splits),
                           processes=list(self._processes), selects=list(self._selects))

    def _require_table(self, table: str | None) -> str:
        if table is not None:
            return table
        if len(self._processes) == 1:
            return self._processes[0].output
        raise QueryValidationError("specify table=... when the query defines several tables")

    @staticmethod
    def _build_group(*, group_by_hour: bool, bucket_seconds: float | None,
                     group_by_column: str | None, keys: Sequence[Any] | None) -> GroupSpec | None:
        if group_by_hour and bucket_seconds is not None:
            raise QueryValidationError("choose either group_by_hour or bucket_seconds, not both")
        if group_by_hour:
            bucket_seconds = SECONDS_PER_HOUR
        if bucket_seconds is not None:
            return GroupSpec(expressions=(("bucket", TimeBucket(Column("chunk"), bucket_seconds)),))
        if group_by_column is not None:
            if keys is None:
                raise QueryValidationError("grouping by an analyst column requires explicit keys")
            return GroupSpec(expressions=((group_by_column, Column(group_by_column)),),
                             expected_keys=tuple(keys))
        return None
