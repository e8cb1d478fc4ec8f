"""Tests for tables, expressions, relational operators and Fig. 10 sensitivity rules."""

from dataclasses import replace

import pytest

from repro.errors import QueryValidationError, SchemaError, UnboundSensitivityError
from repro.query.builder import QueryBuilder
from repro.query.validator import validate_query
from repro.relational.aggregates import (
    Aggregation,
    GroupSpec,
    ReleaseKind,
    compute_releases,
    planned_releases,
)
from repro.relational.expressions import (
    BinaryOp,
    Column,
    Literal,
    RangeExpression,
    TimeBucket,
)
from repro.relational.plan import (
    GroupBy,
    Join,
    JoinKind,
    Limit,
    PlanContext,
    Projection,
    TableScan,
    Union,
)
from repro.relational.sensitivity import SensitivityInfo, TableProperties
from repro.relational.table import CHUNK_COLUMN, ColumnSpec, DataType, Schema, Table


@pytest.fixture()
def car_schema() -> Schema:
    return Schema(columns=(
        ColumnSpec("plate", DataType.STRING, ""),
        ColumnSpec("color", DataType.STRING, ""),
        ColumnSpec("speed", DataType.NUMBER, 0.0),
    ))


@pytest.fixture()
def car_context(car_schema) -> PlanContext:
    """A small intermediate table of cars: 2 chunks, max_rows 10, rho 30, K 2."""
    table = Table.from_schema(car_schema, name="cars")
    rows = [
        {"plate": "A", "color": "RED", "speed": 50.0, "chunk": 0.0, "region": ""},
        {"plate": "A", "color": "RED", "speed": 55.0, "chunk": 5.0, "region": ""},
        {"plate": "B", "color": "WHITE", "speed": 70.0, "chunk": 0.0, "region": ""},
        {"plate": "C", "color": "RED", "speed": 40.0, "chunk": 5.0, "region": ""},
    ]
    table.extend(rows)
    properties = TableProperties(name="cars", max_rows=10, chunk_duration=5.0, num_chunks=2,
                                 rho=30.0, k_segments=2)
    return PlanContext(tables={"cars": table}, properties={"cars": properties})


class TestSchemaAndTable:
    def test_reserved_column_names_rejected(self):
        with pytest.raises(SchemaError):
            ColumnSpec("chunk", DataType.NUMBER)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Schema(columns=(ColumnSpec("a"), ColumnSpec("a")))

    def test_coerce_row_fills_defaults_and_drops_extras(self, car_schema):
        row = car_schema.coerce_row({"plate": "X", "speed": "88", "malicious": "extra"})
        assert row == {"plate": "X", "color": "", "speed": 88.0}

    def test_coerce_non_dict_gives_defaults(self, car_schema):
        assert car_schema.coerce_row("garbage") == car_schema.default_row()

    def test_number_coercion_failure_uses_default(self, car_schema):
        row = car_schema.coerce_row({"speed": "not-a-number"})
        assert row["speed"] == 0.0

    def test_table_column_values(self, car_context):
        table = car_context.table("cars")
        assert table.column_values("plate") == ["A", "A", "B", "C"]
        with pytest.raises(SchemaError):
            table.column_values("missing")


class TestExpressions:
    def test_column_and_literal(self):
        row = {"a": 5}
        assert Column("a").evaluate(row) == 5
        assert Literal(3).evaluate(row) == 3

    def test_binary_ops(self):
        row = {"a": 10.0, "b": 4.0}
        assert BinaryOp("+", Column("a"), Column("b")).evaluate(row) == 14
        assert BinaryOp("-", Column("a"), Column("b")).evaluate(row) == 6
        assert BinaryOp("*", Column("a"), Literal(2)).evaluate(row) == 20
        assert BinaryOp("/", Column("a"), Column("b")).evaluate(row) == 2.5

    def test_division_by_zero_is_none(self):
        assert BinaryOp("/", Literal(1), Literal(0)).evaluate({}) is None

    def test_invalid_operator_rejected(self):
        with pytest.raises(QueryValidationError):
            BinaryOp("%", Column("a"), Column("b"))

    def test_range_expression_clamps(self):
        expr = RangeExpression(Column("speed"), 30.0, 60.0)
        assert expr.evaluate({"speed": 100.0}) == 60.0
        assert expr.evaluate({"speed": 10.0}) == 30.0
        assert expr.evaluate({"speed": "junk"}) == 30.0

    def test_time_bucket(self):
        bucket = TimeBucket(Column("chunk"), 3600.0)
        assert bucket.evaluate({"chunk": 3700.0}) == 3600.0
        assert bucket.evaluate({"chunk": 100.0}) == 0.0


class TestOperators:
    def test_limit_binds_size(self, car_context):
        plan = Limit(TableScan("cars"), 2)
        assert len(plan.evaluate(car_context)) == 2
        assert plan.sensitivity(car_context).size == 2.0

    def test_projection_range_binding(self, car_context):
        plan = Projection(TableScan("cars"), outputs=(
            ("speed", RangeExpression(Column("speed"), 30.0, 60.0)),
            (CHUNK_COLUMN, Column(CHUNK_COLUMN)),
        ))
        info = plan.sensitivity(car_context)
        assert info.range_of("speed") == (30.0, 60.0)
        rows = plan.evaluate(car_context).rows
        assert max(row["speed"] for row in rows) <= 60.0

    def test_projection_transformed_column_loses_range(self, car_context):
        ranged = Projection(TableScan("cars"), outputs=(
            ("speed", RangeExpression(Column("speed"), 30.0, 60.0)),
        ))
        doubled = Projection(ranged, outputs=(
            ("speed", BinaryOp("*", Column("speed"), Literal(2))),
        ))
        assert doubled.sensitivity(car_context).range_of("speed") is None

    def test_projection_trust_propagation(self, car_context):
        plan = Projection(TableScan("cars"), outputs=(
            ("hour", TimeBucket(Column(CHUNK_COLUMN), 3600.0)),
            ("plate", Column("plate")),
        ))
        info = plan.sensitivity(car_context)
        assert "hour" in info.trusted_columns
        assert "plate" not in info.trusted_columns

    def test_group_by_dedup(self, car_context):
        plan = GroupBy(TableScan("cars"), keys=("plate",), explicit_keys=("A", "B", "C", "D"))
        table = plan.evaluate(car_context)
        assert len(table) == 3
        assert plan.sensitivity(car_context).size == 4.0

    def test_group_by_drops_unknown_keys(self, car_context):
        plan = GroupBy(TableScan("cars"), keys=("plate",), explicit_keys=("A",))
        assert len(plan.evaluate(car_context)) == 1

    def test_group_by_untrusted_without_keys_rejected(self, car_context):
        plan = GroupBy(TableScan("cars"), keys=("plate",))
        with pytest.raises(QueryValidationError):
            plan.sensitivity(car_context)

    def test_group_by_trusted_chunk_without_keys_ok(self, car_context):
        plan = GroupBy(TableScan("cars"), keys=(CHUNK_COLUMN,))
        info = plan.sensitivity(car_context)
        assert info.delta == 140.0

    def test_group_by_aggregations(self, car_context):
        plan = GroupBy(TableScan("cars"), keys=("plate",), explicit_keys=("A", "B", "C"),
                       aggregations={"first_seen": (CHUNK_COLUMN, "min"),
                                     "last_seen": (CHUNK_COLUMN, "max"),
                                     "sightings": ("plate", "count")})
        rows = {row["plate"]: row for row in plan.evaluate(car_context).rows}
        assert rows["A"]["first_seen"] == 0.0
        assert rows["A"]["last_seen"] == 5.0
        assert rows["A"]["sightings"] == 2.0

    def test_group_by_invalid_aggregator(self, car_context):
        with pytest.raises(QueryValidationError):
            GroupBy(TableScan("cars"), keys=("plate",), aggregations={"x": ("speed", "median")})

    def test_union_concatenates_and_adds_deltas(self, car_context):
        plan = Union(children=(TableScan("cars"), TableScan("cars")))
        assert len(plan.evaluate(car_context)) == 8
        info = plan.sensitivity(car_context)
        assert info.delta == 280.0
        assert info.size == 40.0

    def test_join_sensitivity_is_sum_not_min(self, car_context):
        # Section 6.3: an analyst can "prime" either table, so the join's
        # delta must be the sum of the inputs' deltas.
        left = GroupBy(TableScan("cars"), keys=("plate",), explicit_keys=("A", "B", "C"))
        right = GroupBy(TableScan("cars"), keys=("plate",), explicit_keys=("A", "B", "C"))
        plan = Join(left=left, right=right, on=("plate",))
        info = plan.sensitivity(car_context)
        assert info.delta == 280.0
        assert info.size == 3.0

    def test_inner_join_matches_keys(self, car_context):
        left = GroupBy(TableScan("cars"), keys=("plate",), explicit_keys=("A", "B"))
        right = GroupBy(TableScan("cars"), keys=("plate",), explicit_keys=("B", "C"))
        plan = Join(left=left, right=right, on=("plate",))
        plates = {row["plate"] for row in plan.evaluate(car_context).rows}
        assert plates == {"B"}

    def test_outer_join_unions_keys(self, car_context):
        left = GroupBy(TableScan("cars"), keys=("plate",), explicit_keys=("A",))
        right = GroupBy(TableScan("cars"), keys=("plate",), explicit_keys=("C",))
        plan = Join(left=left, right=right, on=("plate",), kind=JoinKind.OUTER)
        plates = {row["plate"] for row in plan.evaluate(car_context).rows}
        assert plates == {"A", "C"}

    def test_unknown_table_rejected(self, car_context):
        with pytest.raises(QueryValidationError):
            TableScan("missing").evaluate(car_context)


class TestSensitivityBasics:
    def test_table_delta_equation_6_2(self):
        properties = TableProperties(name="t", max_rows=10, chunk_duration=5.0, num_chunks=100,
                                     rho=30.0, k_segments=2)
        # max_chunks = 1 + ceil(30/5) = 7; delta = 10 * 2 * 7 = 140.
        assert properties.max_chunks_per_segment == 7
        assert properties.table_delta == 140.0
        assert properties.size_bound == 1000.0

    def test_rho_zero_gives_zero_delta(self):
        properties = TableProperties(name="t", max_rows=10, chunk_duration=5.0, num_chunks=10,
                                     rho=0.0, k_segments=2)
        assert properties.table_delta == 0.0

    def test_sensitivity_info_helpers(self):
        info = SensitivityInfo(delta=5.0)
        assert info.range_of("speed") is None
        bound = SensitivityInfo(delta=5.0, ranges={"speed": (0.0, 100.0)}).with_size(10.0)
        assert bound.range_of("speed") == (0.0, 100.0)
        assert bound.size == 10.0


def _releases(table, info, aggregation, group=None):
    """A SELECT's planned releases, filled in over ``table``."""
    return compute_releases(table, aggregation, planned_releases(aggregation, info, group), group)


class TestAggregations:
    def test_count_release(self, car_context):
        info = TableScan("cars").sensitivity(car_context)
        table = TableScan("cars").evaluate(car_context)
        releases = _releases(table, info, Aggregation(function="COUNT"))
        assert len(releases) == 1
        assert releases[0].raw_value == 4.0
        assert releases[0].sensitivity == 140.0

    def test_sum_requires_range(self, car_context):
        info = TableScan("cars").sensitivity(car_context)
        table = TableScan("cars").evaluate(car_context)
        with pytest.raises(UnboundSensitivityError):
            _releases(table, info, Aggregation(function="SUM", column="speed"))

    # A row counts from 0, not from the range's low end: a chunk can add or
    # drop whole rows, so [5, 5] moves the sum by 5 per row, as [0, 5] does.
    @pytest.mark.parametrize("low, high, per_row", [(0.0, 60.0, 60.0), (5.0, 5.0, 5.0),
                                                    (4.0, 5.0, 5.0), (0.0, 5.0, 5.0)])
    def test_sum_with_range(self, car_context, low, high, per_row):
        plan = Projection(TableScan("cars"), outputs=(
            ("speed", RangeExpression(Column("speed"), low, high)),
            (CHUNK_COLUMN, Column(CHUNK_COLUMN)),
        ))
        releases = _releases(plan.evaluate(car_context), plan.sensitivity(car_context),
                             Aggregation(function="SUM", column="speed"))
        assert releases[0].raw_value == pytest.approx(
            sum(min(high, max(low, speed)) for speed in (50, 55, 60, 40)))
        assert releases[0].sensitivity == pytest.approx(140.0 * per_row)

    def test_avg_requires_size(self, car_context):
        plan = Projection(TableScan("cars"), outputs=(
            ("speed", RangeExpression(Column("speed"), 0.0, 60.0)),
        ))
        info = plan.sensitivity(car_context).with_size(None)
        with pytest.raises(UnboundSensitivityError):
            _releases(plan.evaluate(car_context), info,
                             Aggregation(function="AVG", column="speed"))

    def test_avg_sensitivity_divides_by_size(self, car_context):
        plan = Projection(TableScan("cars"), outputs=(
            ("speed", RangeExpression(Column("speed"), 0.0, 60.0)),
        ))
        info = plan.sensitivity(car_context)
        releases = _releases(plan.evaluate(car_context), info,
                             Aggregation(function="AVG", column="speed"))
        assert releases[0].sensitivity == pytest.approx(140.0 * 60.0 / 20.0)

    def test_group_by_keys_one_release_per_key(self, car_context):
        info = TableScan("cars").sensitivity(car_context)
        table = TableScan("cars").evaluate(car_context)
        group = GroupSpec(expressions=(("color", Column("color")),),
                          expected_keys=("RED", "WHITE", "SILVER"))
        releases = _releases(table, info, Aggregation(function="COUNT"), group)
        values = {release.group_key: release.raw_value for release in releases}
        assert values == {"RED": 3.0, "WHITE": 1.0, "SILVER": 0.0}

    def test_group_by_untrusted_without_keys_rejected(self, car_context):
        info = TableScan("cars").sensitivity(car_context)
        table = TableScan("cars").evaluate(car_context)
        group = GroupSpec(expressions=(("color", Column("color")),))
        with pytest.raises(QueryValidationError):
            _releases(table, info, Aggregation(function="COUNT"), group)

    def test_group_by_trusted_chunk_without_keys(self, car_context):
        info = TableScan("cars").sensitivity(car_context)
        table = TableScan("cars").evaluate(car_context)
        # Even trusted keys are never read off the rows: the executor's plan
        # enumerates the bins, and every listed bin is released, empty or not.
        group = GroupSpec(expressions=(("bucket", TimeBucket(Column(CHUNK_COLUMN), 5.0)),))
        with pytest.raises(QueryValidationError, match="keys"):
            _releases(table, info, Aggregation(function="COUNT"), group)
        releases = _releases(table, info, Aggregation(function="COUNT"),
                             replace(group, expected_keys=(0.0, 5.0, 10.0)))
        assert [release.group_key for release in releases] == [0.0, 5.0, 10.0]
        assert releases[2].raw_value == 0.0

    def test_argmax_release(self, car_context):
        info = TableScan("cars").sensitivity(car_context)
        table = TableScan("cars").evaluate(car_context)
        group = GroupSpec(expressions=(("color", Column("color")),),
                          expected_keys=("RED", "WHITE"))
        releases = _releases(table, info, Aggregation(function="ARGMAX"), group)
        assert len(releases) == 1
        assert releases[0].kind is ReleaseKind.ARGMAX
        assert releases[0].candidates == {"RED": 3.0, "WHITE": 1.0}

    def test_argmax_without_group_rejected(self):
        query = (QueryBuilder("argmax")
                 .split("cam", begin=0.0, end=60.0, chunk_duration=10.0, into="chunks")
                 .process("chunks", executable="cars.py", max_rows=2,
                          schema=[("color", "STRING", "")], into="cars")
                 .select(Aggregation(function="ARGMAX"), TableScan("cars"))
                 .build())
        with pytest.raises(QueryValidationError,
                           match="^SELECT #0: ARGMAX requires a GROUP BY$"):
            validate_query(query)

    def test_var_sensitivity(self, car_context):
        plan = Projection(TableScan("cars"), outputs=(
            ("speed", RangeExpression(Column("speed"), 0.0, 60.0)),
        ))
        info = plan.sensitivity(car_context)
        releases = _releases(plan.evaluate(car_context), info,
                             Aggregation(function="VAR", column="speed"))
        assert releases[0].sensitivity == pytest.approx((140.0 * 60.0) ** 2 / 20.0)

    def test_unsupported_aggregation_rejected(self):
        with pytest.raises(QueryValidationError):
            Aggregation(function="MEDIAN", column="speed")
