"""Query definitions for the paper's evaluation case studies (Table 3, Fig. 5).

Each factory returns a :class:`~repro.query.ast.PrividQuery` parameterised
the way the corresponding case study describes.  The camera names referenced
must already be registered with the :class:`~repro.core.executor.PrividSystem`
(see :mod:`repro.evaluation.runner` for helpers).
"""

from __future__ import annotations

from typing import Sequence

from repro.query.ast import PrividQuery
from repro.query.builder import QueryBuilder
from repro.relational.aggregates import Aggregation, GroupSpec
from repro.relational.expressions import BinaryOp, Column, Literal, RangeExpression, TimeBucket
from repro.relational.plan import GroupBy, Join, Projection, TableScan, Union
from repro.relational.table import CHUNK_COLUMN
from repro.utils.timebase import SECONDS_PER_DAY, SECONDS_PER_HOUR


def case1_counting_query(camera: str, *, category: str = "person",
                         window_seconds: float = 12 * SECONDS_PER_HOUR,
                         begin: float = 0.0, chunk_duration: float = 60.0,
                         max_rows: int = 10, mask: str | None = "owner",
                         bucket_seconds: float = SECONDS_PER_HOUR,
                         epsilon: float = 1.0,
                         sample_period: float | None = None,
                         region_scheme: str | None = None) -> PrividQuery:
    """Q1-Q3: count unique objects entering the scene per hour (Case 1).

    The PROCESS executable emits one row per object that *enters* during a
    chunk; the SELECT counts rows grouped by the hour of the chunk, so each
    hourly count is a separate data release drawing budget from its own hour
    of frames.
    """
    executable = "count_entering_people.py" if category == "person" else "count_entering_cars.py"
    builder = (QueryBuilder(f"case1-{camera}-{category}")
               .split(camera, begin=begin, end=begin + window_seconds,
                      chunk_duration=chunk_duration, mask=mask, into="chunks",
                      sample_period=sample_period, region_scheme=region_scheme)
               .process("chunks", executable=executable, max_rows=max_rows,
                        schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0),
                                ("dx", "NUMBER", 0.0)],
                        into="detections"))
    if bucket_seconds and bucket_seconds < window_seconds:
        builder.select_count(table="detections", bucket_seconds=bucket_seconds, epsilon=epsilon)
    else:
        builder.select_count(table="detections", epsilon=epsilon)
    return builder.build()


_PORTO_SCHEMA = [("plate", "STRING", ""), ("camera", "STRING", ""),
                 ("visible_seconds", "NUMBER", 0.0)]


def _porto_splits(builder: QueryBuilder, cameras: Sequence[str], *, window_seconds: float,
                  chunk_duration: float, max_rows: int) -> list[str]:
    """Add SPLIT/PROCESS pairs for each Porto camera; return the table names."""
    tables: list[str] = []
    for camera in cameras:
        chunk_set = f"chunks_{camera}"
        table = f"table_{camera}"
        builder.split(camera, begin=0.0, end=window_seconds, chunk_duration=chunk_duration,
                      into=chunk_set)
        builder.process(chunk_set, executable="taxi_sightings.py", max_rows=max_rows,
                        schema=_PORTO_SCHEMA, into=table)
        tables.append(table)
    return tables


def case2_porto_working_hours_query(cameras: Sequence[str], taxi_ids: Sequence[str], *,
                                    num_days: int, chunk_duration: float = 900.0,
                                    max_rows: int = 30, epsilon: float = 1.0) -> PrividQuery:
    """Q4: average taxi-driver working hours per day, union across two cameras.

    Sightings from both cameras are stacked, deduplicated by (plate, day)
    with the span of sighting times per group, and the spans (clamped to
    [0, 16] hours) are averaged.
    """
    builder = QueryBuilder("case2-q4-working-hours")
    tables = _porto_splits(builder, cameras, window_seconds=num_days * SECONDS_PER_DAY,
                           chunk_duration=chunk_duration, max_rows=max_rows)
    union = Union(children=tuple(TableScan(table) for table in tables))
    with_day = Projection(union, outputs=(
        ("plate", Column("plate")),
        ("day", TimeBucket(Column(CHUNK_COLUMN), SECONDS_PER_DAY)),
        (CHUNK_COLUMN, Column(CHUNK_COLUMN)),
    ))
    keys = tuple((plate, float(day) * SECONDS_PER_DAY)
                 for plate in taxi_ids for day in range(num_days))
    grouped = GroupBy(with_day, keys=("plate", "day"), explicit_keys=keys,
                      aggregations={"first_seen": (CHUNK_COLUMN, "min"),
                                    "last_seen": (CHUNK_COLUMN, "max")})
    hours_expression = RangeExpression(
        BinaryOp("/", BinaryOp("-", Column("last_seen"), Column("first_seen")),
                 Literal(SECONDS_PER_HOUR)), 0.0, 16.0)
    projected = Projection(grouped, outputs=(
        ("hours", hours_expression),
        (CHUNK_COLUMN, Column(CHUNK_COLUMN)),
    ))
    builder.select(Aggregation(function="AVG", column="hours"), projected, epsilon=epsilon,
                   label="avg-working-hours")
    return builder.build()


def case2_porto_intersection_query(camera_a: str, camera_b: str, taxi_ids: Sequence[str], *,
                                   num_days: int, chunk_duration: float = 900.0,
                                   max_rows: int = 30, epsilon: float = 1.0) -> PrividQuery:
    """Q5: number of (taxi, day) pairs seen by *both* cameras (intersection via JOIN).

    The paper reports the average per day; dividing the released count by the
    number of days is analyst-side post-processing and does not change the
    privacy analysis.
    """
    builder = QueryBuilder("case2-q5-intersection")
    tables = _porto_splits(builder, (camera_a, camera_b),
                           window_seconds=num_days * SECONDS_PER_DAY,
                           chunk_duration=chunk_duration, max_rows=max_rows)
    keys = tuple((plate, float(day) * SECONDS_PER_DAY)
                 for plate in taxi_ids for day in range(num_days))

    def deduplicated(table: str) -> GroupBy:
        with_day = Projection(TableScan(table), outputs=(
            ("plate", Column("plate")),
            ("day", TimeBucket(Column(CHUNK_COLUMN), SECONDS_PER_DAY)),
            (CHUNK_COLUMN, Column(CHUNK_COLUMN)),
        ))
        return GroupBy(with_day, keys=("plate", "day"), explicit_keys=keys)

    joined = Join(left=deduplicated(tables[0]), right=deduplicated(tables[1]),
                  on=("plate", "day"))
    builder.select(Aggregation(function="COUNT"), joined, epsilon=epsilon,
                   label="taxis-traversing-both")
    return builder.build()


def case2_porto_argmax_query(cameras: Sequence[str], *, num_days: int,
                             chunk_duration: float = 3600.0, max_rows: int = 30,
                             epsilon: float = 1.0) -> PrividQuery:
    """Q6: which camera records the most sightings over the whole period (ARGMAX)."""
    builder = QueryBuilder("case2-q6-busiest-camera")
    tables = _porto_splits(builder, cameras, window_seconds=num_days * SECONDS_PER_DAY,
                           chunk_duration=chunk_duration, max_rows=max_rows)
    union = Union(children=tuple(TableScan(table) for table in tables))
    group = GroupSpec(expressions=(("camera", Column("camera")),),
                      expected_keys=tuple(cameras))
    builder.select(Aggregation(function="ARGMAX"), union, group_by=group, epsilon=epsilon,
                   label="busiest-camera")
    return builder.build()


def case3_tree_query(camera: str, *, window_seconds: float = 12 * SECONDS_PER_HOUR,
                     frame_period: float = 0.5, max_rows: int = 20,
                     mask: str | None = "owner", epsilon: float = 1.0) -> PrividQuery:
    """Q7-Q9: fraction of trees with leaves, single-frame chunks over a long window.

    Non-private objects change on timescales of days, so the query uses
    minimal chunks (one frame) and a 12-hour window; the enormous number of
    chunks makes the average's sensitivity, and hence the added noise, tiny.
    """
    builder = (QueryBuilder(f"case3-{camera}-trees")
               .split(camera, begin=0.0, end=window_seconds, chunk_duration=frame_period,
                      mask=mask, into="chunks")
               .process("chunks", executable="tree_leaf_classifier.py", max_rows=max_rows,
                        schema=[("has_leaves", "NUMBER", 0.0)], into="trees")
               .select_average("has_leaves", 0.0, 100.0, table="trees", epsilon=epsilon))
    return builder.build()


def case4_red_light_query(camera: str, *, window_seconds: float = 12 * SECONDS_PER_HOUR,
                          chunk_duration: float = 600.0, max_rows: int = 10,
                          mask: str = "traffic-light-only", epsilon: float = 1.0) -> PrividQuery:
    """Q10-Q12: average duration of a red light, with everything else masked (rho = 0)."""
    builder = (QueryBuilder(f"case4-{camera}-red-light")
               .split(camera, begin=0.0, end=window_seconds, chunk_duration=chunk_duration,
                      mask=mask, into="chunks")
               .process("chunks", executable="red_light_observer.py", max_rows=max_rows,
                        schema=[("red_duration", "NUMBER", 0.0)], into="phases")
               .select_average("red_duration", 0.0, 300.0, table="phases", epsilon=epsilon))
    return builder.build()


def case5_directional_query(camera: str, *, window_seconds: float = 12 * SECONDS_PER_HOUR,
                            chunk_duration: float = 600.0, max_rows: int = 25,
                            mask: str | None = "owner", epsilon: float = 1.0,
                            sample_period: float | None = None) -> PrividQuery:
    """Q13: count people entering from the south and leaving to the north (stateful).

    The direction of travel can only be observed if (most of) the crossing
    fits inside a single chunk, hence the 10-minute chunks.
    """
    builder = (QueryBuilder(f"case5-{camera}-northbound")
               .split(camera, begin=0.0, end=window_seconds, chunk_duration=chunk_duration,
                      mask=mask, into="chunks", sample_period=sample_period)
               .process("chunks", executable="northbound_people.py", max_rows=max_rows,
                        schema=[("matched", "NUMBER", 0.0)], into="crossings")
               .select_count(table="crossings", epsilon=epsilon))
    return builder.build()
