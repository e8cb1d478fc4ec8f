"""Abstract syntax of Privid queries (Appendix D).

A query is a sequence of SPLIT, PROCESS and SELECT statements:

* SPLIT selects a camera and time window and divides it into chunks,
  optionally applying an owner-provided mask and/or spatial-region scheme;
* PROCESS runs an analyst executable over each chunk, producing an
  intermediate table with a declared schema and per-chunk row cap;
* SELECT aggregates one or more intermediate tables into data releases.

The same AST is produced whether the query was written in the textual
language (``repro.query.parser``) or built programmatically
(``repro.query.builder``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import QueryValidationError
from repro.relational.aggregates import Aggregation, GroupSpec
from repro.relational.plan import (
    GroupBy,
    Join,
    Relation,
    TableScan,
    Union,
    Limit,
    Projection,
)
from repro.relational.table import Schema
from repro.utils import checks
from repro.utils.timebase import TimeInterval


@dataclass
class SplitStatement:
    """``SPLIT camera BEGIN a END b BY TIME c STRIDE s [WITH MASK m] [BY REGION r] INTO chunks``."""

    camera: str
    begin: float
    end: float
    chunk_duration: float
    output: str
    stride: float = 0.0
    mask: str | None = None
    region_scheme: str | None = None
    sample_period: float | None = None

    def __post_init__(self) -> None:
        checks.real("SPLIT BEGIN", self.begin, QueryValidationError)
        checks.real("SPLIT END", self.end, QueryValidationError, above=self.begin)
        checks.real("SPLIT chunk duration", self.chunk_duration, QueryValidationError, above=0)
        checks.real("SPLIT STRIDE", self.stride, QueryValidationError, at_least=0)
        if self.sample_period is not None:
            checks.real("SPLIT sample period", self.sample_period, QueryValidationError,
                        above=0)
        if not self.output:
            raise QueryValidationError("SPLIT must name its output chunk set (INTO ...)")

    @property
    def window(self) -> TimeInterval:
        """The selected time window."""
        return TimeInterval(self.begin, self.end)


@dataclass
class ProcessStatement:
    """``PROCESS chunks USING exe TIMEOUT t PRODUCING n ROWS WITH SCHEMA (...) INTO table``."""

    chunks: str
    executable: str
    max_rows: int
    schema: Schema
    output: str
    timeout: float = 1.0

    def __post_init__(self) -> None:
        checks.count("PRODUCING row cap", self.max_rows, QueryValidationError, 1)
        checks.real("PROCESS TIMEOUT", self.timeout, QueryValidationError, above=0)
        if not self.output:
            raise QueryValidationError("PROCESS must name its output table (INTO ...)")
        if not self.chunks:
            raise QueryValidationError("PROCESS must name its input chunk set")


@dataclass
class SelectStatement:
    """The outer aggregation of a SELECT plus its source relation and grouping."""

    aggregation: Aggregation
    source: Relation
    group_by: GroupSpec | None = None
    epsilon: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.epsilon is not None:
            checks.real("SELECT CONSUMING", self.epsilon, QueryValidationError, above=0)
        if not self.label:
            self.label = self.aggregation.output_name


@dataclass
class PrividQuery:
    """A complete analyst query."""

    name: str
    splits: list[SplitStatement] = field(default_factory=list)
    processes: list[ProcessStatement] = field(default_factory=list)
    selects: list[SelectStatement] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)


def collect_table_names(relation: Relation) -> set[str]:
    """All intermediate-table names referenced by a relational plan."""
    names: set[str] = set()

    def walk(node: Relation) -> None:
        if isinstance(node, TableScan):
            names.add(node.table_name)
        elif isinstance(node, (Limit, GroupBy, Projection)):
            walk(node.child)
        elif isinstance(node, Join):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Union):
            for child in node.children:
                walk(child)
        else:  # pragma: no cover - defensive; new operators must be added here
            raise QueryValidationError(f"unknown relation type {type(node).__name__}")

    walk(relation)
    return names
