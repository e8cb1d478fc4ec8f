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

import math
from dataclasses import dataclass, field
from typing import Any

from repro.errors import QueryValidationError
from repro.relational.aggregates import Aggregation, GroupSpec
from repro.relational.plan import (
    GroupBy,
    Join,
    Relation,
    Selection,
    TableScan,
    Union,
    Limit,
    Projection,
)
from repro.relational.table import Schema
from repro.utils.timebase import TimeInterval


def _require_finite(clause: str, **values: float) -> None:
    """Reject NaN and infinities, which slip past every ``<= 0`` check."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise QueryValidationError(f"{clause} {name} must be finite, got {value!r}")


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
        _require_finite("SPLIT", BEGIN=self.begin, END=self.end,
                        chunk_duration=self.chunk_duration, STRIDE=self.stride)
        if self.end <= self.begin:
            raise QueryValidationError("SPLIT END must be after BEGIN")
        if self.chunk_duration <= 0:
            raise QueryValidationError("chunk duration must be positive")
        if self.chunk_duration + self.stride <= 0:
            raise QueryValidationError("chunk duration plus stride must be positive")
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
        if self.max_rows <= 0:
            raise QueryValidationError("PRODUCING must declare a positive row cap")
        _require_finite("PROCESS", TIMEOUT=self.timeout)
        if self.timeout <= 0:
            raise QueryValidationError("TIMEOUT must be positive")
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
            _require_finite("SELECT", CONSUMING=self.epsilon)
            if self.epsilon <= 0:
                raise QueryValidationError("CONSUMING must request a positive epsilon")
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

    def split_by_output(self, name: str) -> SplitStatement:
        """Find the SPLIT statement producing the named chunk set."""
        for split in self.splits:
            if split.output == name:
                return split
        raise QueryValidationError(f"no SPLIT produces chunk set {name!r}")

    def process_by_output(self, name: str) -> ProcessStatement:
        """Find the PROCESS statement producing the named table."""
        for process in self.processes:
            if process.output == name:
                return process
        raise QueryValidationError(f"no PROCESS produces table {name!r}")

    def table_names(self) -> list[str]:
        """Names of all intermediate tables the query produces."""
        return [process.output for process in self.processes]


def collect_table_names(relation: Relation) -> set[str]:
    """All intermediate-table names referenced by a relational plan."""
    names: set[str] = set()

    def walk(node: Relation) -> None:
        if isinstance(node, TableScan):
            names.add(node.table_name)
        elif isinstance(node, (Selection, Limit, GroupBy, Projection)):
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
