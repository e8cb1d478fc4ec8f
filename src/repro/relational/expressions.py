"""Scalar expressions used inside SELECT statements.

Expressions are evaluated per row.  The query language supports column
references, literals, basic arithmetic, the ``range(col, low, high)``
truncation function (which both clamps values and *binds* the column's range
constraint for sensitivity purposes), and the chunk-timestamp helpers
``hour(chunk)``, ``day(chunk)`` and ``bin(chunk, width)`` (Appendix D).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import QueryValidationError
from repro.utils import checks


class Expression(ABC):
    """A scalar expression evaluated against a single row."""

    @abstractmethod
    def evaluate(self, row: Mapping[str, Any]) -> Any:
        """Value of the expression for ``row``."""

    @abstractmethod
    def referenced_columns(self) -> frozenset[str]:
        """Names of all columns the expression reads."""

    def is_column_passthrough(self) -> bool:
        """True if the expression is a bare column reference."""
        return False


@dataclass(frozen=True)
class Column(Expression):
    """A bare reference to a column."""

    name: str

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        return row.get(self.name)

    def referenced_columns(self) -> frozenset[str]:
        return frozenset({self.name})

    def is_column_passthrough(self) -> bool:
        return True


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        return self.value

    def referenced_columns(self) -> frozenset[str]:
        return frozenset()


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Arithmetic over two sub-expressions (`+`, `-`, `*`, `/`)."""

    operator: str
    left: Expression
    right: Expression

    _OPERATORS = ("+", "-", "*", "/")

    def __post_init__(self) -> None:
        if self.operator not in self._OPERATORS:
            raise QueryValidationError(f"unsupported arithmetic operator {self.operator!r}")

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        try:
            left = float(left)
            right = float(right)
        except (TypeError, ValueError):
            return None
        if self.operator == "+":
            return left + right
        if self.operator == "-":
            return left - right
        if self.operator == "*":
            return left * right
        if right == 0:
            return None
        return left / right

    def referenced_columns(self) -> frozenset[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()


@dataclass(frozen=True)
class RangeExpression(Expression):
    """``range(col, low, high)``: clamp values and bind the column's range.

    The clamping is what makes the declared range *true* regardless of what
    the untrusted executable wrote into the table, which is why declaring a
    range is sufficient for sensitivity (Section 6.2).
    """

    inner: Expression
    low: float
    high: float

    def __post_init__(self) -> None:
        checks.real("range() lower bound", self.low, QueryValidationError)
        checks.real("range() upper bound", self.high, QueryValidationError, at_least=self.low)

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        value = self.inner.evaluate(row)
        try:
            value = float(value)
        except (TypeError, ValueError):
            value = self.low
        if math.isnan(value):
            value = self.low
        return min(self.high, max(self.low, value))

    def referenced_columns(self) -> frozenset[str]:
        return self.inner.referenced_columns()


@dataclass(frozen=True)
class TimeBucket(Expression):
    """Bucket a timestamp column into fixed-width bins (seconds).

    ``hour(chunk)`` and ``day(chunk)`` are thin wrappers with widths of 3600
    and 86400 seconds; arbitrary widths implement ``bin(chunk, width)``.
    The result is the bucket's *start timestamp*, always a float (an
    integer width keys ``1800.0``, as a float width does), which keeps
    releases easy to align with the underlying video.
    """

    inner: Expression
    width: float

    def __post_init__(self) -> None:
        checks.real("bucket width", self.width, QueryValidationError, above=0)

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        value = self.inner.evaluate(row)
        try:
            value = float(value)
        except (TypeError, ValueError):
            return None
        return math.floor(value / self.width) * float(self.width)

    def referenced_columns(self) -> frozenset[str]:
        return self.inner.referenced_columns()
