"""Recursive-descent parser for the textual Privid query language.

The grammar follows Appendix D (Fig. 9) with two simplifications suited to
the synthetic substrate: timestamps in SPLIT statements are seconds relative
to the start of the camera's footage (optionally with a ``sec``/``min``/
``hr``/``day`` unit), and executables are referenced by their registered name.

Supported statements::

    SPLIT camA BEGIN 0 END 12hr BY TIME 60sec STRIDE 0sec
        [WITH MASK mask_name] [BY REGION scheme_name] INTO chunksA;

    PROCESS chunksA USING count_entering_people.py TIMEOUT 1sec
        PRODUCING 20 ROWS
        WITH SCHEMA (kind:STRING="", dy:NUMBER=0)
        INTO tableA;

    SELECT COUNT(*) FROM tableA GROUP BY hour(chunk) [CONSUMING 1.0];
    SELECT AVG(range(speed, 30, 60)) FROM tableA;
    SELECT color, COUNT(plate) FROM (SELECT plate, color FROM tableA GROUP BY plate
        WITH KEYS ["P1", "P2"]) GROUP BY color WITH KEYS ["RED", "WHITE"];
    SELECT COUNT(*) FROM tableA JOIN tableB ON plate;

The parser walks :func:`~repro.query.lexer.scan`'s flat columns with an
integer cursor: a keyword or symbol is one comparison of a token's key in
place, so a parse costs about the scan plus the AST it builds.  The AST's
``repr`` (what the WAL's query fingerprint hashes) and every error's
message, line and column are held equal to the token-object parser this
replaced (``tests/parse_oracle.py``).
"""

from __future__ import annotations

import math
from typing import Any

from repro.errors import QuerySyntaxError
from repro.query.ast import PrividQuery, ProcessStatement, SelectStatement, SplitStatement
from repro.query.lexer import END, IDENT, NUMBER, STRING, scan, syntax_error
from repro.relational.aggregates import SUPPORTED_AGGREGATES, Aggregation, GroupSpec
from repro.relational.expressions import Column, Expression, RangeExpression, TimeBucket
from repro.relational.plan import GroupBy, Join, Limit, Projection, Relation, TableScan
from repro.relational.table import ColumnSpec, DataType, Schema
from repro.utils.timebase import SECONDS_PER_DAY, SECONDS_PER_HOUR, SECONDS_PER_MINUTE

_UNIT_SECONDS = {
    "s": 1.0, "sec": 1.0, "secs": 1.0, "second": 1.0, "seconds": 1.0,
    "min": SECONDS_PER_MINUTE, "mins": SECONDS_PER_MINUTE, "minute": SECONDS_PER_MINUTE,
    "minutes": SECONDS_PER_MINUTE,
    "hr": SECONDS_PER_HOUR, "hrs": SECONDS_PER_HOUR, "hour": SECONDS_PER_HOUR,
    "hours": SECONDS_PER_HOUR,
    "day": SECONDS_PER_DAY, "days": SECONDS_PER_DAY,
}

_TIME_FUNCTIONS = {
    "hour": SECONDS_PER_HOUR,
    "day": SECONDS_PER_DAY,
}

#: ``DataType`` by value, without a call through the enum machinery (~1 µs).
_DATA_TYPES = {member.value: member for member in DataType}


class _Parser:
    """Recursive descent over :func:`~repro.query.lexer.scan`'s columns.

    Each rule takes the cursor ``i`` (an index into the columns) and returns
    what it parsed with the cursor past it.  A token is matched by comparing
    its key (keywords upper-case, symbols as written) or its kind in place,
    and the cursor only moves past a token that matched, so it never passes
    END and ``i + 1`` is always in range after a match at ``i``.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.kinds, self.values, self.keys = scan(text)

    def _error(self, i: int, message: str) -> QuerySyntaxError:
        return syntax_error(self.text, i, message)

    def _expected(self, i: int, expected: str) -> QuerySyntaxError:
        return self._error(i, f"expected {expected}, found {self.values[i]!r}")

    def _number(self, i: int) -> float:
        if self.kinds[i] is not NUMBER:
            raise self._expected(i, "a number")
        text = self.values[i]
        value = float(text)
        if not math.isfinite(value):
            raise self._error(i, f"number too large to represent ({len(text)} characters)")
        return value

    def _count(self, i: int) -> int:
        """A whole number: a fractional row bound is rejected, not truncated."""
        value = self._number(i)
        if not value.is_integer():
            raise self._expected(i, "a whole number")
        return int(value)

    def _duration(self, i: int) -> tuple[float, int]:
        """A number with an optional time unit, in seconds."""
        value = self._number(i)
        if self.kinds[i + 1] is IDENT:
            unit = self.values[i + 1].lower()
            if unit in _UNIT_SECONDS:
                return value * _UNIT_SECONDS[unit], i + 2
        return value, i + 1

    def _signed_number(self, i: int) -> tuple[float, int]:
        sign = 1.0
        if self.keys[i] == "-":
            sign, i = -1.0, i + 1
        return sign * self._number(i), i + 1

    def _names(self, i: int) -> tuple[tuple[str, ...], int]:
        """``name[, name...]``."""
        kinds, values, keys = self.kinds, self.values, self.keys
        names = []
        while True:
            if kinds[i] is not IDENT:
                raise self._expected(i, "an identifier")
            names.append(values[i])
            if keys[i + 1] != ",":
                return tuple(names), i + 1
            i += 2

    def _literal(self, i: int) -> Any:
        """A string, a number or an identifier (a default or a group key)."""
        kind = self.kinds[i]
        if kind is NUMBER:
            return self._number(i)
        if kind is not STRING and kind is not IDENT:
            raise self._expected(i, "an identifier")
        return self.values[i]

    # ---------------------------------------------------------- statements

    def parse(self, name: str) -> PrividQuery:
        query = PrividQuery(name=name)
        kinds, keys = self.kinds, self.keys
        i = 0
        while kinds[i] is not END:
            key = keys[i]
            if key == "SPLIT":
                split, i = self._split(i + 1)
                query.splits.append(split)
            elif key == "PROCESS":
                process, i = self._process(i + 1)
                query.processes.append(process)
            elif key == "SELECT":
                select, i = self._select(i + 1)
                query.selects.append(select)
            else:
                raise self._expected(i, "SPLIT, PROCESS or SELECT")
            if keys[i] == ";":
                i += 1
        return query

    def _split(self, i: int) -> tuple[SplitStatement, int]:
        kinds, values, keys = self.kinds, self.values, self.keys
        if kinds[i] is not IDENT:
            raise self._expected(i, "an identifier")
        camera = values[i]
        if keys[i + 1] != "BEGIN":
            raise self._expected(i + 1, "'BEGIN'")
        begin, i = self._duration(i + 2)
        if keys[i] != "END":
            raise self._expected(i, "'END'")
        end, i = self._duration(i + 1)
        if keys[i] != "BY":
            raise self._expected(i, "'BY'")
        if keys[i + 1] != "TIME":
            raise self._expected(i + 1, "'TIME'")
        chunk_duration, i = self._duration(i + 2)
        stride = 0.0
        if keys[i] == "STRIDE":
            stride, i = self._duration(i + 1)
        mask = None
        region_scheme = None
        while True:
            if keys[i] == "WITH":
                if keys[i + 1] != "MASK":
                    raise self._expected(i + 1, "'MASK'")
                if kinds[i + 2] is not IDENT:
                    raise self._expected(i + 2, "an identifier")
                mask = values[i + 2]
            elif keys[i] == "BY":
                if keys[i + 1] != "REGION":
                    raise self._expected(i + 1, "'REGION'")
                if kinds[i + 2] is not IDENT:
                    raise self._expected(i + 2, "an identifier")
                region_scheme = values[i + 2]
            else:
                break
            i += 3
        if keys[i] != "INTO":
            raise self._expected(i, "'INTO'")
        if kinds[i + 1] is not IDENT:
            raise self._expected(i + 1, "an identifier")
        return SplitStatement(camera=camera, begin=begin, end=end,
                              chunk_duration=chunk_duration, stride=stride, mask=mask,
                              region_scheme=region_scheme, output=values[i + 1]), i + 2

    def _schema(self, i: int) -> tuple[Schema, int]:
        kinds, values, keys = self.kinds, self.values, self.keys
        if keys[i] != "(":
            raise self._expected(i, "'('")
        columns: list[ColumnSpec] = []
        while True:
            if kinds[i + 1] is not IDENT:
                raise self._expected(i + 1, "an identifier")
            if keys[i + 2] != ":":
                raise self._expected(i + 2, "':'")
            if kinds[i + 3] is not IDENT:
                raise self._expected(i + 3, "an identifier")
            name, dtype_name = values[i + 1], keys[i + 3]
            i += 4
            dtype = _DATA_TYPES.get(dtype_name)
            if dtype is None:
                raise self._error(i, f"unknown data type {dtype_name!r}")
            default: Any = None
            if keys[i] == "=":
                default = self._literal(i + 1)
                i += 2
            columns.append(ColumnSpec(name=name, dtype=dtype, default=default))
            if keys[i] != ",":
                break
        if keys[i] != ")":
            raise self._expected(i, "')'")
        return Schema(columns=tuple(columns)), i + 1

    def _process(self, i: int) -> tuple[ProcessStatement, int]:
        kinds, values, keys = self.kinds, self.values, self.keys
        if kinds[i] is not IDENT:
            raise self._expected(i, "an identifier")
        if keys[i + 1] != "USING":
            raise self._expected(i + 1, "'USING'")
        if kinds[i + 2] is not IDENT:
            raise self._expected(i + 2, "an identifier")
        chunks, executable = values[i], values[i + 2]
        i += 3
        timeout = 1.0
        if keys[i] == "TIMEOUT":
            timeout, i = self._duration(i + 1)
        if keys[i] != "PRODUCING":
            raise self._expected(i, "'PRODUCING'")
        max_rows = self._count(i + 1)
        i += 2
        if keys[i] == "ROWS":
            i += 1
        if keys[i] != "WITH":
            raise self._expected(i, "'WITH'")
        if keys[i + 1] != "SCHEMA":
            raise self._expected(i + 1, "'SCHEMA'")
        schema, i = self._schema(i + 2)
        if keys[i] != "INTO":
            raise self._expected(i, "'INTO'")
        if kinds[i + 1] is not IDENT:
            raise self._expected(i + 1, "an identifier")
        return ProcessStatement(chunks=chunks, executable=executable, timeout=timeout,
                                max_rows=max_rows, schema=schema,
                                output=values[i + 1]), i + 2

    # -------------------------------------------------------------- SELECT

    def _key_list(self, i: int) -> tuple[tuple[Any, ...], int]:
        """``[key, ...]``: strings, numbers or identifiers."""
        keys = self.keys
        if keys[i] != "[":
            raise self._expected(i, "'['")
        entries = [self._literal(i + 1)]
        i += 2
        while keys[i] == ",":
            entries.append(self._literal(i + 1))
            i += 2
        if keys[i] != "]":
            raise self._expected(i, "']'")
        return tuple(entries), i + 1

    def _range_arguments(self, i: int) -> tuple[str, float, float, int]:
        """``(column, low, high)`` of a ``range``, bounds optionally negative."""
        keys = self.keys
        if keys[i] != "(":
            raise self._expected(i, "'('")
        if self.kinds[i + 1] is not IDENT:
            raise self._expected(i + 1, "an identifier")
        column = self.values[i + 1]
        if keys[i + 2] != ",":
            raise self._expected(i + 2, "','")
        low, i = self._signed_number(i + 3)
        if keys[i] != ",":
            raise self._expected(i, "','")
        high, i = self._signed_number(i + 1)
        if keys[i] != ")":
            raise self._expected(i, "')'")
        return column, low, high, i + 1

    def _expressions(self, i: int) -> tuple[list[tuple[str, Expression]], int]:
        """An expression list: ``(output name, expression)`` per entry."""
        kinds, values, keys = self.kinds, self.values, self.keys
        outputs: list[tuple[str, Expression]] = []
        while True:
            if kinds[i] is not IDENT:
                raise self._expected(i, "an expression")
            name = values[i]
            lowered = name.lower()
            i += 1
            expression: Expression
            if keys[i] == "(" and lowered == "range":
                column, low, high, i = self._range_arguments(i)
                expression, output = RangeExpression(Column(column), low, high), column
            elif keys[i] == "(" and (lowered == "bin" or lowered in _TIME_FUNCTIONS):
                if kinds[i + 1] is not IDENT:
                    raise self._expected(i + 1, "an identifier")
                column = values[i + 1]
                if lowered == "bin":
                    if keys[i + 2] != ",":
                        raise self._expected(i + 2, "','")
                    width, i = self._duration(i + 3)
                    output = f"bin_{column}"
                else:
                    width, i = _TIME_FUNCTIONS[lowered], i + 2
                    output = f"{lowered}_{column}"
                if keys[i] != ")":
                    raise self._expected(i, "')'")
                expression = TimeBucket(Column(column), width)
                i += 1
            else:
                expression, output = Column(name), name
            if keys[i] == "AS":
                if kinds[i + 1] is not IDENT:
                    raise self._expected(i + 1, "an identifier")
                output = values[i + 1]
                i += 2
            outputs.append((output, expression))
            if keys[i] != ",":
                return outputs, i
            i += 1

    def _group_by(self, relation: Relation, i: int) -> tuple[GroupBy, int]:
        """What follows ``GROUP BY`` in a FROM clause: ``col[, col...] [WITH KEYS [...]]``."""
        names, i = self._names(i)
        explicit_keys = None
        if self.keys[i] == "WITH":
            if self.keys[i + 1] != "KEYS":
                raise self._expected(i + 1, "'KEYS'")
            explicit_keys, i = self._key_list(i + 2)
        return GroupBy(relation, keys=names, explicit_keys=explicit_keys), i

    def _inner_relation(self, i: int, depth: int) -> tuple[Relation, int]:
        """FROM clause: a table name, a parenthesised sub-select, joins, group-bys.

        ``depth`` counts the parentheses around it: a ``GROUP BY`` at depth 0
        belongs to the outer SELECT.
        """
        keys = self.keys
        relation, i = self._relation_atom(i, depth)
        while True:
            if keys[i] == "JOIN":
                right, i = self._relation_atom(i + 1, depth)
                if keys[i] != "ON":
                    raise self._expected(i, "'ON'")
                names, i = self._names(i + 1)
                relation = Join(left=relation, right=right, on=names)
            elif depth and keys[i] == "GROUP" and keys[i + 1] == "BY":
                relation, i = self._group_by(relation, i + 2)
            else:
                return relation, i

    def _relation_atom(self, i: int, depth: int) -> tuple[Relation, int]:
        if self.keys[i] == "(":
            relation, i = self._nested_select(i + 1, depth + 1)
            if self.keys[i] != ")":
                raise self._expected(i, "')'")
            return relation, i + 1
        if self.kinds[i] is not IDENT:
            raise self._expected(i, "an identifier")
        return TableScan(self.values[i]), i + 1

    def _nested_select(self, i: int, depth: int) -> tuple[Relation, int]:
        """A parenthesised ``SELECT expr_list FROM inner [LIMIT n]`` followed
        by any number of ``GROUP BY col[, col...] [WITH KEYS (...)]``, or a
        parenthesised bare relation.  There is no ``WHERE``."""
        keys = self.keys
        if keys[i] != "SELECT":
            # A parenthesised bare relation, e.g. (tableA JOIN tableB ON plate).
            return self._inner_relation(i, depth)
        outputs, i = self._expressions(i + 1)
        if keys[i] != "FROM":
            raise self._expected(i, "'FROM'")
        relation, i = self._inner_relation(i + 1, depth)
        if keys[i] == "LIMIT":
            relation = Limit(relation, self._count(i + 1))
            i += 2
        projected: Relation = Projection(relation, outputs=tuple(outputs))
        while keys[i] == "GROUP":
            if keys[i + 1] != "BY":
                raise self._expected(i + 1, "'BY'")
            projected, i = self._group_by(projected, i + 2)
        return projected, i

    def _aggregation(self, i: int) -> tuple[Aggregation, list[str], tuple | None, int]:
        """The outer SELECT's aggregation, any leading bare group columns, and
        the ``(column, low, high)`` of a ``range`` inside the aggregate."""
        kinds, values, keys = self.kinds, self.values, self.keys
        group_columns: list[str] = []
        while not (keys[i] in SUPPORTED_AGGREGATES and keys[i + 1] == "("):
            if kinds[i] is not IDENT:
                raise self._expected(i, "an identifier")
            group_columns.append(values[i])
            if keys[i + 1] != ",":
                raise self._expected(i + 1, "','")
            i += 2
        function = keys[i]
        i += 2
        column: str | None = None
        inner_range = None
        if keys[i] == "*":
            i += 1
        elif values[i].lower() == "range":
            column, low, high, i = self._range_arguments(i + 1)
            inner_range = (column, low, high)
        elif kinds[i] is not IDENT:
            raise self._expected(i, "an identifier")
        else:
            column = values[i]
            i += 1
        if keys[i] != ")":
            raise self._expected(i, "')'")
        return Aggregation(function=function, column=column), group_columns, inner_range, i + 1

    def _select(self, i: int) -> tuple[SelectStatement, int]:
        keys = self.keys
        aggregation, group_columns, inner_range, i = self._aggregation(i)
        if keys[i] != "FROM":
            raise self._expected(i, "'FROM'")
        relation, i = self._inner_relation(i + 1, 0)
        group_spec: GroupSpec | None = None
        if keys[i] == "GROUP":
            if keys[i + 1] != "BY":
                raise self._expected(i + 1, "'BY'")
            expressions, i = self._expressions(i + 2)
            expected_keys = None
            if keys[i] == "WITH":
                if keys[i + 1] != "KEYS":
                    raise self._expected(i + 1, "'KEYS'")
                expected_keys, i = self._key_list(i + 2)
            group_spec = GroupSpec(expressions=tuple(expressions), expected_keys=expected_keys)
        elif group_columns:
            raise QuerySyntaxError(
                f"columns {group_columns} appear in the SELECT list but there is no GROUP BY")
        epsilon = None
        if keys[i] == "CONSUMING":
            epsilon = self._number(i + 1)
            i += 2
        if inner_range is not None:
            column, low, high = inner_range
            relation = Projection(relation, outputs=(
                (column, RangeExpression(Column(column), low, high)),
                ("chunk", Column("chunk")),
                ("region", Column("region")),
            ))
        return SelectStatement(aggregation=aggregation, source=relation,
                               group_by=group_spec, epsilon=epsilon), i


def parse_query(text: str, *, name: str = "query") -> PrividQuery:
    """Parse query text into a :class:`~repro.query.ast.PrividQuery`."""
    return _Parser(text).parse(name)
