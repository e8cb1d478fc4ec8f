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
"""

from __future__ import annotations

from typing import Any

from repro.errors import QuerySyntaxError
from repro.query.ast import PrividQuery, ProcessStatement, SelectStatement, SplitStatement
from repro.query.lexer import Token, TokenType, tokenize
from repro.relational.aggregates import SUPPORTED_AGGREGATES, Aggregation, GroupSpec
from repro.relational.expressions import Column, Expression, RangeExpression, TimeBucket
from repro.relational.plan import GroupBy, Join, JoinKind, Limit, Projection, Relation, TableScan
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


class _Parser:
    """Token-stream cursor with the usual expect/accept helpers."""

    def __init__(self, text: str) -> None:
        self.tokens = tokenize(text)
        self.position = 0

    # ------------------------------------------------------------- cursor ops

    def peek(self, offset: int = 0) -> Token:
        # In range: the cursor stops at END, and a lookahead follows a non-END peek.
        return self.tokens[self.position + offset]

    def advance(self) -> Token:
        token = self.peek()
        if token.type is not TokenType.END:
            self.position += 1
        return token

    def accept_keyword(self, keyword: str) -> Token | None:
        """Consume ``keyword`` (an upper-case literal) if it is next, in any case."""
        token = self.peek()
        if token.type is TokenType.IDENT and token.value.upper() == keyword:
            return self.advance()
        return None

    def expect_keyword(self, keyword: str) -> Token:
        token = self.accept_keyword(keyword)
        if token is None:
            actual = self.peek()
            raise QuerySyntaxError(f"expected {keyword!r}, found {actual.value!r}",
                                   line=actual.line, column=actual.column)
        return token

    def accept_symbol(self, symbol: str) -> Token | None:
        token = self.peek()
        if token.type is TokenType.SYMBOL and token.value == symbol:
            return self.advance()
        return None

    def expect_symbol(self, symbol: str) -> Token:
        token = self.accept_symbol(symbol)
        if token is None:
            actual = self.peek()
            raise QuerySyntaxError(f"expected {symbol!r}, found {actual.value!r}",
                                   line=actual.line, column=actual.column)
        return token

    def expect_ident(self) -> str:
        token = self.peek()
        if token.type is not TokenType.IDENT:
            raise QuerySyntaxError(f"expected an identifier, found {token.value!r}",
                                   line=token.line, column=token.column)
        return self.advance().value

    def expect_number(self) -> float:
        token = self.peek()
        if token.type is not TokenType.NUMBER:
            raise QuerySyntaxError(f"expected a number, found {token.value!r}",
                                   line=token.line, column=token.column)
        self.advance()
        return float(token.value)

    def expect_count(self) -> int:
        """A whole number: a fractional row bound is rejected, not truncated."""
        token = self.peek()
        value = self.expect_number()
        if not value.is_integer():
            raise QuerySyntaxError(f"expected a whole number, found {token.value!r}",
                                   line=token.line, column=token.column)
        return int(value)

    def parse_duration(self) -> float:
        """A number with an optional time unit, returned in seconds."""
        value = self.expect_number()
        token = self.peek()
        if token.type is TokenType.IDENT and token.value.lower() in _UNIT_SECONDS:
            self.advance()
            return value * _UNIT_SECONDS[token.value.lower()]
        return value

    # ---------------------------------------------------------- statements

    def parse(self, name: str) -> PrividQuery:
        query = PrividQuery(name=name)
        while not self.peek().matches(TokenType.END):
            if self.accept_keyword("SPLIT"):
                query.splits.append(self._parse_split())
            elif self.accept_keyword("PROCESS"):
                query.processes.append(self._parse_process())
            elif self.accept_keyword("SELECT"):
                query.selects.append(self._parse_select())
            else:
                token = self.peek()
                raise QuerySyntaxError(
                    f"expected SPLIT, PROCESS or SELECT, found {token.value!r}",
                    line=token.line, column=token.column)
            self.accept_symbol(";")
        return query

    def _parse_split(self) -> SplitStatement:
        camera = self.expect_ident()
        self.expect_keyword("BEGIN")
        begin = self.parse_duration()
        self.expect_keyword("END")
        end = self.parse_duration()
        self.expect_keyword("BY")
        self.expect_keyword("TIME")
        chunk_duration = self.parse_duration()
        stride = 0.0
        if self.accept_keyword("STRIDE"):
            stride = self.parse_duration()
        mask = None
        region_scheme = None
        while True:
            if self.accept_keyword("WITH"):
                self.expect_keyword("MASK")
                mask = self.expect_ident()
            elif self.accept_keyword("BY"):
                self.expect_keyword("REGION")
                region_scheme = self.expect_ident()
            else:
                break
        self.expect_keyword("INTO")
        output = self.expect_ident()
        return SplitStatement(camera=camera, begin=begin, end=end,
                              chunk_duration=chunk_duration, stride=stride,
                              mask=mask, region_scheme=region_scheme, output=output)

    def _parse_schema(self) -> Schema:
        self.expect_symbol("(")
        columns: list[ColumnSpec] = []
        while True:
            name = self.expect_ident()
            self.expect_symbol(":")
            dtype_name = self.expect_ident().upper()
            try:
                dtype = DataType(dtype_name)
            except ValueError as error:
                token = self.peek()
                raise QuerySyntaxError(f"unknown data type {dtype_name!r}",
                                       line=token.line, column=token.column) from error
            default: Any = None
            if self.accept_symbol("="):
                token = self.peek()
                if token.type is TokenType.STRING:
                    default = self.advance().value
                elif token.type is TokenType.NUMBER:
                    default = self.expect_number()
                else:
                    default = self.expect_ident()
            columns.append(ColumnSpec(name=name, dtype=dtype, default=default))
            if not self.accept_symbol(","):
                break
        self.expect_symbol(")")
        return Schema(columns=tuple(columns))

    def _parse_process(self) -> ProcessStatement:
        chunks = self.expect_ident()
        self.expect_keyword("USING")
        executable = self.expect_ident()
        timeout = 1.0
        if self.accept_keyword("TIMEOUT"):
            timeout = self.parse_duration()
        self.expect_keyword("PRODUCING")
        max_rows = self.expect_count()
        self.accept_keyword("ROWS")
        self.expect_keyword("WITH")
        self.expect_keyword("SCHEMA")
        schema = self._parse_schema()
        self.expect_keyword("INTO")
        output = self.expect_ident()
        return ProcessStatement(chunks=chunks, executable=executable, timeout=timeout,
                                max_rows=max_rows, schema=schema, output=output)

    # -------------------------------------------------------------- SELECT

    def _parse_key_list(self) -> tuple[Any, ...]:
        self.expect_symbol("[")
        keys: list[Any] = []
        while True:
            token = self.peek()
            if token.type is TokenType.STRING:
                keys.append(self.advance().value)
            elif token.type is TokenType.NUMBER:
                keys.append(self.expect_number())
            else:
                keys.append(self.expect_ident())
            if not self.accept_symbol(","):
                break
        self.expect_symbol("]")
        return tuple(keys)

    def _parse_scalar_expression(self) -> tuple[str, Expression]:
        """One entry of an expression list; returns (output name, expression)."""
        token = self.peek()
        if token.type is not TokenType.IDENT:
            raise QuerySyntaxError(f"expected an expression, found {token.value!r}",
                                   line=token.line, column=token.column)
        name = self.advance().value
        lowered = name.lower()
        if lowered == "range" and self.peek().matches(TokenType.SYMBOL, "("):
            self.expect_symbol("(")
            column = self.expect_ident()
            self.expect_symbol(",")
            low = self._parse_signed_number()
            self.expect_symbol(",")
            high = self._parse_signed_number()
            self.expect_symbol(")")
            expression: Expression = RangeExpression(Column(column), low, high)
            output = column
        elif lowered in _TIME_FUNCTIONS and self.peek().matches(TokenType.SYMBOL, "("):
            self.expect_symbol("(")
            column = self.expect_ident()
            self.expect_symbol(")")
            expression = TimeBucket(Column(column), _TIME_FUNCTIONS[lowered])
            output = f"{lowered}_{column}"
        elif lowered == "bin" and self.peek().matches(TokenType.SYMBOL, "("):
            self.expect_symbol("(")
            column = self.expect_ident()
            self.expect_symbol(",")
            width = self.parse_duration()
            self.expect_symbol(")")
            expression = TimeBucket(Column(column), width)
            output = f"bin_{column}"
        else:
            expression = Column(name)
            output = name
        if self.accept_keyword("AS"):
            output = self.expect_ident()
        return output, expression

    def _parse_signed_number(self) -> float:
        sign = 1.0
        if self.accept_symbol("-"):
            sign = -1.0
        return sign * self.expect_number()

    def _parse_inner_relation(self) -> Relation:
        """FROM clause: a table name, a parenthesised sub-select, joins, group-bys."""
        relation = self._parse_relation_atom()
        while True:
            if self.accept_keyword("JOIN"):
                right = self._parse_relation_atom()
                self.expect_keyword("ON")
                keys = [self.expect_ident()]
                while self.accept_symbol(","):
                    keys.append(self.expect_ident())
                relation = Join(left=relation, right=right, on=tuple(keys))
            elif self.peek().matches(TokenType.IDENT, "GROUP") \
                    and self.peek(1).matches(TokenType.IDENT, "BY") \
                    and not self._is_outer_group_by():
                self.advance()
                self.advance()
                keys = [self.expect_ident()]
                while self.accept_symbol(","):
                    keys.append(self.expect_ident())
                explicit_keys = None
                if self.accept_keyword("WITH"):
                    self.expect_keyword("KEYS")
                    explicit_keys = self._parse_key_list()
                relation = GroupBy(relation, keys=tuple(keys), explicit_keys=explicit_keys)
            else:
                break
        return relation

    def _is_outer_group_by(self) -> bool:
        """Heuristic: a GROUP BY at the statement's top level belongs to the outer SELECT.

        The parser tracks parenthesis depth while parsing the FROM clause; the
        flag is set by :meth:`_parse_select` before descending.
        """
        return getattr(self, "_at_outer_level", False) and self._paren_depth == 0

    def _parse_relation_atom(self) -> Relation:
        if self.accept_symbol("("):
            self._paren_depth += 1
            relation = self._parse_nested_select()
            self._paren_depth -= 1
            self.expect_symbol(")")
            return relation
        name = self.expect_ident()
        return TableScan(name)

    def _parse_nested_select(self) -> Relation:
        """A parenthesised ``SELECT expr_list FROM inner [WHERE ...] [LIMIT n]``."""
        if not self.accept_keyword("SELECT"):
            # A parenthesised bare relation, e.g. (tableA JOIN tableB ON plate).
            return self._parse_inner_relation()
        outputs: list[tuple[str, Expression]] = []
        while True:
            outputs.append(self._parse_scalar_expression())
            if not self.accept_symbol(","):
                break
        self.expect_keyword("FROM")
        relation = self._parse_inner_relation()
        if self.accept_keyword("LIMIT"):
            relation = Limit(relation, self.expect_count())
        projected: Relation = Projection(relation, outputs=tuple(outputs))
        while self.peek().matches(TokenType.IDENT, "GROUP"):
            self.advance()
            self.expect_keyword("BY")
            keys = [self.expect_ident()]
            while self.accept_symbol(","):
                keys.append(self.expect_ident())
            explicit_keys = None
            if self.accept_keyword("WITH"):
                self.expect_keyword("KEYS")
                explicit_keys = self._parse_key_list()
            projected = GroupBy(projected, keys=tuple(keys), explicit_keys=explicit_keys)
        return projected

    def _parse_aggregation(self) -> tuple[Aggregation, list[str]]:
        """The outer SELECT's aggregation, plus any leading bare group columns."""
        group_columns: list[str] = []
        while True:
            token = self.peek()
            if token.type is TokenType.IDENT and token.value.upper() in SUPPORTED_AGGREGATES \
                    and self.peek(1).matches(TokenType.SYMBOL, "("):
                break
            group_columns.append(self.expect_ident())
            self.expect_symbol(",")
        function = self.expect_ident().upper()
        self.expect_symbol("(")
        column: str | None
        inner_range: tuple[float, float] | None = None
        if self.accept_symbol("*"):
            column = None
        else:
            inner = self.peek()
            if inner.value.lower() == "range":
                self.advance()
                self.expect_symbol("(")
                column = self.expect_ident()
                self.expect_symbol(",")
                low = self._parse_signed_number()
                self.expect_symbol(",")
                high = self._parse_signed_number()
                self.expect_symbol(")")
                inner_range = (low, high)
            else:
                column = self.expect_ident()
        self.expect_symbol(")")
        aggregation = Aggregation(function=function, column=column)
        if inner_range is not None:
            aggregation = Aggregation(function=function, column=column)
            self._pending_range = (column, inner_range)
        return aggregation, group_columns

    def _parse_select(self) -> SelectStatement:
        self._pending_range: tuple[str | None, tuple[float, float]] | None = None
        self._paren_depth = 0
        self._at_outer_level = True
        aggregation, group_columns = self._parse_aggregation()
        self.expect_keyword("FROM")
        relation = self._parse_inner_relation()
        group_spec: GroupSpec | None = None
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            expressions: list[tuple[str, Expression]] = []
            while True:
                expressions.append(self._parse_scalar_expression())
                if not self.accept_symbol(","):
                    break
            expected_keys = None
            if self.accept_keyword("WITH"):
                self.expect_keyword("KEYS")
                expected_keys = self._parse_key_list()
            group_spec = GroupSpec(expressions=tuple(expressions), expected_keys=expected_keys)
        elif group_columns:
            raise QuerySyntaxError(
                f"columns {group_columns} appear in the SELECT list but there is no GROUP BY")
        epsilon = None
        if self.accept_keyword("CONSUMING"):
            epsilon = self.expect_number()
        if self._pending_range is not None:
            column, (low, high) = self._pending_range
            if column is not None:
                relation = Projection(relation, outputs=(
                    (column, RangeExpression(Column(column), low, high)),
                    ("chunk", Column("chunk")),
                    ("region", Column("region")),
                ))
        self._at_outer_level = False
        return SelectStatement(aggregation=aggregation, source=relation,
                               group_by=group_spec, epsilon=epsilon)


def parse_query(text: str, *, name: str = "query") -> PrividQuery:
    """Parse query text into a :class:`~repro.query.ast.PrividQuery`."""
    return _Parser(text).parse(name)
