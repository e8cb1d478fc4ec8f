"""Tests for the query language: lexer, parser, builder, validator."""

import ast
import re
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import QuerySyntaxError, QueryValidationError
from repro.query.ast import collect_table_names
from repro.query.builder import QueryBuilder, make_schema
from repro.query.lexer import Token, TokenType, tokenize
from repro.query.parser import _Parser, parse_query
from repro.query.validator import validate_query
from repro.relational.plan import GroupBy, Join, Projection, TableScan
from repro.relational.table import DataType


EXAMPLE_QUERY = """
/* Listing 1, adapted: cars on a highway camera */
SPLIT camA BEGIN 0 END 1hr BY TIME 5sec STRIDE 0sec INTO chunksA;

PROCESS chunksA USING vehicle_reporter.py TIMEOUT 1sec
    PRODUCING 10 ROWS
    WITH SCHEMA (plate:STRING="", color:STRING="", speed:NUMBER=0)
    INTO tableA;

SELECT AVG(range(speed, 30, 60)) FROM tableA;

SELECT color, COUNT(plate) FROM (SELECT plate, color FROM tableA GROUP BY plate
    WITH KEYS ["P1", "P2", "P3"])
    GROUP BY color WITH KEYS ["RED", "WHITE", "SILVER"] CONSUMING 0.5;
"""


_SYMBOLS = ("<=", ">=", "!=", "(", ")", "[", "]", ",", ";", ":", "=", "*", "+", "-", "/",
            "<", ">")
_IDENT_EXTRA = {"_", ".", "-"}


def oracle_tokenize(text: str, is_digit: Callable[[str], bool] = str.isdigit) -> list[Token]:
    """The tokenizer as it stood before the one-pass scanner: a character walk
    that counts lines and columns as it goes.  ``is_digit`` is the one place
    the scanner deliberately differs (``str.isdecimal``: a NUMBER is what
    ``float()`` accepts); with the default this is the old code verbatim."""
    tokens: list[Token] = []
    index = 0
    line = 1
    column = 1
    length = len(text)

    def advance(count: int) -> None:
        nonlocal index, line, column
        for _ in range(count):
            if index < length and text[index] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            index += 1

    while index < length:
        char = text[index]
        if char in " \t\r\n":
            advance(1)
            continue
        if char == "#" :
            while index < length and text[index] != "\n":
                advance(1)
            continue
        if text.startswith("/*", index):
            end = text.find("*/", index + 2)
            if end == -1:
                raise QuerySyntaxError("unterminated comment", line=line, column=column)
            advance(end + 2 - index)
            continue
        if char == '"':
            start_line, start_column = line, column
            advance(1)
            start = index
            while index < length and text[index] != '"':
                advance(1)
            if index >= length:
                raise QuerySyntaxError("unterminated string literal",
                                       line=start_line, column=start_column)
            value = text[start:index]
            advance(1)
            tokens.append(Token(TokenType.STRING, value, start_line, start_column))
            continue
        if is_digit(char) or (char == "." and index + 1 < length and is_digit(text[index + 1])):
            start_line, start_column = line, column
            start = index
            seen_dot = False
            while index < length and (is_digit(text[index]) or (text[index] == "." and not seen_dot)):
                if text[index] == ".":
                    # A dot not followed by a digit ends the number (e.g. "10.ROWS").
                    if index + 1 >= length or not is_digit(text[index + 1]):
                        break
                    seen_dot = True
                advance(1)
            tokens.append(Token(TokenType.NUMBER, text[start:index], start_line, start_column))
            continue
        if char.isalpha() or char == "_":
            start_line, start_column = line, column
            start = index
            while index < length and (text[index].isalnum() or text[index] in _IDENT_EXTRA):
                advance(1)
            tokens.append(Token(TokenType.IDENT, text[start:index], start_line, start_column))
            continue
        matched_symbol = None
        for symbol in _SYMBOLS:
            if text.startswith(symbol, index):
                matched_symbol = symbol
                break
        if matched_symbol is not None:
            tokens.append(Token(TokenType.SYMBOL, matched_symbol, line, column))
            advance(len(matched_symbol))
            continue
        raise QuerySyntaxError(f"unexpected character {char!r}", line=line, column=column)
    tokens.append(Token(TokenType.END, "", line, column))
    return tokens


def _outcome(function: Callable, *args):
    """What a caller can observe: the value, or the syntax error and where."""
    try:
        return function(*args)
    except QuerySyntaxError as error:
        return (str(error), error.line, error.column)
    except QueryValidationError as error:
        return (str(error),)


def _is_old_number_only(char: str) -> bool:
    return char.isdigit() and not char.isdecimal()


#: The language's alphabet, weighted towards what makes tokens run together.
_PIECES = st.one_of(
    st.sampled_from([*_SYMBOLS, "!", ".", "_", "-", '"', "#", "/*", "*/", "/", "*",
                     " ", "  ", "\t", "\n", "\r", "\r\n", "\f", "\u00a0",
                     "10.ROWS", "1.2.3", ".5", "5sec", "model.py", "a-b", "x_1",
                     "0", "7", "42", "3.25", "\u0663", "\u0663.\u0665", "1\u0663",
                     "\u00b2", "\u00bd", "x\u00b2", "1\u00b2", "\u2167", "\u2460",
                     "\u00e9", "caf\u00e9", "\u4e09", "\u0394t", "$", "@", "{", "\\", "'",
                     "SELECT", "count", "/* c */", "/* a\nb */", "# c\n", "# c",
                     '"s"', '"a\nb"', '""']),
    st.text(alphabet=st.characters(codec="utf-8", categories=("L", "N", "P", "S", "Z")),
            min_size=1, max_size=3))


def _repo_query_texts() -> list[str]:
    """Every string in tests/, examples/, benchmarks/ and the docs that reads
    like query text — f-string and ``str.format`` holes filled with ``1`` —
    fragments included: those must fail the same way."""
    root = Path(__file__).resolve().parents[1]
    texts: set[str] = set()
    for directory in ("tests", "examples", "benchmarks"):
        for path in sorted((root / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    texts.add(node.value)
                elif isinstance(node, ast.JoinedStr):
                    texts.add("".join(part.value if isinstance(part, ast.Constant) else "1"
                                      for part in node.values))
    for path in (root / "README.md", *sorted((root / "docs").glob("*.md"))):
        texts.update(re.findall(r"```[a-z]*\n(.*?)```", path.read_text(encoding="utf-8"),
                                flags=re.DOTALL))
    texts.update([re.sub(r"\{\w*\}", "1", text) for text in texts])
    return sorted(text for text in texts
                  if re.search(r"\b(SPLIT|PROCESS|SELECT)\b", text))


class TestLexer:
    def test_tokenizes_keywords_numbers_strings(self):
        tokens = tokenize('SPLIT cam BEGIN 0 END 1.5 WITH MASK "m";')
        kinds = [token.type for token in tokens]
        assert kinds[-1] is TokenType.END
        values = [token.value for token in tokens if token.type is TokenType.NUMBER]
        assert values == ["0", "1.5"]

    def test_comments_skipped(self):
        tokens = tokenize("/* hello */ SELECT # trailing comment\n COUNT")
        idents = [t.value for t in tokens if t.type is TokenType.IDENT]
        assert idents == ["SELECT", "COUNT"]

    def test_unterminated_string_rejected(self):
        with pytest.raises(QuerySyntaxError):
            tokenize('SELECT "oops')

    def test_unterminated_comment_rejected(self):
        with pytest.raises(QuerySyntaxError):
            tokenize("/* never closed")

    def test_dotted_identifiers(self):
        tokens = tokenize("USING model.py")
        assert tokens[1].value == "model.py"

    def test_positions_tracked(self):
        tokens = tokenize("SPLIT\n  cam")
        assert tokens[1].line == 2
        assert tokens[1].column == 3

    @settings(max_examples=600, deadline=None)
    @given(st.lists(_PIECES, max_size=14).map("".join))
    @example("SPLIT\r\n  cam /* a\n\nb */ BEGIN 0 # x\n\tEND 1.5hr;\n")
    @example('a "b\nc" d\n"open')
    @example("a /* never closed")
    @example("/*/ x")
    @example("a*/b")
    @example("10.ROWS")
    @example("1.2.3 .5 1. x")
    @example("a<=b>=c!=d<e>f=!g")
    @example("caf\u00e9.py \u0394t-1 \u00bdx \u2167")
    def test_scanner_is_the_character_walker(self, text):
        """Equal ``(type, value, line, column)`` lists, or an equal syntax
        error at an equal position, on anything the alphabet can spell."""
        assert _outcome(tokenize, text) == _outcome(oracle_tokenize, text, str.isdecimal)
        if not any(map(_is_old_number_only, text)):
            # ... and with no digit-that-is-not-decimal in sight, the old code verbatim.
            assert _outcome(tokenize, text) == _outcome(oracle_tokenize, text)

    @pytest.mark.parametrize("char", ["\u00b2", "\u2460", "\u00bd", "\u2167"])
    def test_digit_like_characters_are_not_numbers(self, char):
        """``str.isdigit`` / ``isnumeric`` characters ``float()`` refuses used to
        reach it as a NUMBER and escape as ``ValueError``."""
        text = f"SPLIT c BEGIN {char} END 10 BY TIME 5sec INTO x;"
        with pytest.raises(QuerySyntaxError, match="unexpected character") as caught:
            parse_query(text)
        assert (caught.value.line, caught.value.column) == (1, 15)

    def test_a_number_is_what_float_accepts(self):
        """Decimal digits of any script (``str.isdecimal``), as before."""
        tokens = tokenize("\u0663 1\u0663.\u0665 .5")
        assert [float(token.value) for token in tokens[:-1]] == [3.0, 13.5, 0.5]
        assert {token.type for token in tokens[:-1]} == {TokenType.NUMBER}

    def test_every_query_text_in_the_repo_parses_the_same(self):
        """``repr`` of the AST (what the WAL's query fingerprint hashes) from
        the scanner's tokens and from the character walker's."""

        def parse_with(tokens_of: Callable, text: str) -> str:
            parser = _Parser.__new__(_Parser)
            parser.tokens, parser.position = tokens_of(text), 0
            return repr(parser.parse("query"))

        texts = _repo_query_texts()
        parsed = 0
        for text in texts:
            expected = _outcome(parse_with, oracle_tokenize, text)
            assert _outcome(parse_with, tokenize, text) == expected
            assert _outcome(lambda: repr(parse_query(text))) == expected
            parsed += isinstance(expected, str) and expected.startswith("PrividQuery(")
        assert parsed >= 8 and len(texts) >= 30, (parsed, len(texts))


class TestParser:
    def test_parses_example_query(self):
        query = parse_query(EXAMPLE_QUERY, name="listing1")
        assert len(query.splits) == 1
        assert len(query.processes) == 1
        assert len(query.selects) == 2
        split = query.splits[0]
        assert split.camera == "camA"
        assert split.end == 3600.0
        assert split.chunk_duration == 5.0
        process = query.processes[0]
        assert process.max_rows == 10
        assert process.schema.column("speed").dtype is DataType.NUMBER
        first, second = query.selects
        assert first.aggregation.function == "AVG"
        assert second.aggregation.function == "COUNT"
        assert second.epsilon == 0.5
        assert second.group_by is not None
        assert second.group_by.expected_keys == ("RED", "WHITE", "SILVER")

    def test_parses_masks_and_regions(self):
        text = """
        SPLIT cam BEGIN 0 END 10min BY TIME 30sec STRIDE 0sec
            WITH MASK owner BY REGION crosswalks INTO chunks;
        PROCESS chunks USING count_entering_people.py PRODUCING 5 ROWS
            WITH SCHEMA (kind:STRING="") INTO t;
        SELECT COUNT(*) FROM t GROUP BY hour(chunk);
        """
        query = parse_query(text)
        assert query.splits[0].mask == "owner"
        assert query.splits[0].region_scheme == "crosswalks"
        select = query.selects[0]
        assert select.group_by is not None
        assert select.group_by.expected_keys is None

    def test_parses_join(self):
        text = """
        SPLIT camA BEGIN 0 END 1hr BY TIME 60sec INTO chunksA;
        SPLIT camB BEGIN 0 END 1hr BY TIME 60sec INTO chunksB;
        PROCESS chunksA USING taxi_sightings.py PRODUCING 5 ROWS
            WITH SCHEMA (plate:STRING="") INTO tableA;
        PROCESS chunksB USING taxi_sightings.py PRODUCING 5 ROWS
            WITH SCHEMA (plate:STRING="") INTO tableB;
        SELECT COUNT(*) FROM tableA JOIN tableB ON plate;
        """
        query = parse_query(text)
        assert isinstance(query.selects[0].source, Join)
        assert collect_table_names(query.selects[0].source) == {"tableA", "tableB"}

    def test_syntax_error_reports_location(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SPLIT BEGIN 0;")

    @pytest.mark.parametrize("clause", ["PRODUCING 2.5 ROWS", "PRODUCING 0.5 ROWS"])
    def test_fractional_row_bound_rejected(self, clause):
        text = ("SPLIT c BEGIN 0 END 10 BY TIME 5sec INTO x;\n"
                f"PROCESS x USING count_entering_people.py {clause} "
                'WITH SCHEMA (kind:STRING="") INTO t;')
        with pytest.raises(QuerySyntaxError, match="expected a whole number") as caught:
            parse_query(text)
        assert (caught.value.line, caught.value.column) == (2, 52)

    def test_fractional_limit_rejected_and_whole_counts_kept(self):
        text = ("SPLIT c BEGIN 0 END 10 BY TIME 5sec INTO x;"
                "PROCESS x USING count_entering_people.py PRODUCING 3.0 ROWS "
                'WITH SCHEMA (plate:STRING="") INTO t;'
                "SELECT COUNT(plate) FROM (SELECT plate FROM t LIMIT {limit});")
        with pytest.raises(QuerySyntaxError, match="expected a whole number, found '2.5'"):
            parse_query(text.format(limit="2.5"))
        query = parse_query(text.format(limit="2"))
        assert query.processes[0].max_rows == 3
        assert isinstance(query.processes[0].max_rows, int)

    def test_unknown_statement_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("FROBNICATE all the things;")

    def test_time_units(self):
        query = parse_query("""
        SPLIT cam BEGIN 0 END 2day BY TIME 15min STRIDE 30sec INTO c;
        PROCESS c USING taxi_sightings.py PRODUCING 2 ROWS WITH SCHEMA (plate:STRING="") INTO t;
        SELECT COUNT(*) FROM t;
        """)
        assert query.splits[0].end == 2 * 86400.0
        assert query.splits[0].chunk_duration == 900.0
        assert query.splits[0].stride == 30.0


class TestBuilder:
    def test_make_schema(self):
        schema = make_schema([("a", "NUMBER", 0.0), ("b", "STRING", "x")])
        assert schema.names == ("a", "b")

    def test_builder_round_trip(self):
        query = (QueryBuilder("demo")
                 .split("cam", begin=0, end=3600, chunk_duration=60, into="chunks")
                 .process("chunks", executable="count_entering_people.py", max_rows=5,
                          schema=[("kind", "STRING", "")], into="t")
                 .select_count(table="t", group_by_hour=True)
                 .build())
        assert query.splits[0].output == "chunks"
        assert query.selects[0].group_by is not None

    def test_builder_requires_all_statement_kinds(self):
        with pytest.raises(QueryValidationError):
            QueryBuilder("incomplete").build()

    def test_builder_average_inserts_range(self):
        query = (QueryBuilder("avg")
                 .split("cam", begin=0, end=600, chunk_duration=60, into="chunks")
                 .process("chunks", executable="vehicle_reporter.py", max_rows=5,
                          schema=[("speed", "NUMBER", 0.0)], into="t")
                 .select_average("speed", 0, 120, table="t")
                 .build())
        assert isinstance(query.selects[0].source, Projection)

    def test_builder_count_unique(self):
        query = (QueryBuilder("unique")
                 .split("cam", begin=0, end=600, chunk_duration=60, into="chunks")
                 .process("chunks", executable="vehicle_reporter.py", max_rows=5,
                          schema=[("plate", "STRING", "")], into="t")
                 .select_count_unique("plate", table="t", keys=["P1", "P2"])
                 .build())
        assert isinstance(query.selects[0].source, GroupBy)

    def test_group_by_column_requires_keys(self):
        builder = (QueryBuilder("bad")
                   .split("cam", begin=0, end=600, chunk_duration=60, into="chunks")
                   .process("chunks", executable="vehicle_reporter.py", max_rows=5,
                            schema=[("color", "STRING", "")], into="t"))
        with pytest.raises(QueryValidationError):
            builder.select_count(table="t", group_by_column="color")


class TestValidator:
    def _query(self):
        return (QueryBuilder("valid")
                .split("campus", begin=0, end=3600, chunk_duration=60, into="chunks")
                .process("chunks", executable="count_entering_people.py", max_rows=5,
                         schema=[("kind", "STRING", "")], into="t")
                .select_count(table="t")
                .build())

    def test_valid_query_passes(self):
        report = validate_query(self._query())
        assert report.ok

    def test_unknown_camera_flagged(self):
        report = validate_query(self._query(), known_cameras={"other": 2.0},
                                raise_on_error=False)
        assert not report.ok

    def test_chunk_alignment_checked(self):
        query = (QueryBuilder("misaligned")
                 .split("campus", begin=0, end=3600, chunk_duration=0.3, into="chunks")
                 .process("chunks", executable="count_entering_people.py", max_rows=5,
                          schema=[("kind", "STRING", "")], into="t")
                 .select_count(table="t")
                 .build())
        report = validate_query(query, known_cameras={"campus": 2.0}, raise_on_error=False)
        assert any("frames" in error for error in report.errors)

    def test_unknown_table_flagged(self):
        query = self._query()
        query.selects[0].source = TableScan("missing")
        with pytest.raises(QueryValidationError):
            validate_query(query)

    def test_unknown_executable_flagged(self):
        report = validate_query(self._query(), known_executables=["other.py"],
                                raise_on_error=False)
        assert not report.ok

    def test_large_max_rows_warns(self):
        query = (QueryBuilder("big")
                 .split("campus", begin=0, end=3600, chunk_duration=60, into="chunks")
                 .process("chunks", executable="count_entering_people.py", max_rows=5000,
                          schema=[("kind", "STRING", "")], into="t")
                 .select_count(table="t")
                 .build())
        report = validate_query(query)
        assert report.warnings
