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
from repro.query.lexer import scan, syntax_error
from repro.query.parser import parse_query
from repro.query.validator import validate_query
from repro.relational.aggregates import Aggregation
from repro.relational.plan import GroupBy, Join, Projection, TableScan
from repro.relational.table import DataType
from tests.parse_oracle import (_SYMBOLS, Token, TokenType, _Parser, oracle_parse_query,
                                oracle_tokenize)


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


def tokenize(text: str) -> list[Token]:
    """The scanner's columns as ``Token`` tuples, each placed where a syntax
    error at that token reports it."""
    kinds, values, _keys = scan(text)
    tokens = []
    for index, (kind, value) in enumerate(zip(kinds, values)):
        where = syntax_error(text, index, "")
        tokens.append(Token(TokenType(kind), value, where.line, where.column))
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
        """``repr`` of the AST (what the WAL's query fingerprint hashes), or
        the error and where: ``parse_query``, and the oracle parser over the
        character walker's tokens and over the scanner's."""

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


#: A literal of 309 or more digits reads as ``inf`` through ``float()``.
HUGE = "1" + "0" * 400

_FINITE_CLAUSES = {"begin": "0", "end": "600", "chunk": "60", "stride": "0",
                   "timeout": "1", "epsilon": "0.5"}
_CLAUSES_TEXT = ("SPLIT cam BEGIN {begin} END {end} BY TIME {chunk}sec STRIDE {stride}sec "
                 "INTO c;\n"
                 "PROCESS c USING count_entering_people.py TIMEOUT {timeout}sec "
                 'PRODUCING 2 ROWS WITH SCHEMA (kind:STRING="") INTO t;\n'
                 "SELECT COUNT(*) FROM t CONSUMING {epsilon};")


class TestNonFiniteNumbers:
    """NaN and infinities pass every ``<= 0`` check, so both front doors
    reject them by name: the parser at the literal, the statements at
    construction."""

    def test_finite_template_parses(self):
        query = parse_query(_CLAUSES_TEXT.format(**_FINITE_CLAUSES))
        validate_query(query, known_cameras={"cam": 30.0})
        assert query.selects[0].epsilon == 0.5

    @pytest.mark.parametrize("clause", sorted(_FINITE_CLAUSES))
    def test_huge_literal_is_a_syntax_error_at_its_position(self, clause):
        text = _CLAUSES_TEXT.format(**{**_FINITE_CLAUSES, clause: HUGE})
        with pytest.raises(QuerySyntaxError, match="too large") as caught:
            query = parse_query(text)
            validate_query(query, known_cameras={"cam": 30.0})
        line_index = next(index for index, line in enumerate(text.splitlines())
                          if HUGE in line)
        column = text.splitlines()[line_index].index(HUGE) + 1
        assert (caught.value.line, caught.value.column) == (line_index + 1, column)

    def test_duration_that_overflows_through_its_unit_is_rejected(self):
        # 10**305 is finite; times 86,400 seconds a day it is not.
        text = _CLAUSES_TEXT.format(**{**_FINITE_CLAUSES, "chunk": "1" + "0" * 305})
        with pytest.raises(QueryValidationError, match="finite"):
            parse_query(text.replace("sec STRIDE", "day STRIDE", 1))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["begin", "end", "chunk_duration", "stride",
                                       "timeout", "epsilon"])
    def test_built_statement_rejects_non_finite(self, field, value):
        split = {"begin": 0.0, "end": 600.0, "chunk_duration": 60.0, "stride": 0.0}
        process = {"timeout": 1.0}
        select = {"epsilon": 0.5}
        for arguments in (split, process, select):
            if field in arguments:
                arguments[field] = value
        with pytest.raises(QueryValidationError, match="finite"):
            (QueryBuilder("built")
             .split("cam", into="c", **split)
             .process("c", executable="count_entering_people.py", max_rows=2,
                      schema=[("kind", "STRING", "")], into="t", **process)
             .select_count(table="t", **select))


#: Token-level alphabet of the grammar: every keyword (in three cases), units,
#: names (some whose case mapping reaches ASCII: ``ſ`` upper-cases to ``S``,
#: ``ı`` to ``I``, ``ß`` to ``SS``), numbers (fractional, huge), strings and
#: symbols.  Statements are built from the plain part; edits draw from all.
_KEYWORDS = ("SPLIT", "PROCESS", "SELECT", "BEGIN", "END", "BY", "TIME", "STRIDE", "WITH",
             "MASK", "REGION", "INTO", "USING", "TIMEOUT", "PRODUCING", "ROWS", "SCHEMA",
             "STRING", "NUMBER", "FROM", "GROUP", "KEYS", "JOIN", "ON", "LIMIT", "AS",
             "CONSUMING", "COUNT", "SUM", "AVG", "VAR", "ARGMAX", "RANGE", "HOUR", "DAY", "BIN")
_UNITS = ("s", "sec", "seconds", "min", "minutes", "hr", "hours", "day", "days", "SEC", "Min")
_NAMES = ("camA", "chunks", "t", "plate", "color", "kind", "dy", "x_1", "model.py")
_NUMBERS = ("0", "1", "2", "5", "30", "60", "600", "3.0")
_ODD = ("ſec", "mın", "ſplit", "ıNTO", "straße", "Ümlaut", "a-b", "_", "chunk", "region",
        "TEXT", "0.5", "2.5", ".5", "1" + "0" * 305, HUGE)
_STRINGS = ('""', '"x"', '"P1"', '"a b"', '"SELECT"', '"range"')
_TOKENS = st.sampled_from([*_KEYWORDS, *(word.lower() for word in _KEYWORDS),
                           *(word.title() for word in _KEYWORDS), *_UNITS, *_NAMES,
                           *_NUMBERS, *_ODD, *_STRINGS, *_SYMBOLS])
#: Mostly plain spacing; an empty separator glues two tokens into one.
_SEPARATORS = st.sampled_from([" "] * 12 + ["\n", "\t", "  ", "\r\n", "/* c */", "# c\n",
                                            "/* a\nb */", ""])


def _maybe(part):
    return st.one_of(st.just([]), part)


def _joined(part, separator=","):
    """``part[, part...]`` as one token list."""
    return st.lists(part, min_size=1, max_size=3).map(
        lambda parts: [token for index, tokens in enumerate(parts)
                       for token in ([separator] if index else []) + tokens])


def _cat(*parts):
    return st.tuples(*parts).map(lambda lists: [token for tokens in lists for token in tokens])


def _one(values):
    return st.sampled_from(values).map(lambda value: [value])


_NAME = _one(_NAMES)
_NUMBER = _one(_NUMBERS)
_DURATION = _cat(_NUMBER, _maybe(_one(_UNITS)))
_SIGNED = _cat(_maybe(st.just(["-"])), _NUMBER)
_LITERAL = st.one_of(_NAME, _NUMBER, _one(_STRINGS))
_RANGE = _cat(st.just(["range", "("]), _NAME, st.just([","]), _SIGNED, st.just([","]),
              _SIGNED, st.just([")"]))
_EXPRESSION = _cat(
    st.one_of(_NAME, _RANGE,
              _cat(_one(["hour", "day"]), st.just(["("]), _NAME, st.just([")"])),
              _cat(st.just(["bin", "("]), _NAME, st.just([","]), _DURATION, st.just([")"]))),
    _maybe(_cat(st.just(["AS"]), _NAME)))
_KEY_LIST = _cat(st.just(["WITH", "KEYS", "["]), _joined(_LITERAL), st.just(["]"]))
_GROUP_BY = _cat(st.just(["GROUP", "BY"]), _joined(_NAME), _maybe(_KEY_LIST))
_RELATION = st.recursive(
    _NAME,
    lambda inner: st.one_of(
        _cat(inner, st.just(["JOIN"]), inner, st.just(["ON"]), _joined(_NAME)),
        _cat(st.just(["(", "SELECT"]), _joined(_EXPRESSION), st.just(["FROM"]), inner,
             _maybe(_cat(st.just(["LIMIT"]), _NUMBER)), _maybe(_GROUP_BY), st.just([")"])),
        _cat(st.just(["("]), inner, _maybe(_GROUP_BY), st.just([")"]))),
    max_leaves=4)
_SPLIT = _cat(st.just(["SPLIT"]), _NAME, st.just(["BEGIN"]), _DURATION, st.just(["END"]),
              _DURATION, st.just(["BY", "TIME"]), _DURATION,
              _maybe(_cat(st.just(["STRIDE"]), _DURATION)),
              _maybe(_cat(st.just(["WITH", "MASK"]), _NAME)),
              _maybe(_cat(st.just(["BY", "REGION"]), _NAME)),
              st.just(["INTO"]), _NAME, st.just([";"]))
_COLUMN = _cat(_NAME, st.just([":"]), _one(["STRING", "NUMBER", "number"]),
               _maybe(_cat(st.just(["="]), _LITERAL)))
_PROCESS = _cat(st.just(["PROCESS"]), _NAME, st.just(["USING"]), _NAME,
                _maybe(_cat(st.just(["TIMEOUT"]), _DURATION)), st.just(["PRODUCING"]), _NUMBER,
                _maybe(st.just(["ROWS"])), st.just(["WITH", "SCHEMA", "("]), _joined(_COLUMN),
                st.just([")", "INTO"]), _NAME, st.just([";"]))
_SELECT = _cat(st.just(["SELECT"]), _maybe(_cat(_NAME, st.just([","]))),
               _one(["COUNT", "SUM", "avg", "VAR", "ARGMAX"]), st.just(["("]),
               st.one_of(st.just(["*"]), _NAME, _RANGE), st.just([")", "FROM"]), _RELATION,
               _maybe(_cat(st.just(["GROUP", "BY"]), _joined(_EXPRESSION), _maybe(_KEY_LIST))),
               _maybe(_cat(st.just(["CONSUMING"]), _NUMBER)), st.just([";"]))


@st.composite
def _query_texts(draw):
    """One to three statements of the grammar, then up to three token edits
    (delete, insert, replace), joined by drawn whitespace and comments."""
    tokens = [token for tokens in draw(st.lists(st.one_of(_SPLIT, _PROCESS, _SELECT),
                                                min_size=1, max_size=3))
              for token in tokens]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        index = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["delete", "insert", "replace"]))
        if edit == "insert":
            tokens.insert(index, draw(_TOKENS))
        elif index < len(tokens):
            tokens[index:index + 1] = [draw(_TOKENS)] if edit == "replace" else []
    return "".join(token + draw(_SEPARATORS) for token in tokens)


def _parsed(parse: Callable, text: str):
    """``repr`` of the AST, or the error a caller sees and where."""
    try:
        return repr(parse(text))
    except QuerySyntaxError as error:
        return (str(error), error.line, error.column)
    except Exception as error:  # a statement's own check, e.g. SchemaError
        return (type(error).__name__, str(error))


class TestParserOracle:
    """``parse_query`` against the parser it replaced (``tests/parse_oracle.py``)."""

    @settings(max_examples=500, deadline=None)
    @given(_query_texts())
    @example("SELECT COUNT(*) FROM (SELECT a FROM t GROUP BY a WITH KEYS [1]) GROUP BY b;")
    @example('SELECT COUNT("range"(x, -1, 2)) FROM t;')
    @example("SPLIT c BEGIN 0 ſec END 1 mın BY TIME 1 INTO x; SELECT a, b, COUNT(*) FROM t;")
    @example('PROCESS c USING m.py PRODUCING 2 WITH SCHEMA (a:straße="") INTO t;')
    @example("SELECT SUM(*) FROM t; SELECT COUNT(x) FROM t LIMIT 2")
    def test_parses_like_the_oracle(self, text):
        """Equal ``repr`` (what the WAL's query fingerprint hashes), or an equal
        error message, line and column."""
        assert _parsed(parse_query, text) == _parsed(oracle_parse_query, text)

    def test_generated_texts_reach_both_outcomes(self):
        """The generator makes parseable queries and broken ones alike."""
        outcomes = {"parsed": 0, "syntax": 0}

        @settings(max_examples=200, deadline=None, database=None, derandomize=True)
        @given(_query_texts())
        def tally(text):
            outcome = _parsed(oracle_parse_query, text)
            if isinstance(outcome, str):
                outcomes["parsed"] += 1
            elif len(outcome) == 3:
                outcomes["syntax"] += 1

        tally()
        assert outcomes["parsed"] >= 20 and outcomes["syntax"] >= 50, outcomes


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
                 .select(Aggregation(function="COUNT"),
                         GroupBy(TableScan("t"), keys=("plate",),
                                 explicit_keys=("P1", "P2")))
                 .build())
        assert query.selects[0].source == GroupBy(TableScan("t"), keys=("plate",),
                                                  explicit_keys=("P1", "P2"))
        assert query.selects[0].group_by is None

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
        assert validate_query(self._query()) is None

    def test_unknown_camera_flagged(self):
        with pytest.raises(QueryValidationError,
                           match="^SPLIT references unknown camera 'campus'$"):
            validate_query(self._query(), known_cameras={"other": 2.0})

    def test_chunk_alignment_checked(self):
        query = (QueryBuilder("misaligned")
                 .split("campus", begin=0, end=3600, chunk_duration=0.3, into="chunks")
                 .process("chunks", executable="count_entering_people.py", max_rows=5,
                          schema=[("kind", "STRING", "")], into="t")
                 .select_count(table="t")
                 .build())
        with pytest.raises(QueryValidationError, match="whole number of frames"):
            validate_query(query, known_cameras={"campus": 2.0})

    def test_unknown_table_flagged(self):
        query = self._query()
        query.selects[0].source = TableScan("missing")
        with pytest.raises(QueryValidationError):
            validate_query(query)

    def test_unknown_executable_flagged(self):
        with pytest.raises(QueryValidationError,
                           match="^PROCESS references unregistered executable "
                                 "'count_entering_people.py'$"):
            validate_query(self._query(), known_executables=["other.py"])

    def test_every_broken_rule_is_named_in_one_message(self):
        with pytest.raises(QueryValidationError,
                           match="^SPLIT references unknown camera 'campus'; PROCESS "
                                 "references unregistered executable "
                                 "'count_entering_people.py'$"):
            validate_query(self._query(), known_cameras={"other": 2.0},
                           known_executables=["other.py"])
