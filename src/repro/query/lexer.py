"""Tokenizer for the textual Privid query language (Appendix D).

The language is small: keywords, identifiers (which may contain dots, so
``model.py`` is a single token), numbers, double-quoted strings, and a
handful of symbols.  ``/* ... */`` block comments and ``#`` line comments are
skipped.

One compiled pattern is applied left to right: each match is a token plus the
whitespace and comments behind it, so the first offset the pattern cannot
match is the syntax error.  A NUMBER is decimal digits (``str.isdecimal``: any
script's, ``٣`` reads as 3) with at most one ``.`` between digits — exactly
what ``float()`` accepts; ``²`` and ``½`` are unexpected characters.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from repro.errors import QuerySyntaxError


class TokenType(str, Enum):
    """Lexical categories of the query language."""

    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    SYMBOL = "symbol"
    END = "end"


class Token(NamedTuple):
    """One lexical token with its source position (1-based line/column)."""

    type: TokenType
    value: str
    line: int
    column: int

    def matches(self, token_type: TokenType, value: str | None = None) -> bool:
        """True if the token has the given type (and value, case-insensitively)."""
        if self.type is not token_type:
            return False
        if value is None:
            return True
        return self.value.upper() == value.upper()


_SKIP = r"(?:[ \t\r\n]+|#[^\n]*|/\*(?s:.*?)\*/)*"
# Group names are TokenType values.  ``\d`` is str.isdecimal and ``\w`` is
# str.isalnum or "_"; that an identifier *starts* with str.isalpha or "_" no
# character class can say, so tokenize checks it.
_SCAN = re.compile(
    r"(?:(?P<number>\d+(?:\.\d+)?|\.\d+)"
    r"|(?P<ident>[^\W\d][\w.\-]*)"
    r'|"(?P<string>[^"]*)"'
    r"|(?P<symbol>[<>!]=|[()\[\],;:=*+\-<>]|/(?!\*)))" + _SKIP)
_LEADING_SKIP = re.compile(_SKIP)
_TYPES = {index: TokenType(name) for name, index in _SCAN.groupindex.items()}


def tokenize(text: str) -> list[Token]:
    """Convert query text into a token stream ending with an END token."""
    tokens: list[Token] = []
    new_token, ident = tuple.__new__, TokenType.IDENT
    offset = _LEADING_SKIP.match(text).end()
    # Positions come from offsets: ``line_start`` is the offset just past the
    # last newline before the token, kept by walking the text's newlines in
    # step with the matches.
    line, line_start, newline = 1, 0, text.find("\n")
    for match in _SCAN.finditer(text, offset):
        start, index = match.start(), match.lastindex
        kind, value = _TYPES[index], match[index]
        if start != offset or (kind is ident and not (value[0].isalpha() or value[0] == "_")):
            break
        while 0 <= newline < start:
            line, line_start = line + 1, newline + 1
            newline = text.find("\n", line_start)
        tokens.append(new_token(Token, (kind, value, line, start - line_start + 1)))
        offset = match.end()
    line, column = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
    if offset == len(text):
        tokens.append(Token(TokenType.END, "", line, column))
        return tokens
    if text.startswith("/*", offset):
        message = "unterminated comment"
    elif text[offset] == '"':
        message = "unterminated string literal"
    else:
        message = f"unexpected character {text[offset]!r}"
    raise QuerySyntaxError(message, line=line, column=column)
