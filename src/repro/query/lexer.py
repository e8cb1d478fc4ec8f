"""Scanner for the textual Privid query language (Appendix D).

The language is small: keywords, identifiers (which may contain dots, so
``model.py`` is a single token), numbers, double-quoted strings, and a
handful of symbols.  ``/* ... */`` block comments and ``#`` line comments are
skipped.

One compiled pattern is applied left to right with ``findall``: each match is
a token plus the whitespace and comments behind it, and a last alternative
takes any one character no token can start with, so the matches tile the text
and the first such character is the syntax error.  A NUMBER is decimal digits
(``str.isdecimal``: any script's, ``٣`` reads as 3) with at most one ``.``
between digits — exactly what ``float()`` accepts; ``²`` and ``½`` are
unexpected characters.

:func:`scan` builds no object per token: it returns three flat columns (kind,
value, key) ending in an END token.  A token's *key* is what the parser
compares: an identifier's value upper-cased (keywords match in any case), a
symbol itself, and ``""`` for the rest.  Only an error needs a position, so
none is kept: :func:`syntax_error` runs the same pattern again up to the
token it names and derives the line and column from that match's offset.
"""

from __future__ import annotations

import re
from itertools import islice

from repro.errors import QuerySyntaxError

IDENT, NUMBER, STRING, SYMBOL, END = "ident", "number", "string", "symbol", "end"

# Whitespace runs and comments: the same text as any mix of the three
# repeated, written whitespace-first so a run is taken in one step.
_SKIP = r"[ \t\r\n]*(?:(?:#[^\n]*|/\*(?s:.*?)\*/)[ \t\r\n]*)*"
# Groups: ident, symbol, number, string (without its quotes) and an
# unexpected character.  The alternatives start with disjoint characters, so
# their order (most frequent first) changes no result.  ``\d`` is
# str.isdecimal and ``\w`` is str.isalnum or "_"; that an identifier *starts*
# with str.isalpha or "_" no character class can say, so scan checks it.
_SCAN = re.compile(
    r"(?:([^\W\d][\w.\-]*)"
    r"|([<>!]=|[()\[\],;:=*+\-<>]|/(?!\*))"
    r"|(\d+(?:\.\d+)?|\.\d+)"
    r'|"([^"]*)"'
    r"|((?s:.)))" + _SKIP)
_LEADING_SKIP = re.compile(_SKIP)

Columns = tuple[list[str], list[str], list[str]]


def scan(text: str) -> Columns:
    """Query text as ``(kinds, values, keys)``, ending with END."""
    kinds: list[str] = []
    values: list[str] = []
    keys: list[str] = []
    kind, value, key = kinds.append, values.append, keys.append
    for ident, symbol, number, string, bad in _SCAN.findall(
            text, _LEADING_SKIP.match(text).end()):
        if ident and (ident[0].isalpha() or ident[0] == "_"):
            kind(IDENT)
            value(ident)
            key(ident.upper())
        elif symbol:
            kind(SYMBOL)
            value(symbol)
            key(symbol)
        elif number:
            kind(NUMBER)
            value(number)
            key("")
        elif not (bad or ident):
            kind(STRING)
            value(string)
            key("")
        else:
            # A lone "/" is an unclosed "/*" and a lone '"' an unclosed string:
            # closed, the skip or the string alternative would have taken them.
            char = bad or ident[0]
            raise syntax_error(text, len(kinds), "unterminated comment" if char == "/"
                               else "unterminated string literal" if char == '"'
                               else f"unexpected character {char!r}")
    kind(END)
    value("")
    key("")
    return kinds, values, keys


def syntax_error(text: str, index: int, message: str) -> QuerySyntaxError:
    """The error at ``text``'s ``index``-th token (END: the end of the text),
    located by 1-based line and column."""
    match = next(islice(_SCAN.finditer(text, _LEADING_SKIP.match(text).end()), index, None),
                 None)
    offset = len(text) if match is None else match.start()
    return QuerySyntaxError(message, line=text.count("\n", 0, offset) + 1,
                            column=offset - text.rfind("\n", 0, offset))
