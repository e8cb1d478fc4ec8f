#!/usr/bin/env python3
"""Count the lines of every module under ``src/``: physical and code.

A *code line* is one that holds a token of code: not blank, not a comment
alone, and not part of a module, class or function docstring (docstrings
are found with :mod:`ast`, tokens with :mod:`tokenize`).  A line inside any
other multi-line string is code, since it belongs to a statement.

Prints one row per module, largest first, then the total.  Stdlib only;
run from anywhere (paths resolve against the repo root):

    python tools/src_lines.py            # every module
    python tools/src_lines.py --top 10   # the ten largest, and the total
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Tokens that never make a line a code line.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """Where each module, class and function docstring begins (row, col)."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count_lines(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source text."""
    docstrings = _docstring_starts(ast.parse(source))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE or (token.type == tokenize.STRING
                                       and token.start in docstrings):
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, metavar="N",
                        help="list only the N largest modules")
    args = parser.parse_args(argv)
    if args.top is not None and args.top < 1:
        parser.error("--top must be at least 1")
    root = REPO_ROOT / "src"
    rows = sorted(((*count_lines(path.read_text(encoding="utf-8")),
                    path.relative_to(root).as_posix())
                   for path in root.rglob("*.py")),
                  key=lambda row: (-row[0], -row[1], row[2]))
    print(f"{'physical':>9} {'code':>7}  module")
    for physical, code, name in rows[:args.top]:
        print(f"{physical:>9,} {code:>7,}  {name}")
    print(f"{sum(row[0] for row in rows):>9,} {sum(row[1] for row in rows):>7,}  "
          f"total ({len(rows)} modules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
