"""The library runs on Python 3.10, the oldest version CI tests.

Three checks over every module under ``src/``, each on the module's text
rather than by running it on 3.10:

* it parses with ``ast.parse(..., feature_version=(3, 10))``;
* it does not import ``tomllib`` (3.11+);
* every ``re.compile`` pattern built from string literals (module-level
  string constants and ``+`` concatenations of them included) parses with
  no possessive quantifier and no atomic group (3.11+).  The pattern is
  parsed by the ``re`` module's own parser, not matched as text: a
  character class such as ``[*+]`` is legitimate on every version.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

try:  # Python 3.11+
    from re import _parser as sre_parse
except ImportError:  # pragma: no cover - Python 3.10
    import sre_parse  # type: ignore[no-redef]

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(SRC.rglob("*.py"))
#: Regex opcodes the 3.10 parser does not know.
NEWER_OPCODES = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def _folded(node: ast.AST, constants: dict[str, ast.AST]) -> object:
    """The value of a string or flag expression built from literals, module
    constants, ``+``/``|`` and ``re.FLAG`` names; None when it is not one."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (str, int)):
        return node.value
    if isinstance(node, ast.Name) and node.id in constants:
        return _folded(constants[node.id], constants)
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "re" and isinstance(getattr(re, node.attr, None), int)):
        return getattr(re, node.attr)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.BitOr)):
        left, right = _folded(node.left, constants), _folded(node.right, constants)
        if isinstance(node.op, ast.Add) and isinstance(left, str) and isinstance(right, str):
            return left + right
        if isinstance(node.op, ast.BitOr) and isinstance(left, int) and isinstance(right, int):
            return left | right
    return None


def compiled_patterns(tree: ast.Module) -> list[tuple[int, str, int]]:
    """``(line, pattern, flags)`` of every ``re.compile`` whose pattern folds."""
    constants = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "compile" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "re" and node.args):
            pattern = _folded(node.args[0], constants)
            flags = _folded(node.args[1], constants) if len(node.args) > 1 else 0
            if isinstance(pattern, str) and isinstance(flags, int):
                found.append((node.lineno, pattern, flags))
    return found


def opcodes(parsed) -> set[str]:
    """Names of every opcode in a parsed pattern, nested ones included."""
    names: set[str] = set()
    stack = [parsed]
    while stack:
        item = stack.pop()
        if isinstance(item, sre_parse.SubPattern):
            for opcode, argument in item:
                names.add(str(opcode))
                stack.append(argument)
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return names


def newer_syntax(tree: ast.Module) -> list[str]:
    """What in one module needs a Python newer than 3.10."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] == "tomllib"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tomllib":
            found.append(f"line {node.lineno}: from {node.module} import")
    for line, pattern, flags in compiled_patterns(tree):
        try:
            newer = sorted(opcodes(sre_parse.parse(pattern, flags)) & NEWER_OPCODES)
        except re.error as error:  # what 3.10's parser says of 3.11 syntax
            newer = [str(error)]
        if newer:
            found.append(f"line {line}: re.compile pattern needs a newer Python: {newer}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[path.relative_to(SRC).as_posix()
                                               for path in MODULES])
def test_every_module_reads_as_python_3_10(path):
    tree = ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    assert newer_syntax(tree) == []


def test_the_lexer_patterns_are_checked():
    # The front end's patterns are built from constants; they must fold.
    tree = ast.parse((SRC / "repro" / "query" / "lexer.py").read_text())
    assert len(compiled_patterns(tree)) == 2


#: (module text, the lines the check reports in it)
SAMPLES = {
    "a character class with * and +": ('import re\nP = re.compile(r"[()*+\\-]+")\n', []),
    "a possessive quantifier": ('import re\nP = re.compile("a" + "b*+")\n', ["line 2"]),
    "an atomic group in a constant": ('import re\nS = r"(?>ab)"\nP = re.compile(S, re.I)\n',
                                      ["line 3"]),
    "import tomllib": ("import tomllib\n", ["line 1"]),
    "from tomllib": ("import re\nfrom tomllib import loads\n", ["line 2"]),
}


@pytest.mark.parametrize("sample", sorted(SAMPLES))
def test_the_check_reports_exactly_the_newer_syntax(sample):
    text, lines = SAMPLES[sample]
    assert [found.split(":")[0] for found in newer_syntax(ast.parse(text))] == lines
