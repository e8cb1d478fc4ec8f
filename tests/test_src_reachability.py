"""Every module-level function and class in ``src/`` has a caller outside
``tests/``.

The scan reads the AST of every Python file under ``src/``, ``benchmarks/``,
``tools/`` and ``examples/`` and collects the identifiers they name: names,
attribute names, imported names and the identifiers inside string constants
that are not docstrings (``_EXPORTS`` tables and ``python -c`` command lines
name things in strings).  A definition's own body does not count as a caller
of itself.  A definition nothing names is code only tests reach: delete it,
move it under ``tests/``, or list it in ``KEEP`` with the reason it stays.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
CALLER_ROOTS = ("src", "benchmarks", "tools", "examples")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Definitions that stay although only tests reach them, each with its reason.
KEEP = {
    "repro/sandbox/executables.py": {
        "CrashingExecutable": "sandbox test double: the crash fallback's only trigger",
        "SlowExecutable": "sandbox test double: the TIMEOUT fallback's only trigger",
        "RowFloodExecutable": "sandbox test double: the max_rows truncation's only trigger",
        "ConstantExecutable": "sandbox test double: rows a shard can import by name",
    },
    "repro/relational/expressions.py": {
        "Comparison": "predicate of plan.Selection, kept with it (ROADMAP: wire WHERE or "
                      "delete both)",
        "LogicalAnd": "as Comparison",
        "LogicalOr": "as Comparison",
        "LogicalNot": "as Comparison",
    },
    "repro/scene/objects.py": {
        "max_appearance_count_of": "Definition 5.1's ground-truth K, beside max_duration_of",
    },
}


def _docstring_nodes(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                found.add(id(body[0].value))
    return found


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """Every identifier the file names, with the line it is named on."""
    docstrings = _docstring_nodes(tree)
    named = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            named.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            named.extend((part, node.lineno) for part in node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            named.extend((word, node.lineno) for word in _IDENTIFIER.findall(node.value))
    return named


def _definitions(tree: ast.Module) -> list[ast.stmt]:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


@functools.lru_cache(maxsize=None)
def _scan(repo_root: Path) -> tuple[dict[Path, ast.Module], dict[str, list[tuple[Path, int]]]]:
    """Every caller file's tree, and per identifier where the callers name it."""
    trees = {}
    for root in CALLER_ROOTS:
        for path in sorted((repo_root / root).rglob("*.py")):
            trees[path] = ast.parse(path.read_text(), filename=str(path))
    named: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            named.setdefault(name, []).append((path, line))
    return trees, named


def unreached() -> list[str]:
    """``module::name`` of every module-level definition in ``src/`` that no
    caller outside ``tests/`` names and ``KEEP`` does not list."""
    trees, named = _scan(REPO_ROOT)
    missing = []
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        module = path.relative_to(SRC).as_posix()
        for node in _definitions(tree):
            first = min([node.lineno] + [decorator.lineno for decorator in node.decorator_list])
            outside = [(where, line) for where, line in named.get(node.name, ())
                       if where != path or not first <= line <= node.end_lineno]
            if not outside and node.name not in KEEP.get(module, {}):
                missing.append(f"{module}::{node.name}")
    return missing


def test_every_src_definition_has_a_caller_outside_tests():
    missing = unreached()
    assert not missing, ("only tests reach these definitions; delete them, move them "
                         f"under tests/ or add them to KEEP with a reason: {missing}")


def test_every_kept_definition_is_still_only_reached_by_tests(monkeypatch):
    # A stale entry would hide a future deletion: each kept name must still
    # be defined, and must still need its entry.
    kept = [f"{module}::{name}" for module, names in KEEP.items() for name in names]
    monkeypatch.setitem(globals(), "KEEP", {})
    assert set(kept) <= set(unreached())


#: (file, text) of one caller, and whether it reaches ``target`` in
#: ``src/pkg/mod.py``.
CALLERS = {
    "its own body": ("src/pkg/mod.py", "", False),
    "a docstring": ("src/pkg/other.py", '"""Calls target() for you."""\n', False),
    "a comment": ("tools/run.py", "# target()\n", False),
    "tests only": ("tests/test_mod.py", "from pkg.mod import target\ntarget(1)\n", False),
    "another src module": ("src/pkg/other.py", "from pkg.mod import target\n", True),
    "a tools import": ("tools/run.py", "from pkg.mod import target\ntarget(1)\n", True),
    "an attribute in an example": ("examples/demo.py", "import pkg.mod\npkg.mod.target(1)\n",
                                   True),
    "a string table": ("src/pkg/__init__.py", "EXPORTS = {'target': 'pkg.mod'}\n", True),
    "a command line": ("benchmarks/run.py", "CMD = 'from pkg.mod import target; target(0)'\n",
                       True),
}


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_only_a_caller_outside_tests_and_outside_the_body_reaches(tmp_path, monkeypatch, caller):
    where, text, reaches = CALLERS[caller]
    files = {"src/pkg/mod.py": ('"""The module."""\n\n\n'
                                "def target(n):\n"
                                "    return target(n - 1) if n else 0\n"),
             **({where: text} if text else {})}
    for name, body in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(body)
    monkeypatch.setitem(globals(), "REPO_ROOT", tmp_path)
    monkeypatch.setitem(globals(), "SRC", tmp_path / "src")
    assert unreached() == ([] if reaches else ["pkg/mod.py::target"])
