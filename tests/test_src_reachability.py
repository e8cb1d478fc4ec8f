"""Every function, class and method in ``src/`` has a caller outside
``tests/``.

The scan reads the AST of every Python file under ``src/``, ``benchmarks/``,
``tools/`` and ``examples/`` and collects the identifiers they name: names,
attribute names, imported names and every string constant that is not a
docstring and is one whole identifier (``getattr``/``setattr`` and the
tracer's patch tables name things that way).  A name that is one word of a
longer text — a span label such as ``"sandbox.run_chunk"``, an error
message, a command line — names nothing.  A definition's own body does not
count as a caller of itself.

Two kinds of definition are checked:

* a module-level function or class is reached by any naming of it;
* a non-dunder method, property or nested class (at any depth of class
  bodies, keyed ``Class.name``) is reached only by an attribute reference
  (``x.name``) or a string: nothing reaches a method by a bare name, so a
  same-named local variable or function does not keep it.  A ``self.name``
  or ``cls.name`` reference inside a class reaches only that class's own
  family — the class, its bases and its subclasses, by class name — so an
  attribute one class assigns to itself keeps no other class's method.

A re-export is not a caller: an ``__all__`` entry names what a module offers,
and a package ``__init__.py``'s imports and strings (its ``_EXPORTS`` table)
only forward a name to its module.  A definition nothing else names is code
only tests reach: delete it, move it under ``tests/``, or list it in ``KEEP``
with the reason it stays.

Beside it, an import guard: no module under ``src/``, ``tools/``, ``tests/``
or ``examples/`` imports a name it never reads.  A name counts as read where
the module loads it or names it in a string that is not a docstring, since a
``TYPE_CHECKING`` import is used only in quoted annotations.  A package
``__init__.py`` (whose imports re-export) and ``from __future__`` are skipped.
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
IMPORT_ROOTS = ("src", "tools", "tests", "examples")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Definitions that stay although only tests reach them, each with its reason.
KEEP = {
    "repro/sandbox/executables.py": {
        "CrashingExecutable": "sandbox test double: the crash fallback's only trigger",
        "SlowExecutable": "sandbox test double: the TIMEOUT fallback's only trigger",
        "RowFloodExecutable": "sandbox test double: the max_rows truncation's only trigger",
        "ConstantExecutable": "sandbox test double: rows a shard can import by name",
    },
    "repro/scene/objects.py": {
        "max_appearance_count_of": "Definition 5.1's ground-truth K, beside max_duration_of",
        "SceneObject.is_bounded_by": "Definition 5.1's ground truth: is this object "
                                     "(rho, K)-bounded",
        "SceneObject.tightest_bound": "Definition 5.1's ground truth: the smallest (rho, K) "
                                      "that bounds this object",
        "SceneObject.is_private": "state tests read: is this object a protected individual",
        "SceneObject.attributes_at": "the scalar oracle's per-instant attribute read "
                                     "(tests/scalar_oracle.py)",
    },
    "repro/core/executor.py": {
        "PrividSystem.register_executable": "public API: the owner registers a PROCESS "
                                            "executable by name",
        "CameraRegistration.epsilon_budget": "state tests read: the camera's per-frame budget",
    },
    "repro/service.py": {
        "QueryService.register_executable": "public API: PrividSystem.register_executable "
                                            "on a shared service",
    },
    "repro/core/resilience.py": {
        "CancellationToken.cancel": "public API: the handle a submit(cancel=) caller "
                                    "cancels with",
    },
    "repro/core/noise.py": {
        "LaplaceMechanism.confidence_interval": "ROADMAP item 11: the error bar of a release",
    },
    "repro/core/faults.py": {
        "FaultInjector.op_count": "state tests read: how many operations a site saw",
    },
    "repro/core/result.py": {
        "QueryResult.num_releases": "state tests read: how many values a query released",
    },
    "repro/cv/tracker.py": {
        "TrackView.track_id": "the tracker parity oracle's read: a track's identity "
                              "(tests/scalar_oracle.py)",
    },
    "repro/cv/detector.py": {
        "DetectionBatch.num_detections": "state tests read: a batch's detection count",
    },
    "repro/relational/table.py": {
        "Table.num_rows": "state tests read: a table's row count",
    },
    "repro/video/video.py": {
        "FrameBatch.total_visible": "state tests read: ground-truth visible objects in a batch",
        "SyntheticVideo.frame_index_at": "state tests read: the frame a timestamp falls in",
    },
}


def _strings_skipped(tree: ast.Module, package_init: bool) -> set[int]:
    """ids of the string constants that name nothing: docstrings, ``__all__``
    entries, and every string of a package ``__init__`` (its export table)."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFINITION)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                skipped.add(id(body[0].value))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
                skipped.update(id(constant) for constant in ast.walk(node.value))
        elif package_init and isinstance(node, ast.Constant):
            skipped.add(id(node))
    return skipped


def _references(tree: ast.Module, package_init: bool
                ) -> list[tuple[str, int, bool, str | None]]:
    """Every identifier the file names: ``(name, line, reaches_a_member,
    owner)``, where ``owner`` is the enclosing class of a ``self.name`` or
    ``cls.name`` reference (None for any other).

    Only an attribute reference or a string can reach a method; a package
    ``__init__``'s imports re-export and reach nothing.
    """
    skipped = _strings_skipped(tree, package_init)
    owners = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for inner in ast.walk(node):
                if (isinstance(inner, ast.Attribute) and isinstance(inner.value, ast.Name)
                        and inner.value.id in ("self", "cls")):
                    owners[id(inner)] = node.name  # the innermost class walks last
    named = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.append((node.id, node.lineno, False, None))
        elif isinstance(node, ast.Attribute):
            named.append((node.attr, node.lineno, True, owners.get(id(node))))
        elif isinstance(node, ast.alias) and not package_init:
            named.extend((part, node.lineno, False, None) for part in node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skipped and _IDENTIFIER.fullmatch(node.value)):
            named.append((node.value, node.lineno, True, None))
    return named


def _families(trees) -> dict[str, set[str]]:
    """Class name -> the names of the class, its bases and its subclasses
    (transitively), over every class the caller files define."""
    bases: dict[str, set[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in node.bases if isinstance(base, (ast.Name, ast.Attribute)))

    def closure(start: str, step) -> set[str]:
        found, frontier = set(), [start]
        while frontier:
            for name in step(frontier.pop()):
                if name not in found:
                    found.add(name)
                    frontier.append(name)
        return found

    def subclasses(name: str) -> set[str]:
        return {child for child, parents in bases.items() if name in parents}

    return {name: {name} | closure(name, lambda each: bases.get(each, ()))
            | closure(name, subclasses) for name in bases}


def _definitions(tree: ast.Module):
    """``(key, node, is_member)`` of every module-level definition and every
    non-dunder definition in a class body, nested classes included."""
    found = []

    def members(owner: str, body: list[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, _DEFINITION) and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                found.append((f"{owner}.{node.name}", node, True))
                if isinstance(node, ast.ClassDef):
                    members(f"{owner}.{node.name}", node.body)

    for node in tree.body:
        if isinstance(node, _DEFINITION):
            found.append((node.name, node, False))
            if isinstance(node, ast.ClassDef):
                members(node.name, node.body)
    return found


@functools.lru_cache(maxsize=None)
def _scan(repo_root: Path):
    """Every caller file's tree, and per identifier where the callers name it."""
    trees = {}
    for root in CALLER_ROOTS:
        for path in sorted((repo_root / root).rglob("*.py")):
            trees[path] = ast.parse(path.read_text(), filename=str(path))
    named: dict[str, list[tuple[Path, int, bool, str | None]]] = {}
    for path, tree in trees.items():
        for name, line, member, owner in _references(tree, path.name == "__init__.py"):
            named.setdefault(name, []).append((path, line, member, owner))
    return trees, named, _families(trees.values())


def unreached() -> list[str]:
    """``module::name`` (``module::Class.name`` for a member) of every
    definition in ``src/`` that no caller outside ``tests/`` reaches and
    ``KEEP`` does not list."""
    trees, named, families = _scan(REPO_ROOT)
    missing = []
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        module = path.relative_to(SRC).as_posix()
        for key, node, is_member in _definitions(tree):
            first = min([node.lineno] + [decorator.lineno for decorator in node.decorator_list])
            defining_class = key.split(".")[-2] if is_member else None
            outside = [where for where, line, reaches_member, owner in named.get(node.name, ())
                       if (reaches_member or not is_member)
                       and (owner is None or not is_member
                            or defining_class in families.get(owner, {owner}))
                       and (where != path or not first <= line <= node.end_lineno)]
            if not outside and key not in KEEP.get(module, {}):
                missing.append(f"{module}::{key}")
    return missing


def test_every_src_definition_has_a_caller_outside_tests():
    missing = unreached()
    assert not missing, ("only tests reach these definitions; delete them, move them "
                         f"under tests/ or add them to KEEP with a reason: {missing}")


def test_every_kept_definition_is_still_only_reached_by_tests(monkeypatch):
    # A stale entry would hide a future deletion: each kept name (a
    # ``Class.method`` key included) must still be defined, and must still
    # need its entry.
    kept = [f"{module}::{name}" for module, names in KEEP.items() for name in names]
    monkeypatch.setitem(globals(), "KEEP", {})
    assert set(kept) <= set(unreached())


#: The module every ``CALLERS`` case is scanned against: a function, a class
#: and the class's method, each naming itself in its own body.
MODULE = ('"""The module."""\n\n\n'
          "def target(n):\n"
          "    return target(n - 1) if n else 0\n\n\n"
          "class Holder:\n"
          "    def member(self, n):\n"
          "        return self.member(n - 1) if n else Holder\n")
DEFINED = ("target", "Holder", "Holder.member")

#: (file, text) of one caller, and the definitions of ``src/pkg/mod.py`` it
#: reaches.
CALLERS = {
    "its own body": ("src/pkg/mod.py", "", ()),
    "a docstring": ("src/pkg/other.py", '"""Calls target() and x.member()."""\n', ()),
    "a comment": ("tools/run.py", "# target(); Holder().member()\n", ()),
    "tests only": ("tests/test_mod.py",
                   "from pkg.mod import Holder, target\ntarget(1)\nHolder().member(1)\n", ()),
    "another src module": ("src/pkg/other.py", "from pkg.mod import target\n", ("target",)),
    "a tools import": ("tools/run.py", "from pkg.mod import target\ntarget(1)\n", ("target",)),
    "an attribute in an example": ("examples/demo.py", "import pkg.mod\npkg.mod.target(1)\n",
                                   ("target",)),
    "a command line": ("benchmarks/run.py", "CMD = 'from pkg.mod import target; target(0)'\n",
                       ()),
    "a span label": ("benchmarks/run.py", "wrap('pkg.member', 'target failed')\n", ()),
    "a whole-identifier string": ("benchmarks/run.py", "PATCH = [('target', 'member')]\n",
                                  ("target", "Holder.member")),
    "an attribute call in tools": ("tools/run.py",
                                   "from pkg.mod import Holder\nHolder().member(1)\n",
                                   ("Holder", "Holder.member")),
    "a getattr string": ("benchmarks/run.py", "getattr(object(), 'member')\n",
                         ("Holder.member",)),
    "a bare same-named name": ("tools/run.py", "def member(n):\n    return n\nmember(1)\n", ()),
    "an __all__ entry": ("src/pkg/other.py", "__all__ = ['target', 'Holder']\n", ()),
    "a package __init__ import": ("src/pkg/__init__.py", "from pkg.mod import Holder, target\n",
                                  ()),
    "a string table": ("src/pkg/__init__.py", "EXPORTS = {'target': 'pkg.mod'}\n", ()),
    "another class's own attribute": ("tools/run.py",
                                      "class Other:\n    def __init__(self):\n"
                                      "        self.member = []\n", ()),
    "a subclass's self reference": ("tools/run.py",
                                    "from pkg.mod import Holder\n\n\nclass Sub(Holder):\n"
                                    "    def run(self):\n        return self.member(1)\n",
                                    ("Holder", "Holder.member")),
}


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_only_a_caller_outside_tests_and_outside_the_body_reaches(tmp_path, monkeypatch, caller):
    where, text, reached = CALLERS[caller]
    files = {"src/pkg/mod.py": MODULE, **({where: text} if text else {})}
    for name, body in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(body)
    monkeypatch.setitem(globals(), "REPO_ROOT", tmp_path)
    monkeypatch.setitem(globals(), "SRC", tmp_path / "src")
    assert unreached() == [f"pkg/mod.py::{key}" for key in DEFINED if key not in reached]


def unread_imports() -> list[str]:
    """``path::name`` of every name a module under ``IMPORT_ROOTS`` binds by
    an import and never reads (package ``__init__`` files and ``from
    __future__`` aside)."""
    unread = []
    for root in IMPORT_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            read, strings, docstrings, bound = set(), [], set(), []
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    strings.append(node)
                elif isinstance(node, ast.Import):
                    bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    bound += [alias.asname or alias.name for alias in node.names
                              if alias.name != "*"]
                if (isinstance(node, (ast.Module, *_DEFINITION)) and node.body
                        and isinstance(node.body[0], ast.Expr)):
                    docstrings.add(id(node.body[0].value))
            read.update(word for node in strings if id(node) not in docstrings
                        for word in _IDENTIFIER.findall(node.value))
            unread += [f"{path.relative_to(REPO_ROOT).as_posix()}::{name}"
                       for name in bound if name not in read]
    return unread


def test_no_module_imports_a_name_it_never_reads():
    unread = unread_imports()
    assert not unread, f"delete these imports; nothing in their module reads them: {unread}"


#: (file, text) of one module, and the names the import guard reports in it.
IMPORTS = {
    "an unread import": ("tools/run.py", "import os\n", ("os",)),
    "an unread alias": ("src/pkg/mod.py", "from json import dumps as encode\n", ("encode",)),
    "a call": ("src/pkg/mod.py", "import os\nos.getcwd()\n", ()),
    "a dotted import": ("examples/demo.py", "import os.path\nos.path.join('a')\n", ()),
    "a quoted annotation": ("src/pkg/mod.py",
                            "from typing import TYPE_CHECKING\n"
                            "if TYPE_CHECKING:\n    from pkg.other import Thing\n"
                            "def take(thing: 'Thing') -> None:\n    pass\n", ()),
    "a string constant": ("tests/test_mod.py", "import json\nCMD = 'json.dumps(1)'\n", ()),
    "a docstring only": ("tests/test_mod.py", '"""Reads os."""\nimport os\n', ("os",)),
    "one of two": ("tools/run.py", "from os import getcwd, sep\ngetcwd()\n", ("sep",)),
    "from __future__": ("src/pkg/mod.py", "from __future__ import annotations\n", ()),
    "a package __init__": ("src/pkg/__init__.py", "from pkg.mod import target\n", ()),
}


@pytest.mark.parametrize("module", sorted(IMPORTS))
def test_the_import_guard_reports_exactly_the_unread_names(tmp_path, monkeypatch, module):
    where, text, unread = IMPORTS[module]
    (tmp_path / where).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / where).write_text(text)
    monkeypatch.setitem(globals(), "REPO_ROOT", tmp_path)
    assert unread_imports() == [f"{where}::{name}" for name in unread]
