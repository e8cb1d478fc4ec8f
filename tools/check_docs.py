#!/usr/bin/env python3
"""Check that documentation links and code names resolve.

Scans the repo-root markdown files and ``docs/*.md`` for markdown links and
verifies that every *relative* target exists — including ``#anchor``
fragments, which must match a heading (GitHub slugification) in the target
file.  External ``http(s)://`` links are not fetched (CI must not depend on
the network); ``mailto:`` links are skipped.

``README.md`` and ``docs/*.md`` must also name only live code: every dotted
``repro.…`` name inside an inline code span must import (the library is
loaded from ``src/``) and resolve attribute by attribute, so a deleted
function left in the prose fails here.  The module map of
``docs/architecture.md`` names code bare (``PrividSystem``, ``_holdings``):
every inline code span there that is one identifier must be a package,
module, function, class or method under ``src/``, or a name a module or
class body assigns.  ``ROADMAP.md`` and ``CHANGES.md`` are exempt — they
name planned and deleted code on purpose.

Python files under ``src/``, ``benchmarks/``, ``tools/`` and ``examples/``
must name only markdown files that exist: every markdown file name in one
(``README.md``, ``docs/benchmarks.md``) must resolve beside the file or
under the repo root.

Exit status 0 when every link and name resolves, 1 otherwise (with one line
per broken one).  Run from anywhere: paths are resolved against the repo root.

Usage: ``python tools/check_docs.py``
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown inline links: [text](target) — tolerates titles after a space.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: Fenced code blocks, removed before link extraction.
_FENCE = re.compile(r"```.*?```", re.DOTALL)
#: Inline code spans, removed before link extraction.
_CODE = re.compile(r"`[^`]*`")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
#: A dotted name of this library (``repro.core.cache.chunk_key``).
_NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
#: One identifier, the whole of a code span (``PrividSystem``).
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
#: The document holding the module map, and the map's heading.
MODULE_MAP = ("docs/architecture.md", "## Module map")
#: A markdown file named in Python source (``README.md``, ``docs/benchmarks.md``).
_MARKDOWN_NAME = re.compile(r"[\w./-]*\w\.md\b")
#: The directories whose Python files are checked for markdown names.
SOURCE_DIRS = ("src", "benchmarks", "tools", "examples")


def github_slug(heading: str) -> str:
    """The anchor GitHub generates for a heading."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\s-]", "", text)
    return re.sub(r"\s+", "-", text)


def heading_slugs(path: Path) -> set[str]:
    """Every heading anchor of a markdown file (duplicate suffixes included)."""
    slugs: set[str] = set()
    counts: dict[str, int] = {}
    for match in _HEADING.finditer(path.read_text(encoding="utf-8")):
        slug = github_slug(match.group(1))
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        slugs.add(slug if seen == 0 else f"{slug}-{seen}")
    return slugs


def iter_links(path: Path):
    text = _CODE.sub("", _FENCE.sub("", path.read_text(encoding="utf-8")))
    for match in _LINK.finditer(text):
        yield match.group(1)


def check_file(path: Path) -> list[str]:
    errors: list[str] = []
    for target in iter_links(path):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, anchor = target.partition("#")
        resolved = path if not base else (path.parent / base).resolve()
        if not resolved.exists():
            errors.append(f"{path.relative_to(REPO_ROOT)}: broken link "
                          f"-> {target} (no such path)")
            continue
        if anchor:
            if resolved.is_dir() or resolved.suffix.lower() != ".md":
                errors.append(f"{path.relative_to(REPO_ROOT)}: anchor link "
                              f"-> {target} targets a non-markdown path")
            elif anchor not in heading_slugs(resolved):
                errors.append(f"{path.relative_to(REPO_ROOT)}: broken anchor "
                              f"-> {target} (no heading '#{anchor}')")
    return errors


def iter_names(path: Path):
    """Every dotted ``repro.…`` name inside an inline code span."""
    text = _FENCE.sub("", path.read_text(encoding="utf-8"))
    for span in _CODE.finditer(text):
        yield from _NAME.findall(span.group(0))


def resolves(name: str) -> bool:
    """Whether ``name`` is a module, or a chain of attributes under one."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name is not None and module_name.startswith(exc.name):
                continue  # not a module: try it as an attribute
            raise
        for attribute in parts[split:]:
            try:
                target = getattr(target, attribute)
            except AttributeError:
                return False
        return True
    return False


def check_names(path: Path) -> list[str]:
    return [f"{path.relative_to(REPO_ROOT)}: stale name -> {name} (does not resolve)"
            for name in sorted(set(iter_names(path))) if not resolves(name)]


def defined_names(src: Path) -> set[str]:
    """Every package, module, function, class and method name under ``src``,
    and every name a module or class body assigns."""
    names: set[str] = set()
    for path in src.rglob("*.py"):
        names.update(path.relative_to(src).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bodies = [tree.body]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
                if isinstance(node, ast.ClassDef):
                    bodies.append(node.body)
        for statement in (statement for body in bodies for statement in body):
            if isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = (statement.targets if isinstance(statement, ast.Assign)
                           else [statement.target])
                names.update(node.id for target in targets for node in ast.walk(target)
                             if isinstance(node, ast.Name))
    return names


def check_module_map(path: Path, heading: str) -> tuple[int, list[str]]:
    """How many bare identifiers the table under ``heading`` names, and one
    error per identifier nothing under ``src/`` defines."""
    text = _FENCE.sub("", path.read_text(encoding="utf-8"))
    start = text.find(heading)
    if start < 0:
        return 0, [f"{path.relative_to(REPO_ROOT)}: no '{heading}' section"]
    end = text.find("\n## ", start + len(heading))
    rows = [line for line in text[start:end if end >= 0 else None].splitlines()
            if line.startswith("|")]
    names = {span.group(0)[1:-1] for row in rows for span in _CODE.finditer(row)}
    names = sorted(name for name in names if _IDENTIFIER.fullmatch(name))
    defined = defined_names(REPO_ROOT / "src")
    return len(names), [f"{path.relative_to(REPO_ROOT)}: stale module-map name -> {name} "
                        "(defined nowhere under src/)" for name in names if name not in defined]


def check_markdown_names(path: Path) -> tuple[int, list[str]]:
    """How many markdown names the Python file ``path`` holds, and one error
    per name that exists neither beside the file nor under the repo root."""
    names = sorted(set(_MARKDOWN_NAME.findall(path.read_text(encoding="utf-8"))))
    return len(names), [f"{path.relative_to(REPO_ROOT)}: dangling markdown name -> {name}"
                        for name in names
                        if not (path.parent / name).exists()
                        and not (REPO_ROOT / name).exists()]


def main() -> int:
    documents = sorted(REPO_ROOT.glob("*.md")) + sorted((REPO_ROOT / "docs").glob("*.md"))
    if not documents:
        print("check_docs: no markdown files found", file=sys.stderr)
        return 1
    sys.path.insert(0, str(REPO_ROOT / "src"))
    errors: list[str] = []
    links = names = 0
    for document in documents:
        links += sum(1 for _ in iter_links(document))
        errors.extend(check_file(document))
        if document.name == "README.md" or document.parent.name == "docs":
            names += len(set(iter_names(document)))
            errors.extend(check_names(document))
    module_map, heading = REPO_ROOT / MODULE_MAP[0], MODULE_MAP[1]
    if module_map.exists():
        mapped, stale = check_module_map(module_map, heading)
        names += mapped
        errors.extend(stale)
    mentions = 0
    for directory in SOURCE_DIRS:
        for source in sorted((REPO_ROOT / directory).rglob("*.py")):
            found, dangling = check_markdown_names(source)
            mentions += found
            errors.extend(dangling)
    for error in errors:
        print(error, file=sys.stderr)
    print(f"check_docs: {len(documents)} files, {links} links, "
          f"{mentions} markdown mentions, {names} names, {len(errors)} broken")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
