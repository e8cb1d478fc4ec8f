"""The documentation checker (``tools/check_docs.py``): README and docs name
only code that still exists; ROADMAP and CHANGES may name any."""

import importlib.util
import sys
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "check_docs", Path(__file__).resolve().parents[1] / "tools" / "check_docs.py")
check_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_docs)


def _tree(root: Path, docs_text: str) -> None:
    (root / "docs").mkdir()
    (root / "README.md").write_text("Start at `repro.core.remote.ShardedEngine`.\n")
    (root / "docs" / "design.md").write_text(docs_text)
    (root / "ROADMAP.md").write_text("Planned: `repro.obs`.\n")
    (root / "CHANGES.md").write_text("Deleted `repro.core.cache.shared_spec`.\n")


def test_a_stale_name_in_the_docs_fails_the_check(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    _tree(tmp_path, "Shards open `repro.core.cache.shared_spec(store)`, keyed by\n"
                    "`repro.core.cache.chunk_key`.\n")
    assert check_docs.main() == 1
    stale = [line for line in capsys.readouterr().err.splitlines() if line]
    assert stale == ["docs/design.md: stale name -> repro.core.cache.shared_spec "
                     "(does not resolve)"]


def test_live_names_pass_and_planned_ones_are_exempt(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    _tree(tmp_path, "```python\nfrom repro.gone import nothing  # fenced: not prose\n```\n"
                    "See `repro.core`, `repro.core.cache.chunk_key` and "
                    "`python -m repro.core.remote`.\n")
    assert check_docs.main() == 0
    assert "4 names, 0 broken" in capsys.readouterr().out


def test_resolution_walks_modules_then_attributes():
    assert check_docs.resolves("repro.core.engine.ChunkOutcome")
    assert check_docs.resolves("repro.core._EXPORTS")
    assert not check_docs.resolves("repro.core.engine.ChunkOutcome.cache_hit")
    assert not check_docs.resolves("repro.invariants")


def test_a_module_map_name_nothing_under_src_defines_fails_the_check(tmp_path, monkeypatch,
                                                                      capsys):
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    _tree(tmp_path, "No code names here.\n")
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        "LIMIT = 3\n\n\nclass Kept:\n    size = 1\n\n    def read(self):\n"
        "        return self.size\n")
    (tmp_path / "docs" / "architecture.md").write_text(
        "## Module map\n\n| Package | Contents |\n| --- | --- |\n"
        "| `pkg/` | `mod.py`: `Kept` (`read()`, `read`, `size`), `LIMIT`, `Gone`. |\n\n"
        "## Elsewhere\n\n| `Planned` | outside the map |\n")
    assert check_docs.main() == 1
    stale = [line for line in capsys.readouterr().err.splitlines() if line]
    assert stale == ["docs/architecture.md: stale module-map name -> Gone "
                     "(defined nowhere under src/)"]


def test_a_dangling_markdown_name_in_python_source_fails_the_check(tmp_path, monkeypatch,
                                                                    capsys):
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    _tree(tmp_path, "No code names here.\n")
    (tmp_path / "benchmarks" / "system").mkdir(parents=True)
    (tmp_path / "benchmarks" / "system" / "README.md").write_text("Workloads.\n")
    (tmp_path / "benchmarks" / "system" / "run.py").write_text(
        '"""See README.md beside me, docs/design.md and ROADMAP.md at the root,\n'
        'and never the docs/*.md glob."""\n')
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "bench.py").write_text("# substitutions: DESIGN.md §2\n")
    assert check_docs.main() == 1
    captured = capsys.readouterr()
    stale = [line for line in captured.err.splitlines() if line]
    assert stale == ["tools/bench.py: dangling markdown name -> DESIGN.md"]
    assert "4 markdown mentions" in captured.out
