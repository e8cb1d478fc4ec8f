"""The line counter (``tools/src_lines.py``): physical lines, and code lines
without blanks, comments or module, class and function docstrings."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "src_lines", Path(__file__).resolve().parents[1] / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

#: 21 physical lines, 7 of them code (each marked ``# code``).
SYNTHETIC = '''"""A module docstring
over two lines."""

# A comment alone.
import os  # code


class Thing:  # code
    """A class docstring."""

    LABEL = """a string that is not
a docstring"""  # code (two lines)

    def method(self):  # code
        """A method docstring,

        with a blank line inside."""
        return os.sep  # code


def one_liner(): """doc on the def line"""  # code
'''


def test_a_synthetic_module_is_counted_exactly():
    assert src_lines.count_lines(SYNTHETIC) == (21, 7)


def test_the_cli_prints_the_largest_modules_and_the_total(tmp_path, capsys, monkeypatch):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "big.py").write_text(SYNTHETIC)
    (tmp_path / "src" / "small.py").write_text("x = 1\n\n# done\n")
    monkeypatch.setattr(src_lines, "REPO_ROOT", tmp_path)
    assert src_lines.main(["--top", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["physical", "code", "module"],
        ["21", "7", "pkg/big.py"],
        ["24", "8", "total", "(2", "modules)"]]
