"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/system/run.py``.

Started as a script from the root of a checkout, so it puts the checkout and
its ``src/`` on ``sys.path`` itself; in a directory without the program it
fails on the first ``repro`` import, prints no result and exits non-zero.
"""

from __future__ import annotations

import sys
from pathlib import Path


def entry() -> int:
    root = Path(__file__).resolve().parents[2]
    for path in (root / "src", root):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from benchmarks.system.cli import main

    return main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(entry())
