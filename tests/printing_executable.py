"""A test double a shard worker imports by name.

It lives in its own module, importing only :class:`ProcessExecutable`, so a
worker that unpickles it loads nothing else of the test suite (no pytest, no
scene generator).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sandbox.executables import ProcessExecutable


@dataclass
class PrintingExecutable(ProcessExecutable):
    """Prints ``characters`` characters to stdout per chunk and emits no row."""

    characters: int = 100_000
    name: str = "printing_executable"

    def process(self, chunk, context) -> list:
        print("x" * self.characters)
        return []
