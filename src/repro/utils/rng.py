"""Deterministic random-number management.

Reproducing the paper's experiments requires re-running queries hundreds of
times with fresh noise samples while keeping the synthetic scenes themselves
fixed.  To keep those concerns separate every component draws from its own
named stream derived from a single root seed.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.utils import checks


def _seed_from_name(root_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed from a root seed and a stream name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(root_seed: int, name: str) -> np.random.Generator:
    """Return a NumPy generator for the stream ``name`` under ``root_seed``."""
    return np.random.default_rng(_seed_from_name(root_seed, name))


class RandomSource:
    """A hierarchical source of independent random streams.

    A :class:`RandomSource` is constructed from a root seed; calling
    :meth:`stream` returns a generator that is deterministic in
    ``(root_seed, name)`` and independent of every other stream.  Child
    sources can be derived for sub-components so that, for example, the scene
    simulator and the noise mechanism never share a stream even when built
    from the same root seed.
    """

    def __init__(self, seed: int = 0, *, path: str = "") -> None:
        self.seed = int(checks.count("seed", seed, ValueError))
        self.path = path

    def stream(self, name: str) -> np.random.Generator:
        """Return an independent generator for ``name``."""
        return derive_rng(self.seed, f"{self.path}/{name}")

    def child(self, name: str) -> "RandomSource":
        """Return a child source whose streams are namespaced under ``name``."""
        return RandomSource(self.seed, path=f"{self.path}/{name}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomSource(seed={self.seed}, path={self.path!r})"
