"""Counter-based deterministic hashing for the columnar CV substrate.

The synthetic detector derives every pseudo-random decision (missed
detections, localisation jitter, confidence, attribute misreads, false
positives) from a keyed counter-based hash rather than from stateful RNG, so
the draw for a given ``(seed, stream, object, frame)`` is independent of
processing order — chunks can be executed in any order, in parallel, or
twice, and the detector output never changes.  This order-independence is the
determinism contract behind the paper's comparable private/non-private runs.

Earlier revisions paid one SHA-256-over-formatted-string per draw; this
module replaces that with splitmix64 finalisation over uint64 lanes, which
numpy evaluates for an entire chunk of frames in a handful of array ops.  A
scalar (pure-Python int) twin of every primitive is kept bit-identical to the
vectorized version so the legacy per-frame API yields exactly the same draws
as the batched path:

* a *stream key* folds the seed and the lane tokens (stream tag, hashed
  object id, attribute name, ...) into one uint64;
* the draw for counter ``i`` of a stream is ``mix64(key + i * GOLDEN)`` —
  the splitmix64 generator seeded at ``key`` and jumped directly to index
  ``i``;
* the top 53 bits of the mixed lane scale to a float in ``[0, 1)``, which is
  exact in IEEE double precision in both the scalar and the numpy path.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
#: splitmix64 stream increment (the 64-bit golden-ratio constant).
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB
#: 2**-53 — scales the top 53 bits of a mixed lane to a float in [0, 1).
_INV_2_53 = 2.0 ** -53
#: The array path's operands as numpy scalars, built once rather than per call.
_U_GOLDEN = np.uint64(GOLDEN_GAMMA)
_U_MULT_1 = np.uint64(_MIX_MULT_1)
_U_MULT_2 = np.uint64(_MIX_MULT_2)
_U_11, _U_27, _U_30, _U_31 = (np.uint64(bits) for bits in (11, 27, 30, 31))


def mix64(value: int) -> int:
    """splitmix64 finaliser of one uint64 lane (scalar twin of :func:`mix64_array`)."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_MULT_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_MULT_2) & _MASK64
    return z ^ (z >> 31)


def mix64_array(lanes: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser applied lane-wise to a uint64 array (a new array).

    Every step is an in-place operation on the array, which wraps modulo
    2**64 without a warning, a 0-d array included; only a binary operation
    whose result is a numpy *scalar* warns on overflow, so no
    ``np.errstate`` is needed (the shifts cannot overflow).
    """
    z = np.array(lanes, dtype=np.uint64)
    z ^= z >> _U_30
    z *= _U_MULT_1
    z ^= z >> _U_27
    z *= _U_MULT_2
    z ^= z >> _U_31
    return z


@lru_cache(maxsize=1 << 16)
def string_token(text: str) -> int:
    """Stable 64-bit lane token for a string (FNV-1a folded through mix64).

    Object ids and stream tags enter the key through this token, so the
    keying is a pure function of the *identifier*, never of Python object
    identity or interning.
    """
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return mix64(h)


@lru_cache(maxsize=1 << 16)
def stream_key(seed: int, *tokens: int) -> int:
    """Fold a seed and lane tokens into one stream key.

    Every token passes through a full finalisation round, so streams that
    differ in any single token (tag, object, attribute name, false-positive
    slot) are decorrelated.  Pure function of its arguments; memoized
    because the detector re-derives the same few keys for every chunk.
    """
    key = mix64(seed & _MASK64)
    for token in tokens:
        key = mix64(key ^ (token & _MASK64))
    return key


def unit_draw(key: int, index: int) -> float:
    """Scalar draw in [0, 1) for counter ``index`` of stream ``key``."""
    lane = (key + index * GOLDEN_GAMMA) & _MASK64
    return (mix64(lane) >> 11) * _INV_2_53


def _counter_lanes(indices: np.ndarray) -> np.ndarray:
    """``indices * GOLDEN_GAMMA`` as a new uint64 array of the same shape
    (in place, so a 0-d index wraps silently like a 1-d one)."""
    lanes = np.array(indices, dtype=np.uint64)
    lanes *= _U_GOLDEN
    return lanes


def unit_draws(key: int, indices: np.ndarray) -> np.ndarray:
    """Vectorized draws in [0, 1), one per counter in ``indices``.

    Bit-identical to calling :func:`unit_draw` per index: the lane is the
    same uint64 (numpy wraps modulo 2**64 exactly like the masked scalar
    path) and the float scaling is exact (a 53-bit integer converts to a
    double without rounding).
    """
    lanes = _counter_lanes(indices)
    lanes += np.uint64(key)
    return (mix64_array(lanes) >> _U_11) * _INV_2_53


def unit_draws_matrix(keys: Sequence[int] | np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Draws in [0, 1) for every (stream key, counter) pair as a (K, N) matrix.

    Row ``k`` equals ``unit_draws(keys[k], indices)`` bit-for-bit; stacking
    the streams lets a caller evaluate every draw stream of a whole chunk in
    a single mix64 pass.
    """
    lanes = np.array(keys, dtype=np.uint64)[:, np.newaxis] + _counter_lanes(indices)
    return (mix64_array(lanes) >> _U_11) * _INV_2_53
