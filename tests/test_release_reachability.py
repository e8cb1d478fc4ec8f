"""Which raw values can a floating-point Laplace release have come from?

A numeric release is ``float(value) + rng.laplace(0, b)``.  numpy draws
``U = next_double()`` on the 2⁻⁵³ grid (rejecting 0) and returns
``0.0 + b·log(U + U)`` below ½ and ``0.0 − b·log(2.0 − U − U)`` from ½.
Each branch is monotone in U, so whether a release ``x`` is reachable from
raw ``v`` is decided exactly by a binary search of the grid on each branch.

Mironov ("On Significance of the Least Significant Bits for Differential
Privacy", CCS 2012) showed that the doubles reachable from ``v`` and from
``v + Δ`` differ, so one release can rule out a neighbouring video whatever
ε is.  The plain tests check the helper; the privacy test states the
property and is expected to fail until ROADMAP item 11 replaces the
mechanism.
"""

import math

import pytest

from repro.core.noise import LaplaceMechanism
from repro.utils.rng import RandomSource

SENSITIVITY, EPSILON = 1.0, 0.5  # a COUNT: Δ = 1
SCALE = SENSITIVITY / EPSILON
RELEASES = 2_000
_GRID = 2.0 ** -53  # numpy's next_double: k · 2⁻⁵³
_HALF = 2 ** 52  # the first k with U >= ½


def _noise(u: float) -> float:
    """numpy's Laplace noise for one uniform draw ``u`` (loc 0, scale b)."""
    if u >= 0.5:
        return 0.0 - SCALE * math.log(2.0 - u - u)
    return 0.0 + SCALE * math.log(u + u)


def reachable(x: float, raw: float) -> bool:
    """True when some draw on the grid releases exactly ``x`` from ``raw``."""
    for low, high in ((1, _HALF - 1), (_HALF, 2 ** 53 - 1)):
        # The smallest k of the branch whose release is at least x.
        while low < high:
            middle = (low + high) // 2
            if float(raw) + _noise(middle * _GRID) < x:
                low = middle + 1
            else:
                high = middle
        if float(raw) + _noise(low * _GRID) == x:
            return True
    return False


@pytest.fixture(scope="module")
def releases() -> list[float]:
    mechanism = LaplaceMechanism(seed=20)
    return [mechanism.add_noise(0, SENSITIVITY, EPSILON) for _ in range(RELEASES)]


def test_the_noise_is_numpys_formula_on_the_same_draws():
    source = RandomSource(20)
    laplace = source.stream("laplace-mechanism").laplace(0.0, SCALE, size=20_000)
    uniform = source.stream("laplace-mechanism").random(size=20_000)
    assert [float(value) for value in laplace] == [_noise(float(u)) for u in uniform]


def test_every_release_is_reachable_from_its_own_raw_value(releases):
    assert sum(reachable(x, 0) for x in releases) == RELEASES


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 11: floating-point Laplace leaks through its low bits "
    "(Mironov, 'On Significance of the Least Significant Bits for "
    "Differential Privacy', CCS 2012)"))
def test_no_release_rules_out_the_neighbouring_raw_value(releases):
    unreachable = [x for x in releases if not reachable(x, 0 + SENSITIVITY)]
    assert unreachable == [], f"{len(unreachable)} of {RELEASES} releases " \
        "from raw 0 cannot come from raw 1"
