"""``repro.utils.checks`` tests a plain ``float`` or ``int`` by ``type`` before
the ``numbers`` ABCs; the set of values it accepts and rejects must not move.

Two references hold it: ``oracle_*`` below are the ABC-only checks the fast
path was added to, and a ``float`` / ``int`` subclass (``type`` is not the
builtin, so it takes the ABC path inside ``checks`` itself) must get the
verdict the builtin gets.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

import numpy as np
from hypothesis import given, strategies as st

from repro.utils import checks


def oracle_real(name, value, error, *, above=None, at_least=None):
    if isinstance(value, Real) and not isinstance(value, bool) \
            and (isinstance(value, Integral) or math.isfinite(value)) \
            and (above is None or value > above) \
            and (at_least is None or value >= at_least):
        return value
    bound = f" and > {above}" if above is not None \
        else f" and >= {at_least}" if at_least is not None else ""
    raise error(f"{name} must be finite{bound}, not {value!r}")


def oracle_count(name, value, error, at_least=0):
    if isinstance(value, Integral) and not isinstance(value, bool) and value >= at_least:
        return value
    raise error(f"{name} must be a whole number >= {at_least}, not {value!r}")


def oracle_probability(name, value, error):
    if isinstance(value, Real) and not isinstance(value, bool) and 0 <= value <= 1:
        return value
    raise error(f"{name} must be a probability in [0, 1], not {value!r}")


class _Float(float):
    pass


class _Int(int):
    pass


_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                          1.0, -1.0, math.inf, -math.inf, math.nan])
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | _EDGES
INTS = st.integers() | st.booleans() | st.sampled_from([10 ** 400, -(10 ** 400)])
BOUNDS = st.none() | st.floats(allow_nan=False, allow_infinity=False) | st.integers(-5, 5)


def _verdict(check, *args, **kwargs):
    """``(accepted value, None)`` or ``(None, message)``."""
    try:
        return check(*args, **kwargs), None
    except ValueError as exc:
        return None, str(exc)


def _same(new, old):
    (value, message), (old_value, old_message) = new, old
    assert message == old_message
    assert value is old_value


@given(value=FLOATS | INTS, bound=BOUNDS, strict=st.booleans())
def test_real_matches_the_abc_path(value, bound, strict):
    bounds = {"above" if strict else "at_least": bound}
    _same(_verdict(checks.real, "x", value, ValueError, **bounds),
          _verdict(oracle_real, "x", value, ValueError, **bounds))


@given(value=FLOATS | INTS, at_least=st.integers(-5, 5))
def test_count_matches_the_abc_path(value, at_least):
    _same(_verdict(checks.count, "n", value, ValueError, at_least),
          _verdict(oracle_count, "n", value, ValueError, at_least))


@given(value=FLOATS | INTS)
def test_probability_matches_the_abc_path(value):
    _same(_verdict(checks.probability, "p", value, ValueError),
          _verdict(oracle_probability, "p", value, ValueError))


def _accepts(check, *args, **kwargs) -> bool:
    return _verdict(check, *args, **kwargs)[1] is None


@given(value=FLOATS, bound=BOUNDS)
def test_a_float_and_its_slow_path_twins_agree(value, bound):
    # ``_Float`` and ``np.float64`` are floats whose type is not ``float``.
    for twin in (_Float(value), np.float64(value)):
        assert _accepts(checks.real, "x", twin, ValueError, above=bound) \
            == _accepts(checks.real, "x", value, ValueError, above=bound)
        assert _accepts(checks.probability, "p", twin, ValueError) \
            == _accepts(checks.probability, "p", value, ValueError)
        assert _accepts(checks.count, "n", twin, ValueError) \
            == _accepts(checks.count, "n", value, ValueError)


@given(value=st.integers(-(2 ** 62), 2 ** 62), at_least=st.integers(-5, 5))
def test_an_int_and_its_slow_path_twins_agree(value, at_least):
    for twin in (_Int(value), np.int64(value)):
        assert _accepts(checks.count, "n", twin, ValueError, at_least) \
            == _accepts(checks.count, "n", value, ValueError, at_least)
        assert _accepts(checks.real, "x", twin, ValueError, at_least=at_least) \
            == _accepts(checks.real, "x", value, ValueError, at_least=at_least)
        assert _accepts(checks.probability, "p", twin, ValueError) \
            == _accepts(checks.probability, "p", value, ValueError)


def test_bool_is_never_a_number_on_either_path():
    for check in (lambda v: checks.real("x", v, ValueError),
                  lambda v: checks.count("n", v, ValueError),
                  lambda v: checks.probability("p", v, ValueError)):
        for value in (True, False, np.bool_(True)):
            assert _verdict(check, value)[1] is not None
