"""The numeric boundary: every number a caller hands the library is checked here.

NaN compares false with everything, so a hand-written ``if x <= 0: raise``
lets it through, and a NaN budget, epsilon, rho or timeout then admits,
scales or waits wrongly far from where it entered.  Each function below
accepts exactly the values its name says, returns the value unchanged, and
otherwise raises the caller's exception class with a message naming the
parameter and the offending value's ``repr``.  ``bool`` is never a number
here: ``True`` passed as a count or a duration is a caller's mistake.

A plain ``float`` or ``int`` is tested by ``type`` first: ``isinstance``
against the ``numbers`` ABCs costs about a microsecond a call, and the query
path makes a score of these calls.  Every other type (``bool``, numpy
scalars, ``Fraction``) takes the ABC path, which accepts and rejects the same
values.
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import TypeVar

T = TypeVar("T")


def real(name: str, value: T, error: type[Exception], *,
         above: float | None = None, at_least: float | None = None) -> T:
    """A finite real number, ``> above`` or ``>= at_least`` when given."""
    kind = type(value)
    if kind is float:
        finite = math.isfinite(value)
    else:
        finite = kind is int or isinstance(value, Real) and not isinstance(value, bool) \
            and (isinstance(value, Integral) or math.isfinite(value))
    if finite and (above is None or value > above) \
            and (at_least is None or value >= at_least):
        return value
    bound = f" and > {above}" if above is not None \
        else f" and >= {at_least}" if at_least is not None else ""
    raise error(f"{name} must be finite{bound}, not {value!r}")


def count(name: str, value: T, error: type[Exception], at_least: int = 0) -> T:
    """A whole number ``>= at_least``: any ``Integral`` (numpy's too) but ``bool``."""
    if (type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)) \
            and value >= at_least:
        return value
    raise error(f"{name} must be a whole number >= {at_least}, not {value!r}")


def probability(name: str, value: T, error: type[Exception]) -> T:
    """A real number in ``[0, 1]``."""
    if (type(value) in (float, int)
            or isinstance(value, Real) and not isinstance(value, bool)) and 0 <= value <= 1:
        return value
    raise error(f"{name} must be a probability in [0, 1], not {value!r}")
