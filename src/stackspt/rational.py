"""Exact extended-rational scalars.

Finite quantities are plain ``int`` / ``fractions.Fraction`` values, so ordinary
arithmetic stays exact and native-speed.  The module adds two totally ordered
infinities, ``INF`` and ``NEG_INF``, for distances that do not exist (an
unreachable vertex, a coordinate with no competing route).  Mixed expressions
behave as expected (``x + INF == INF``, ``NEG_INF < x < INF`` for every finite
``x``) and the one genuinely undefined combination, ``INF - INF``, raises
``UndefinedOperationError`` instead of producing garbage.

Floats are deliberately rejected everywhere: every quantity in this package is
exact.

``parse_scalar`` accepts only the spellings ``_SCALAR_RE`` matches.  A literal
with neither ``.`` nor ``/`` is converted by ``int`` directly, which gives the
value ``Fraction`` would at a fraction of the cost; decimals and ratios go
through ``Fraction``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .errors import UndefinedOperationError

__all__ = [
    "Scalar",
    "ExtScalar",
    "INF",
    "NEG_INF",
    "Infinity",
    "is_finite",
    "ensure_scalar",
    "parse_scalar",
    "format_scalar",
]

FINITE_TYPES = (int, Fraction)

# integer, decimal, or ratio literal; the only accepted spellings
_SCALAR_RE = re.compile(r"^[+-]?\d+(?:\.\d+|/\d+)?$")


class Infinity:
    """Signed infinity, comparable with int and Fraction.

    Only the two module-level singletons ``INF`` and ``NEG_INF`` exist; do not
    instantiate this class yourself.
    """

    __slots__ = ("_sign",)

    def __init__(self, sign: int):
        self._sign = sign

    def __repr__(self) -> str:
        return "INF" if self._sign > 0 else "NEG_INF"

    def __str__(self) -> str:
        return "inf" if self._sign > 0 else "-inf"

    def __bool__(self) -> bool:
        return True

    def __hash__(self) -> int:
        return hash(("stackspt.Infinity", self._sign))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Infinity) and other._sign == self._sign

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __neg__(self) -> "Infinity":
        return NEG_INF if self._sign > 0 else INF

    # -- ordering ----------------------------------------------------------

    def __lt__(self, other: object) -> bool:
        if isinstance(other, Infinity):
            return self._sign < other._sign
        if isinstance(other, FINITE_TYPES):
            return self._sign < 0
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if isinstance(other, Infinity):
            return self._sign <= other._sign
        if isinstance(other, FINITE_TYPES):
            return self._sign < 0
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, Infinity):
            return self._sign > other._sign
        if isinstance(other, FINITE_TYPES):
            return self._sign > 0
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, Infinity):
            return self._sign >= other._sign
        if isinstance(other, FINITE_TYPES):
            return self._sign > 0
        return NotImplemented

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: object):
        if isinstance(other, Infinity):
            if other._sign != self._sign:
                raise UndefinedOperationError("inf + (-inf) is undefined")
            return self
        if isinstance(other, FINITE_TYPES):
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: object):
        if isinstance(other, Infinity):
            if other._sign == self._sign:
                raise UndefinedOperationError("inf - inf is undefined")
            return self
        if isinstance(other, FINITE_TYPES):
            return self
        return NotImplemented

    def __rsub__(self, other: object):
        # finite - inf
        if isinstance(other, FINITE_TYPES):
            return -self
        return NotImplemented


INF = Infinity(1)
NEG_INF = Infinity(-1)

Scalar = Union[int, Fraction]
ExtScalar = Union[int, Fraction, Infinity]


def is_finite(x: ExtScalar) -> bool:
    return not isinstance(x, Infinity)


def ensure_scalar(x: object, what: str = "value") -> Scalar:
    """Check that ``x`` is an exact finite scalar and return it.

    Floats (and bools) are rejected: exactness is non-negotiable here.
    """
    if isinstance(x, bool) or not isinstance(x, FINITE_TYPES):
        raise TypeError(f"{what} must be an int or Fraction, got {type(x).__name__}")
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def parse_scalar(text: str) -> Scalar:
    """Parse an exact scalar literal: integer, decimal, or ``a/b`` ratio.

    Decimal literals are converted exactly (``0.25`` -> 1/4).  Returns an int
    whenever the value is integral.  Raises ``ValueError`` on anything else,
    including a zero denominator.
    """
    text = text.strip()
    if not _SCALAR_RE.match(text):
        raise ValueError(f"not a scalar literal: {text!r}")
    if "." not in text and "/" not in text:
        return int(text)
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    if value.denominator == 1:
        return int(value)
    return value


def format_scalar(x: Scalar) -> str:
    """Canonical text for a finite scalar: ``5``, ``-3``, or ``1/3``."""
    if isinstance(x, bool) or not isinstance(x, FINITE_TYPES):
        raise TypeError(f"cannot format {type(x).__name__} as a scalar")
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return str(x)
