"""Exact scalars and the two infinities.

Finite quantities are plain ``int`` / ``fractions.Fraction`` values, so ordinary
arithmetic stays exact and native-speed.  Distances that do not exist (an
unreachable vertex, a coordinate with no competing route) are ``INF`` and
``NEG_INF``, which are float +inf and -inf: Python orders them exactly against
every int and Fraction, and they hash and sort natively.  Nothing else in the
package is a float, so ``is_finite`` is a type test.  Adding a finite value
too large for a float (``10**400 + INF``) raises ``OverflowError``, and
``INF - INF`` is nan, so code sums only operands it has checked are finite.

Finite floats are rejected everywhere: every quantity in this package is
exact.

``parse_scalar`` accepts only the spellings ``_SCALAR_RE`` matches.  A literal
with neither ``.`` nor ``/`` is converted by ``int`` directly, which gives the
value ``Fraction`` would at a fraction of the cost; decimals and ratios go
through ``Fraction``.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import lcm
from typing import Union

__all__ = [
    "Scalar",
    "ExtScalar",
    "INF",
    "NEG_INF",
    "is_finite",
    "ensure_scalar",
    "parse_scalar",
    "format_scalar",
]

FINITE_TYPES = (int, Fraction)

# integer, decimal, or ratio literal; the only accepted spellings
_SCALAR_RE = re.compile(r"^[+-]?\d+(?:\.\d+|/\d+)?$")


INF = float("inf")
NEG_INF = float("-inf")

Scalar = Union[int, Fraction]
ExtScalar = Union[int, Fraction, float]  # float only as INF or NEG_INF


def is_finite(x: ExtScalar) -> bool:
    return type(x) is not float


def ensure_scalar(x: object, what: str = "value") -> Scalar:
    """Check that ``x`` is an exact finite scalar and return it.

    Floats (and bools) are rejected: exactness is non-negotiable here.
    """
    if isinstance(x, bool) or not isinstance(x, FINITE_TYPES):
        raise TypeError(f"{what} must be an int or Fraction, got {type(x).__name__}")
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _scaled(values, base: int = 1) -> tuple[int, list[int]]:
    """(scale, values times scale), scale the LCM of ``base`` and the denominators
    of ``values``: with ``_unscaled``, the package's one pair of exact-int conversions."""
    scale = lcm(base, *[v.denominator for v in values])
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _unscaled(x: Scalar, scale: int) -> Scalar:
    """``x / scale`` exactly, as an int whenever the value is integral."""
    if scale != 1:
        x = Fraction(x, scale)
    return x.numerator if x.denominator == 1 else x


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
    """Canonical text for a finite scalar: ``5``, ``-3``, or ``1/3``.

    Digits come from ``Decimal``, which is exact and, unlike ``str`` of an
    int, not capped by ``sys.get_int_max_str_digits()``.
    """
    if isinstance(x, bool) or not isinstance(x, FINITE_TYPES):
        raise TypeError(f"cannot format {type(x).__name__} as a scalar")
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"
    return str(Decimal(int(x)))
