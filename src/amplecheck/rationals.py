"""Small helpers around ``fractions.Fraction``.

Every quantity in this package is an exact rational; floats are never
accepted, produced, or serialized.  An exact rational is held either as a
``Fraction`` or as a plain ``int``; ``exact`` picks the ``int`` whenever
the value is integral.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rational = int | Fraction

# Most digits one input field (rank, coordinate, ch2, e, s, d) may hold;
# larger inputs are rejected where they are parsed.
DIGIT_BUDGET = 2000

# The only number forms accepted: ASCII digits, so the digits as written
# are all the digits there are (no exponent, underscore or other script).
INTEGER = re.compile(r"[+-]?[0-9]+")
RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def check_digits(text: str, field: str) -> str:
    """``text`` itself, or ``ValueError`` naming ``field`` if it has too many digits."""
    if len(text) > DIGIT_BUDGET and sum(c.isdigit() for c in text) > DIGIT_BUDGET:
        raise ValueError(f"{field} has more than {DIGIT_BUDGET} digits, the input limit")
    return text


def rat(value: Rational) -> Fraction:
    """Coerce an int or Fraction to Fraction, rejecting floats as ``exact`` does."""
    return value if isinstance(value, Fraction) else Fraction(exact(value))


def exact(value: Rational) -> Rational:
    """A plain ``int`` when ``value`` is integral, else a ``Fraction``; rejects floats.

    ``int`` subclasses such as ``bool`` become plain ``int``s, so a type test
    for ``int`` decides integrality of the result.
    """
    if type(value) is int:
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def quotient(p: int, q: int) -> Rational:
    """The exact rational ``p/q`` of two ints, ``q > 0``: an ``int`` when q divides p."""
    return p // q if p % q == 0 else Fraction(p, q)


def ceil_frac(value: Rational) -> int:
    """Smallest integer >= value, exactly."""
    q = exact(value)
    return -((-q.numerator) // q.denominator)


def parse_rational(text: str, field: str = "rational") -> Rational:
    """Parse ``p`` (an ``int``) or ``p/q`` (a ``Fraction``): ASCII digits, optional sign."""
    text = check_digits(text.strip(), field)
    if "." in text:
        raise ValueError(f"decimal notation not accepted (use p/q): {text!r}")
    try:
        if match := RATIONAL.fullmatch(text):
            p, q = match.groups()
            return int(p) if q is None else Fraction(int(p), int(q))
    except ZeroDivisionError:  # a zero denominator
        pass
    raise ValueError(f"malformed rational {text!r}")
