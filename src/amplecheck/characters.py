"""Exact Chern character arithmetic and Riemann-Roch.

A character is held as the integers ``(rank, c1, c2)``: positive rank,
integral ``c1`` (``int`` coordinates, see ``surfaces``) and the second Chern
class.  The constructor keeps its signature ``ChernCharacter(rank, c1, ch2)``
and checks that ``c2 = c1^2/2 - ch2`` is an integer; ``repr`` shows ``c2``.
Multiples and sums compute ``c2`` in ints from the total Chern class;
twists, duals and kernels build ``c1`` and ``c2`` in ints.  All skip the
checks (``Record._of``).  ``Fraction``s appear only where a quotient may
leave the integers: ``ch2``, ``mu``, ``nu`` and ``delta``.  No verdict is
decided on them: a slope test ``nu.C > t`` is the integer comparison
``c1.C > t*rank``, and its reported margin is built once, as
``Fraction(c1.C - t*rank, rank)``; a sign test, ``delta >= 0``, reads the
numerator, as denominators are positive.  The logarithmic invariants

    mu = (c1.H) / (rank * H^2),   nu = c1 / rank,
    delta = nu^2 / 2 - ch2 / rank

are invariant under scaling the character, and ``delta`` is additionally
invariant under twists and duals, which carry it once computed; each is
computed once per character.  Riemann-Roch, ``chi = rank * (P(nu) - delta)``
with ``P`` the Hilbert polynomial of the structure sheaf, is evaluated in
integers:

    chi(v) = rank + (c1^2 - c1.K)/2 - c2,

and the Euler characteristic of a twist is the integer quadratic

    chi(v(D)) = chi(v) + c1.D + rank * (D^2 - D.K)/2

in the coordinates of ``D`` (``D^2 - D.K`` is even for integral ``D`` by
the adjunction formula), so no twisted character needs to be built; the
library passes its own ``-D`` and ``K + D`` as int tuples to ``_chi_at``,
and the twists it builds of its own classes to ``_twist_at``.

The canonical textual form used by the CLI and reports is ``r:c1:ch2`` with
``c1`` rendered as ``a`` (plane) or ``a,b`` (meaning ``aE + bF``) and
``ch2`` as ``p/q``, written from the int ``p = c1^2 - 2*c2 = 2*ch2`` as
``p//2`` or ``p/2`` without building the ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidCharacterError, InvalidDivisorError
from .rationals import INTEGER, Rational, check_digits, parse_rational, quotient, rat
from .records import Record, lazy
from .surfaces import DivisorClass, Surface


def _adjunction_form(surface: Surface, x: tuple[int, ...]) -> int:
    """``x^2 - x.K`` of an integral class; even, equal to ``2*(P(x) - 1)``."""
    return surface.pair(x, x) - surface.pair(x, surface.canonical.coords)


class ChernCharacter(Record):
    __slots__ = ("rank", "c1", "c2", "__dict__")

    def __init__(self, rank: int, c1: DivisorClass, ch2: Rational) -> None:
        ch2 = rat(ch2)
        if not isinstance(rank, int) or rank < 1:
            raise InvalidCharacterError(f"rank must be a positive integer, got {rank}")
        if not c1.is_integral:
            raise InvalidCharacterError(f"c1 must be integral, got {c1}")
        c1_squared = c1.surface.pair(c1.coords, c1.coords)
        p, q = ch2.numerator, ch2.denominator
        c2, rest = divmod(c1_squared * q - 2 * p, 2 * q)  # c1^2/2 - ch2, ch2 = p/q
        if rest:
            c2 = Fraction(c1_squared, 2) - ch2
            raise InvalidCharacterError(
                f"c1^2/2 - ch2 = {c2} is not an integer (c2 must be integral)"
            )
        _set_rank(self, int(rank))
        _set_c1(self, c1)
        _set_c2(self, c2)
        self.__dict__.update(ch2=ch2, _c1_squared=c1_squared)

    def __reduce__(self):
        return ChernCharacter, (self.rank, self.c1, self.ch2)  # rebuilt through the checks

    @property
    def surface(self) -> Surface:
        return self.c1.surface

    @lazy
    def _c1_squared(self) -> int:
        return self.surface.pair(self.c1.coords, self.c1.coords)

    @lazy
    def ch2(self) -> Fraction:
        return Fraction(self._c1_squared - 2 * self.c2, 2)

    @lazy
    def nu(self) -> DivisorClass:
        rank = self.rank
        return DivisorClass._of(self.surface, tuple(quotient(c, rank) for c in self.c1.coords))

    @lazy
    def mu(self) -> Fraction:
        h = self.surface.polarization.coords
        pair = self.surface.pair
        return Fraction(pair(self.c1.coords, h), self.rank * pair(h, h))

    @lazy
    def delta(self) -> Fraction:
        # nu^2/2 - ch2/rank with ch2 = c1^2/2 - c2, over the common denominator
        r = self.rank
        return Fraction((1 - r) * self._c1_squared + 2 * r * self.c2, 2 * r * r)

    @lazy
    def _chi(self) -> int:
        return self.rank + _adjunction_form(self.surface, self.c1.coords) // 2 - self.c2

    def euler_characteristic(self) -> int:
        return self._chi

    def _integral_coords(self, d: DivisorClass) -> tuple[int, ...]:
        if not d.is_integral:
            raise InvalidDivisorError(f"twists are by integral classes, got {d}")
        self.c1._check_same_surface(d)
        return d.coords

    def _chi_at(self, x: tuple[int, ...]) -> int:
        """``chi(v(x))`` for the int coordinates x of a class on this surface, unchecked."""
        s = self.surface
        return self._chi + s.pair(self.c1.coords, x) + self.rank * _adjunction_form(s, x) // 2

    def twisted_chi(self, d: DivisorClass) -> int:
        """``chi(v(d))`` for integral d, without building the twisted character."""
        return self._chi_at(self._integral_coords(d))

    def _keeping_delta(self, w: "ChernCharacter") -> "ChernCharacter":
        """``w``, a twist or dual of this character, given this one's ``delta`` if computed."""
        if "delta" in self.__dict__:
            w.__dict__["delta"] = self.__dict__["delta"]
        return w

    def twist(self, d: DivisorClass) -> "ChernCharacter":
        """Tensor with the line bundle O(d), d integral: ``c2 + (r-1) c1.d + C(r, 2) d^2``."""
        return self._twist_at(self._integral_coords(d))

    def _twist_at(self, x: tuple[int, ...]) -> "ChernCharacter":
        """``v(x)`` for the int coordinates x of a class on this surface, unchecked."""
        r, c1, pair = self.rank, self.c1.coords, self.surface.pair
        c2 = self.c2 + (r - 1) * pair(c1, x) + r * (r - 1) // 2 * pair(x, x)
        return self._keeping_delta(
            _trusted(r, self.c1._with(tuple(a + r * b for a, b in zip(c1, x))), c2))

    def dual(self) -> "ChernCharacter":
        return self._keeping_delta(_trusted(self.rank, -self.c1, self.c2))

    def scale(self, n: int) -> "ChernCharacter":
        if not isinstance(n, int) or n < 1:
            raise InvalidCharacterError(f"scaling factor must be a positive integer, got {n}")
        c2 = n * self.c2 + n * (n - 1) // 2 * self._c1_squared  # c(v)^n
        return _trusted(n * self.rank, n * self.c1, c2)

    def __add__(self, other: "ChernCharacter") -> "ChernCharacter":
        """Character of a direct sum: ``c2 = c2 + c2' + c1.c1'``."""
        c1 = self.c1 + other.c1
        c2 = self.c2 + other.c2 + self.surface.pair(self.c1.coords, other.c1.coords)
        return _trusted(self.rank + other.rank, c1, c2)

    def __str__(self) -> str:
        p = self._c1_squared - 2 * self.c2  # 2*ch2, written as p//2 or p/2
        ch2 = f"{p}/2" if p & 1 else p >> 1
        return f"{self.rank}:{','.join(map(str, self.c1.coords))}:{ch2}"


_set_rank, _set_c1, _set_c2 = ChernCharacter._setters
_trusted = ChernCharacter._of
make_character = ChernCharacter  # the validated constructor, under the name callers use


def from_log_invariants(rank: int, nu: DivisorClass, delta: Rational) -> ChernCharacter:
    """Build a character from ``(rank, nu, delta)``, clearing denominators.

    ``rank * nu`` must be integral and the resulting ``c2`` an integer;
    otherwise no character with these invariants exists at this rank.
    """
    if not isinstance(rank, int) or rank < 1:
        raise InvalidCharacterError(f"rank must be a positive integer, got {rank}")
    c1 = rank * nu
    if not c1.is_integral:
        raise InvalidCharacterError(
            f"rank {rank} does not clear the denominators of nu = {nu}"
        )
    ch2 = rank * (Fraction(nu.self_intersection, 2) - rat(delta))
    return ChernCharacter(rank, c1, ch2)


def _parse_fields(
    text: str, surface: Surface, form: str, c1: str, last: str
) -> tuple[int, DivisorClass, Rational]:
    """Rank, class and last field of ``r:<c1>:<last>``; errors call the text a ``form``."""
    pieces = text.strip().split(":")
    if len(pieces) != 3:
        raise ValueError(f"malformed {form} {text!r}: expected 'r:{c1}:{last}'")
    rank_text, c1_text, last_text = pieces
    check_digits(rank_text, "rank")
    if not INTEGER.fullmatch(rank_text.strip()):
        raise ValueError(f"malformed rank {rank_text!r}")
    coord_texts = c1_text.split(",")
    if len(coord_texts) != len(surface.basis):
        raise ValueError(
            f"{c1} on {surface} needs {len(surface.basis)} coordinates, got {c1_text!r}"
        )
    coords = [parse_rational(t, f"{c1} coordinate") for t in coord_texts]
    return int(rank_text), surface.divisor(*coords), parse_rational(last_text, last)


def parse_character(text: str, surface: Surface) -> ChernCharacter:
    """Parse the canonical form ``r:c1:ch2``; see the module docstring."""
    return ChernCharacter(*_parse_fields(text, surface, "character", "c1", "ch2"))


def parse_log_character(text: str, surface: Surface) -> ChernCharacter:
    """Parse the logarithmic form ``r:nu:delta`` (``nu`` in the same basis as ``c1``)."""
    return from_log_invariants(
        *_parse_fields(text, surface, "logarithmic character", "nu", "delta")
    )
