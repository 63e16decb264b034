"""Exact Chern character arithmetic and Riemann-Roch.

A character is a triple ``(rank, c1, ch2)`` with positive rank, integral
``c1`` and exact rational ``ch2`` subject to the integrality of the second
Chern class ``c2 = c1^2/2 - ch2``.  Integral ``c1`` has ``int``
coordinates (see ``surfaces``), so ``c1^2``, ``c2`` and chi are ``int``s;
``Fraction``s appear only where a quotient may leave the integers: ``ch2``,
``mu``, ``nu`` and ``delta``.  No verdict is decided on ``nu``: a slope
test ``nu.C > t`` is the integer comparison ``c1.C > t*rank``, and its
reported margin is built once, as ``Fraction(c1.C - t*rank, rank)``.  The
logarithmic invariants

    mu = (c1.H) / (rank * H^2),   nu = c1 / rank,
    delta = nu^2 / 2 - ch2 / rank

are invariant under scaling the character, and ``delta`` is additionally
invariant under twisting by any divisor class; each is computed once per
character.  Riemann-Roch, ``chi = rank * (P(nu) - delta)`` with ``P`` the
Hilbert polynomial of the structure sheaf, is evaluated in integers:

    chi(v) = rank + (c1^2 - c1.K)/2 - c2,

and the Euler characteristic of a twist is the integer quadratic

    chi(v(D)) = chi(v) + c1.D + rank * (D^2 - D.K)/2

in the coordinates of ``D`` (``D^2 - D.K`` is even for integral ``D`` by
the adjunction formula), so no twisted character needs to be built.

The canonical textual form used by the CLI and reports is ``r:c1:ch2`` with
``c1`` rendered as ``a`` (plane) or ``a,b`` (meaning ``aE + bF``) and
``ch2`` as ``p/q``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import InvalidCharacterError, InvalidDivisorError
from .rationals import INTEGER, Rational, check_digits, format_rational, parse_rational, rat
from .records import Record
from .surfaces import DivisorClass, Surface


def _adjunction_form(surface: Surface, x: tuple[int, ...]) -> int:
    """``x^2 - x.K`` of an integral class; even, equal to ``2*(P(x) - 1)``."""
    return surface.pair(x, x) - surface.pair(x, surface.canonical_coords)


class ChernCharacter(Record):
    __slots__ = ("rank", "c1", "ch2", "__dict__")

    def __init__(self, rank: int, c1: DivisorClass, ch2: Rational) -> None:
        ch2 = rat(ch2)
        if not isinstance(rank, int) or rank < 1:
            raise InvalidCharacterError(f"rank must be a positive integer, got {rank}")
        if not c1.is_integral:
            raise InvalidCharacterError(f"c1 must be integral, got {c1}")
        _set_rank(self, int(rank))
        _set_c1(self, c1)
        _set_ch2(self, ch2)
        self.c2  # computing c2 checks that it is an integer

    @property
    def surface(self) -> Surface:
        return self.c1.surface

    @cached_property
    def _c1_squared(self) -> int:
        return self.surface.pair(self.c1.coords, self.c1.coords)

    @cached_property
    def c2(self) -> int:
        p, q = self.ch2.numerator, self.ch2.denominator
        c2, rest = divmod(self._c1_squared * q - 2 * p, 2 * q)  # c1^2/2 - ch2, ch2 = p/q
        if rest:
            c2 = Fraction(self._c1_squared, 2) - self.ch2
            raise InvalidCharacterError(
                f"c1^2/2 - ch2 = {c2} is not an integer (c2 must be integral)"
            )
        return c2

    @cached_property
    def nu(self) -> DivisorClass:
        rank = self.rank
        return DivisorClass(self.surface, tuple(Fraction(c, rank) for c in self.c1.coords))

    @cached_property
    def mu(self) -> Fraction:
        h = self.surface.polarization.coords
        pair = self.surface.pair
        return Fraction(pair(self.c1.coords, h), self.rank * pair(h, h))

    @cached_property
    def delta(self) -> Fraction:
        # nu^2/2 - ch2/rank with ch2 = c1^2/2 - c2, over the common denominator
        r = self.rank
        return Fraction((1 - r) * self._c1_squared + 2 * r * self.c2, 2 * r * r)

    @cached_property
    def _chi(self) -> int:
        return self.rank + _adjunction_form(self.surface, self.c1.coords) // 2 - self.c2

    def euler_characteristic(self) -> int:
        return self._chi

    def twisted_chi(self, d: DivisorClass) -> int:
        """``chi(v(d))`` for integral d, without building the twisted character."""
        if not d.is_integral:
            raise InvalidDivisorError(f"twists are by integral classes, got {d}")
        self.c1._check_same_surface(d)
        surface = self.surface
        x = d.coords
        return (
            self._chi
            + surface.pair(self.c1.coords, x)
            + self.rank * _adjunction_form(surface, x) // 2
        )

    def twist(self, d: DivisorClass) -> "ChernCharacter":
        """Tensor with the line bundle O(d), d integral."""
        if not d.is_integral:
            raise InvalidDivisorError(f"twists are by integral classes, got {d}")
        pair = self.surface.pair
        x = d.coords
        return ChernCharacter(
            self.rank,
            self.c1 + self.rank * d,
            self.ch2 + pair(self.c1.coords, x) + Fraction(self.rank * pair(x, x), 2),
        )

    def dual(self) -> "ChernCharacter":
        return ChernCharacter(self.rank, -self.c1, self.ch2)

    def scale(self, n: int) -> "ChernCharacter":
        if not isinstance(n, int) or n < 1:
            raise InvalidCharacterError(f"scaling factor must be a positive integer, got {n}")
        return ChernCharacter(n * self.rank, n * self.c1, n * self.ch2)

    def __add__(self, other: "ChernCharacter") -> "ChernCharacter":
        """Character of a direct sum."""
        return ChernCharacter(self.rank + other.rank, self.c1 + other.c1, self.ch2 + other.ch2)

    def __str__(self) -> str:
        coords = ",".join(format_rational(c) for c in self.c1.coords)
        return f"{self.rank}:{coords}:{format_rational(self.ch2)}"


_set_rank, _set_c1, _set_ch2 = ChernCharacter._setters


def make_character(
    rank: int, c1: DivisorClass, ch2: Rational, surface: Surface | None = None
) -> ChernCharacter:
    """Validated constructor; ``surface`` (if given) must match ``c1``."""
    if surface is not None and c1.surface != surface:
        raise InvalidCharacterError(f"c1 lives on {c1.surface}, expected {surface}")
    return ChernCharacter(rank, c1, rat(ch2))


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


def line_bundle_character(d: DivisorClass) -> ChernCharacter:
    """Character ``(1, d, d^2/2)`` of the line bundle O(d)."""
    if not d.is_integral:
        raise InvalidDivisorError(f"line bundles need integral classes, got {d}")
    return ChernCharacter(1, d, Fraction(d.self_intersection, 2))


def _parse_fields(
    text: str, surface: Surface, form: str, c1: str, last: str
) -> tuple[int, DivisorClass, Fraction]:
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
    return make_character(*_parse_fields(text, surface, "character", "c1", "ch2"))


def parse_log_character(text: str, surface: Surface) -> ChernCharacter:
    """Parse the logarithmic form ``r:nu:delta`` (``nu`` in the same basis as ``c1``)."""
    return from_log_invariants(
        *_parse_fields(text, surface, "logarithmic character", "nu", "delta")
    )
