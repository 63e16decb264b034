"""Intersection lattices of the projective plane and Hirzebruch surfaces.

The two families of surfaces handled by this package are

* the projective plane, with Picard group ``Z*H`` generated by the class of
  a line, ``H^2 = 1``, canonical class ``-3H``;
* the Hirzebruch surface ``F_e`` (``e >= 0``), the ruled surface over the
  line with fiber class ``F`` and a section ``E`` of self-intersection
  ``-e``.  The Picard group is ``Z*E + Z*F`` with pairing ``F.F = 0``,
  ``E.E = -e``, ``E.F = 1``; the canonical class is ``-2E - (e+2)F``.

On ``F_e`` the effective cone is spanned by ``E`` and ``F`` and the nef cone
by ``E + eF`` and ``F``.  We write ``H`` for the minimal ample polarization
(``E + (e+1)F`` on ``F_e``, the line on the plane) and ``L`` for the
distinguished "small" class used throughout the decision procedures: the
line on the plane, the fiber on ``F_e``.

Divisor classes are vectors of exact rationals over the distinguished basis,
each coordinate held as a plain ``int`` when integral and as a ``Fraction``
only otherwise (``rationals.exact``); all operations are pure and exact.
Intersection numbers ``dot`` and ``self_intersection`` stay ``Fraction``s,
so callers may divide them; ``Surface.pair`` gives the same pairing on raw
coordinates, in ``int``s for integral classes, and ``ruling_degrees`` the
pairings ``(d.F, d.E) = (a, b - e*a)`` of ``d = aE + bF``.  The cone tests
``is_nef`` and ``is_big_and_nef`` compute on coordinates through these and
are scale-invariant, so the library asks them of the integral ``c1`` (or
``c1 - rank*H``) instead of the slope ``nu`` (or ``nu - H``).  Sections of
line bundles are counted through the pushforward to the base line: on
``F_e``,

    h^0(aE + bF) = sum_{i=0..a} max(0, b - i*e + 1),

which agrees with the Euler characteristic ``P(aE + bF)`` whenever the class
is nef (nef line bundles on these surfaces have no higher cohomology).
The text of an integral class is written from its ints: a zero term is left
out, ``1`` and ``-1`` are the bare basis name, a later negative term follows
`` - `` (``2E - F``); a ``Fraction`` coordinate is written ``(p/q)E``.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidDivisorError, SurfaceMismatchError
from .rationals import Rational, check_digits, exact
from .records import Record

SURFACE_CACHE_SIZE = 64  # surfaces interned by their constructors; ``e`` is user input


class SurfaceKind(Enum):
    PROJECTIVE_PLANE = "P2"
    HIRZEBRUCH = "F"


class Surface(Record):
    """The projective plane or a Hirzebruch surface ``F_e``, its facts set by the constructor
    (the unchecked ``_of`` sets none: its one caller, the record-equality test, reads fields)."""

    __slots__ = ("kind", "e", "__dict__")

    def __init__(self, kind: SurfaceKind, e: int = 0) -> None:
        if not isinstance(e, int):
            raise InvalidDivisorError(f"Hirzebruch parameter must be an integer, got {e!r}")
        if kind is SurfaceKind.PROJECTIVE_PLANE and e != 0:
            raise InvalidDivisorError("the projective plane carries no parameter e")
        if kind is SurfaceKind.HIRZEBRUCH and e < 0:
            raise InvalidDivisorError(f"Hirzebruch parameter must be >= 0, got {e}")
        _set_kind(self, kind)
        _set_e(self, int(e))
        facts = self.__dict__  # set past Record.__setattr__, like a character's ch2
        facts["is_plane"] = plane = self.kind is SurfaceKind.PROJECTIVE_PLANE
        try:  # writing e is bounded by the interpreter's integer-to-string limit
            facts["name"] = "P2" if plane else f"F{self.e}"
        except ValueError as limit:  # the interpreter's text names its limit
            raise InvalidDivisorError(f"Hirzebruch parameter e: {limit}") from None
        facts["basis"] = ("H",) if plane else ("E", "F")
        facts["zero"] = self.divisor(0) if plane else self.divisor(0, 0)
        # H, the minimal ample class: the line, or E + (e+1)F
        facts["polarization"] = self.divisor(1) if plane else self.divisor(1, self.e + 1)
        # L: the line on the plane, the fiber F on F_e
        facts["fiber_class"] = self.divisor(1) if plane else self.divisor(0, 1)
        # K, the canonical class: -3H, or -2E - (e+2)F
        facts["canonical"] = self.divisor(-3) if plane else self.divisor(-2, -(self.e + 2))

    @classmethod
    def projective_plane(cls) -> "Surface":
        return _interned(SurfaceKind.PROJECTIVE_PLANE)

    @classmethod
    def hirzebruch(cls, e: int) -> "Surface":
        if type(e) is not int:  # rejected, or normalised (True), by the constructor
            return cls(SurfaceKind.HIRZEBRUCH, e)
        return _interned(SurfaceKind.HIRZEBRUCH, e)

    def divisor(self, *coords: Rational) -> "DivisorClass":
        return DivisorClass(self, coords)

    def pair(self, a: tuple[Rational, ...], b: tuple[Rational, ...]) -> Rational:
        if self.is_plane:
            return a[0] * b[0]
        # (a0 E + a1 F).(b0 E + b1 F) with E.E = -e, E.F = 1, F.F = 0
        return -self.e * a[0] * b[0] + a[0] * b[1] + a[1] * b[0]

    def __str__(self) -> str:
        return self.name


_set_kind, _set_e = Surface._setters
_interned = lru_cache(maxsize=SURFACE_CACHE_SIZE)(Surface)


def parse_surface(text: str) -> Surface:
    """Parse ``"P2"`` or ``"F<e>"`` (e.g. ``"F0"``, ``"F3"``)."""
    token = text.strip()
    if token.upper() == "P2":
        return Surface.projective_plane()
    if token and token[0].upper() == "F":
        tail = token[1:]
        if tail.isascii() and tail.isdigit():
            return Surface.hirzebruch(int(check_digits(tail, "surface parameter e")))
    raise ValueError(f"malformed surface {text!r}: expected 'P2' or 'F<e>'")


class DivisorClass(Record):
    """An element of the rational Picard group, in the distinguished basis."""

    __slots__ = ("surface", "coords")

    def __init__(self, surface: Surface, coords: tuple[Rational, ...]) -> None:
        expected = len(surface.basis)
        if len(coords) != expected:
            raise InvalidDivisorError(
                f"{surface} divisor needs {expected} coordinates, got {len(coords)}"
            )
        _set_surface(self, surface)
        _set_coords(self, tuple(map(exact, coords)))

    def _check_same_surface(self, other: "DivisorClass") -> None:
        if self.surface is not other.surface and self.surface != other.surface:
            raise SurfaceMismatchError(
                f"cannot combine classes on {self.surface} and {other.surface}"
            )

    @property
    def is_integral(self) -> bool:
        c = self.coords  # a basis has one or two classes: quicker than all()
        return type(c[0]) is int and type(c[-1]) is int

    def _with(self, coords: tuple[Rational, ...]) -> "DivisorClass":
        """A class on this surface; ``int`` coordinates need no normalising."""
        integral = type(coords[0]) is int and type(coords[-1]) is int
        return (_trusted_class if integral else DivisorClass)(self.surface, coords)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_same_surface(other)
        return self._with(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_same_surface(other)
        return self._with(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "DivisorClass":
        return self._with(tuple(-c for c in self.coords))

    def __mul__(self, scalar: Rational) -> "DivisorClass":
        q = exact(scalar)
        return self._with(tuple(q * c for c in self.coords))

    __rmul__ = __mul__

    def dot(self, other: "DivisorClass") -> Fraction:
        self._check_same_surface(other)
        return Fraction(self.surface.pair(self.coords, other.coords))

    @property
    def self_intersection(self) -> Fraction:
        return self.dot(self)

    def __str__(self) -> str:
        out, coords = "", self.coords
        if type(coords[0]) is int and type(coords[-1]) is int:  # written from the ints
            for c, name in zip(coords, self.surface.basis):
                if c:
                    if out:
                        out, c = out + (" - " if c < 0 else " + "), abs(c)
                    out += name if c == 1 else "-" + name if c == -1 else f"{c}{name}"
            return out or "0"
        for c, name in zip(coords, self.surface.basis):
            text = str(c)  # decided on its digits: no Fraction comparison, int or not
            if text != "0":
                term = (name if text == "1" else "-" + name if text == "-1"
                        else text + name if "/" not in text else f"({text}){name}")
                out += (" - " + term[1:] if term[0] == "-" else " + " + term) if out else term
        return out or "0"


_set_surface, _set_coords = DivisorClass._setters
_trusted_class = DivisorClass._of


def ruling_degrees(d: DivisorClass) -> tuple[Rational, Rational]:
    """``(d.F, d.E)`` on ``F_e``: ``(a, b - e*a)`` for ``d = aE + bF``."""
    a, b = d.coords
    return a, b - d.surface.e * a


def is_nef(d: DivisorClass) -> bool:
    """Nef cone membership: pairs >= 0 with every curve class (F and E on F_e)."""
    if d.surface.is_plane:
        return d.coords[0] >= 0
    fiber, section = ruling_degrees(d)
    return fiber >= 0 and section >= 0


def is_big_and_nef(d: DivisorClass) -> bool:
    """Nef with positive self-intersection (bigness for nef surface classes)."""
    return is_nef(d) and d.surface.pair(d.coords, d.coords) > 0


def is_irreducible_curve_class(d: DivisorClass) -> bool:
    """Whether the general member of |d| is an irreducible curve.

    On the plane: positive multiples of the line.  On ``F_e``: the section
    ``E``, the fiber ``F``, and ``aE + bF`` with ``a >= 1`` and ``b >= ae``;
    on ``F_0`` the last family additionally needs ``b >= 1``, since a class
    ``aE`` with ``a >= 2`` is a union of rulings there.
    """
    if not d.is_integral:
        raise InvalidDivisorError(f"irreducibility is asked of integral classes, got {d}")
    if d.surface.is_plane:
        return d.coords[0] >= 1
    a, b = d.coords
    e = d.surface.e
    if (a, b) in ((1, 0), (0, 1)):  # E and F
        return True
    if a >= 1 and b >= a * e:
        return e >= 1 or b >= 1
    return False


def h0_line_bundle(d: DivisorClass) -> int:
    """Number of global sections of the line bundle O(d).

    Plane: ``(n+1)(n+2)/2`` for ``n >= 0``.  On ``F_e`` the pushforward to
    the base line splits off one summand of degree ``b - ie`` per
    ``0 <= i <= a``, each contributing ``max(0, b - ie + 1)`` sections;
    the sum is evaluated in closed form.
    """
    if not d.is_integral:
        raise InvalidDivisorError(f"section counts are asked of integral classes, got {d}")
    return _h0_at(d.surface, d.coords)


def _h0_at(surface: Surface, x: tuple[int, ...]) -> int:
    """``h0_line_bundle`` of the class with int coordinates x on ``surface``, unchecked."""
    if surface.is_plane:
        (n,) = x
        return (n + 1) * (n + 2) // 2 if n >= 0 else 0
    a, b = x
    if a < 0 or b < 0:
        return 0
    e = surface.e
    # the summands are positive exactly for i <= m: an arithmetic series
    m = a if e == 0 else min(a, b // e)
    return (m + 1) * (b + 1) - e * m * (m + 1) // 2
