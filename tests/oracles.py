"""Independent brute-force oracles for the decision procedures.

Everything here deliberately avoids the library's closed forms: bad curves
are found by scanning a coordinate box with the irreducibility predicate
and a direct Euler-characteristic evaluation, and minimal multipliers by
stepping n upward until the kernel discriminant turns nonnegative.  The
reference formulas the oracles and tests evaluate (the Hilbert polynomial,
the effective cone, the splitting codimension, the Fulton-Lazarsfeld margin
on the logarithmic invariants, the plane's tangent bundle character and the
character of a line bundle) are defined here, not in the library they check.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from amplecheck import (
    ChernCharacter,
    DivisorClass,
    InvalidDivisorError,
    PreconditionError,
    Surface,
    is_irreducible_curve_class,
    kernel_character,
)
from amplecheck.rationals import RATIONAL, Rational, check_digits, rat

SCAN_CAP = 10_000


def hilbert_polynomial(nu: DivisorClass) -> Fraction:
    """Euler characteristic of O(nu), as a polynomial in rational classes.

    This is ``chi(O) + (nu^2 - nu.K)/2``, which works out to
    ``(x^2 + 3x + 2)/2`` on the plane and ``(x+1)(y + 1 - ex/2)`` for
    ``nu = xE + yF`` on ``F_e``.
    """
    surface = nu.surface
    if surface.is_plane:
        x = nu.coords[0]
        return (x * x + 3 * x + 2) / Fraction(2)
    x, y = nu.coords
    return (x + 1) * (y + 1 - Fraction(surface.e) * x / 2)


def is_effective(d: DivisorClass) -> bool:
    """Effective cone membership: nonnegative coordinates in {H} resp. {E, F}."""
    return all(c >= 0 for c in d.coords)


def splitting_codim(k: int, rank: int, degree: int) -> int:
    """Codimension ``k*(degree - rank + k)`` of the k-quotient stratum.

    For a complete family of globally generated bundles on the line with
    rank ``rank``, degree ``degree`` and slope >= 1, the locus with exactly
    k independent maps onto the trivial bundle has this codimension; it is
    minimized at k = 1.
    """
    if not 1 <= k <= rank:
        raise ValueError(f"k must satisfy 1 <= k <= rank, got k={k}, rank={rank}")
    if degree < rank:
        raise PreconditionError(
            f"the codimension formula needs slope >= 1, got degree {degree} < rank {rank}"
        )
    return k * (degree - rank + k)


def fulton_lazarsfeld_margin(rank: int, nu: DivisorClass, delta: Rational) -> Fraction:
    """Exact margin ``nu^2/2 - delta/(rank+1)`` of the ampleness bound.

    Positive margin means the strict inequality holds.  Stated on the
    logarithmic invariants so thresholds can be probed at rationals that do
    not lift to an integral character at this rank.
    """
    return Fraction(nu.self_intersection, 2) - rat(delta) / (rank + 1)


def tangent_bundle_character(surface) -> ChernCharacter | None:
    """The plane's tangent bundle character (2, 3H, 3/2); None elsewhere."""
    if not surface.is_plane:
        return None
    return ChernCharacter(2, surface.divisor(3), Fraction(3, 2))


def line_bundle_character(d: DivisorClass) -> ChernCharacter:
    """Character ``(1, d, d^2/2)`` of the line bundle O(d)."""
    if not d.is_integral:
        raise InvalidDivisorError(f"line bundles need integral classes, got {d}")
    return ChernCharacter(1, d, Fraction(d.self_intersection, 2))


def chi_of_twist(v: ChernCharacter, d) -> int:
    """chi(v(K+d)) as ``rank * (P(nu) - delta)`` of the twisted character.

    Evaluated from the Hilbert polynomial and the logarithmic invariants,
    not through the library's integer Riemann-Roch.
    """
    w = v.twist(v.surface.canonical + d)
    chi = w.rank * (hilbert_polynomial(w.nu) - w.delta)
    if chi.denominator != 1:
        raise AssertionError(f"non-integral Euler characteristic {chi} for {w}")
    return chi.numerator


def by_ch2(surface: Surface, rank: int, c1: list, ch2: Fraction) -> ChernCharacter:
    """``(rank, c1, ch2)`` through the validating constructors, coordinates as given."""
    return ChernCharacter(rank, DivisorClass(surface, tuple(c1)), ch2)


def twist_by_ch2(v: ChernCharacter, d: DivisorClass) -> ChernCharacter:
    """``v(d) = (r, c1 + r*d, ch2 + c1.d + r*d^2/2)``: the twist through ``ch2``."""
    pair, r, x = v.surface.pair, v.rank, d.coords
    c1 = [a + r * b for a, b in zip(v.c1.coords, x)]
    return by_ch2(v.surface, r, c1, v.ch2 + pair(v.c1.coords, x) + Fraction(r * pair(x, x), 2))


def dual_by_ch2(v: ChernCharacter) -> ChernCharacter:
    return by_ch2(v.surface, v.rank, [-a for a in v.c1.coords], v.ch2)


def scale_by_ch2(v: ChernCharacter, n: int) -> ChernCharacter:
    return by_ch2(v.surface, n * v.rank, [n * a for a in v.c1.coords], n * v.ch2)


def sum_by_ch2(v: ChernCharacter, w: ChernCharacter) -> ChernCharacter:
    c1 = [a + b for a, b in zip(v.c1.coords, w.c1.coords)]
    return by_ch2(v.surface, v.rank + w.rank, c1, v.ch2 + w.ch2)


def kernel_by_ch2(v: ChernCharacter, n: int, s: int) -> ChernCharacter:
    """``(n*rank + s) ch O(H) - n v``, added up through ``ch2``."""
    h = v.surface.polarization.coords
    copies = n * v.rank + s
    c1 = [copies * a - n * b for a, b in zip(h, v.c1.coords)]
    return by_ch2(v.surface, s, c1, Fraction(copies * v.surface.pair(h, h), 2) - n * v.ch2)


def rational_text(numerator: int, denominator: int) -> str:
    """``p/q`` in lowest terms with ``q > 0``, or ``p`` when ``q`` is 1, written from
    the two ints themselves rather than through ``str(Fraction)``."""
    g = gcd(numerator, denominator) * (1 if denominator > 0 else -1)
    p, q = numerator // g, denominator // g
    return f"{p:d}" if q == 1 else f"{p:d}/{q:d}"


def divisor_text(names: tuple[str, ...], coords: list[tuple[int, int]]) -> str:
    """A class ``sum (p/q) name`` as people write it, from the ``(p, q)`` pairs: zero terms
    left out, a unit coefficient as the bare name (``-E``), an integral one before it
    (``3E``), a fractional one in parentheses (``(-3/2)E``); a later term's minus sign, if
    it is outside parentheses, becomes `` - ``; and ``0`` when every term is zero."""
    terms = []
    for (p, q), name in zip(coords, names):
        if p:
            value = rational_text(p, q)
            if "/" in value:
                terms.append(("+", f"({value}){name}"))
            else:
                sign, size = ("-", value[1:]) if value[0] == "-" else ("+", value)
                terms.append((sign, name if size == "1" else size + name))
    if not terms:
        return "0"
    (sign, first), *rest = terms
    return ("-" if sign == "-" else "") + first + "".join(f" {s} {t}" for s, t in rest)


def character_text(surface: Surface, rank: int, coords: tuple[int, ...], c2: int) -> str:
    """The canonical ``r:c1:ch2`` of ``(rank, c1, c2)``, with ``ch2 = (c1^2 - 2*c2)/2``.

    ``c1^2`` is ``a^2`` for ``aH`` on the plane and ``2ab - e*a^2`` for
    ``aE + bF`` on ``F_e``, evaluated here rather than by the library.
    """
    if surface.is_plane:
        (a,) = coords
        square = a * a
    else:
        a, b = coords
        square = 2 * a * b - surface.e * a * a
    c1 = ",".join(rational_text(c, 1) for c in coords)
    return f"{rank:d}:{c1}:{rational_text(square - 2 * c2, 2)}"


def parse_rational_by_fraction(text: str, field: str = "rational") -> Fraction:
    """``parse_rational`` through ``Fraction(text)``, which parses the matched text again."""
    text = check_digits(text.strip(), field)
    if "." in text:
        raise ValueError(f"decimal notation not accepted (use p/q): {text!r}")
    try:
        if RATIONAL.fullmatch(text):
            return Fraction(text)
    except ZeroDivisionError:
        pass
    raise ValueError(f"malformed rational {text!r}")


def h0_by_sum(d) -> int:
    """h^0(O(d)) by summing the sections of each summand, term by term.

    On ``F_e`` the pushforward of ``O(aE + bF)`` to the base line has one
    summand of degree ``b - i*e`` for each ``0 <= i <= a``; on the plane
    ``h^0(O(n))`` counts the monomials of degree n, ``n - i + 1`` of them
    with x-degree i.  No closed form of the series is used.
    """
    if d.surface.is_plane:
        (n,) = d.coords
        return sum(n - i + 1 for i in range(n + 1))
    a, b = d.coords
    return sum(max(0, b - i * d.surface.e + 1) for i in range(a + 1))


def slope_conditions_oracle(
    v: ChernCharacter, asymptotic: bool
) -> tuple[tuple[str, bool, Fraction], ...]:
    """``(id, holds, margin)`` of each sharp slope condition, from ``nu``.

    Pairs the ``Fraction``-valued class ``nu = c1/rank`` with H, F and E
    through ``dot`` and compares with the thresholds as stated, instead of
    comparing integer pairings of ``c1`` with multiples of the rank.
    """
    nu = v.nu
    surface = v.surface
    if surface.is_plane:
        slope = nu.dot(surface.polarization)
        if asymptotic:
            return (("slope-exceeds-one", slope > 1, slope - 1),)
        threshold = 1 + Fraction(1, v.rank)
        return (
            ("slope-exceeds-one-plus-inverse-rank", slope > threshold, slope - threshold),
        )
    fiber = nu.dot(surface.fiber_class)
    section = nu.dot(surface.divisor(1, 0))
    if surface.e == 0:
        section_condition = ("section-slope-exceeds-one", section > 1, section - 1)
    else:
        section_condition = ("section-slope-at-least-one", section >= 1, section - 1)
    return ("fiber-slope-exceeds-one", fiber > 1, fiber - 1), section_condition


def matches_bad_curve_shape(surface: Surface, coords: tuple) -> bool:
    """The per-surface shape list for classes that can obstruct ampleness."""
    if surface.is_plane:
        return coords[0] in (1, 2)
    a, b = int(coords[0]), int(coords[1])
    e = surface.e
    if e == 0:
        return (a == 1 and b >= 0) or (b == 1 and a >= 0)
    if e == 1:
        return (a, b) == (0, 1) or (a, b) == (2, 2) or (a == 1 and b >= 0)
    return (a, b) in ((0, 1), (1, 0)) or (a == 1 and b >= e)


def naive_family_cutoff(v: ChernCharacter) -> int:
    """Largest coordinate at which twisted chi could still be negative.

    Found by naive upward iteration along each family of the shape list,
    with no reliance on the library's exact cutoff computation.
    """
    surface = v.surface
    if surface.is_plane:
        return 2
    largest = 2
    families = [lambda b: surface.divisor(1, b)]
    b0 = surface.e if surface.e >= 2 else 0
    if surface.e == 0:
        families.append(lambda b: surface.divisor(b, 1))
    for member in families:
        b = b0
        while chi_of_twist(v, member(b)) < 0:
            b += 1
            if b - b0 > SCAN_CAP:
                raise AssertionError("runaway family scan")
        largest = max(largest, b)
    if surface.e == 1:
        largest = max(largest, 2)  # the 2E+2F singleton
    return largest


def brute_force_bad_curves(v: ChernCharacter, box: int) -> set[tuple]:
    """All irreducible classes with negative twisted chi in a coordinate box."""
    surface = v.surface
    out = set()
    if surface.is_plane:
        candidates = [surface.divisor(n) for n in range(1, box + 1)]
    else:
        candidates = [
            surface.divisor(a, b) for a in range(0, box + 1) for b in range(0, box + 1)
        ]
    for d in candidates:
        if not is_irreducible_curve_class(d):
            continue
        if chi_of_twist(v, d) < 0:
            out.add(d.coords)
    return out


def effective_shortcut_violations(v: ChernCharacter, box: int) -> list[tuple]:
    """Irreducible D in a box with ``K + D`` effective and ``chi(v(K+D)) < 0``.

    The bad-curve enumeration searches only the per-surface shape list.
    That is complete because a globally generated character has
    ``chi(v(K+D)) >= 0`` for every irreducible D with ``K + D`` effective,
    so a globally generated ``v`` must give no violation here.  The box is
    ``D = nH`` with ``1 <= n <= box`` on the plane and ``D = aE + bF`` with
    ``0 <= a <= box``, ``0 <= b <= a*e + box`` on ``F_e``; effectivity of
    ``K + D`` is read off the cone generators (H, resp. E and F).
    """
    surface = v.surface
    if surface.is_plane:
        candidates = [surface.divisor(n) for n in range(1, box + 1)]
    else:
        e = surface.e
        candidates = [
            surface.divisor(a, b)
            for a in range(0, box + 1)
            for b in range(0, a * e + box + 1)
        ]
    k = surface.canonical
    return [
        d.coords
        for d in candidates
        if is_irreducible_curve_class(d)
        and is_effective(k + d)
        and chi_of_twist(v, d) < 0
    ]


def brute_min_multiplier(base: ChernCharacter, s: int, cap: int = 5000) -> int:
    """Least n >= 1 with nonnegative kernel discriminant, by direct search."""
    n = 1
    while kernel_character(base, n, s).delta < 0:
        n += 1
        if n > cap:
            raise AssertionError("runaway multiplier search")
    return n
