"""The benchmark's own intersection arithmetic, independent of ``amplecheck``.

Used to write input text and to re-derive the invariants a report claims:
on the plane ``H^2 = 1`` and ``K = -3H``; on ``F_e`` ``E^2 = -e``,
``E.F = 1``, ``F^2 = 0`` and ``K = -2E - (e+2)F``.
"""

from __future__ import annotations

from fractions import Fraction


def hirzebruch_e(surface: str) -> int | None:
    """``e`` for ``"F<e>"``; None for the plane."""
    return None if surface == "P2" else int(surface[1:])


def self_intersection(surface: str, coords) -> Fraction:
    e = hirzebruch_e(surface)
    if e is None:
        return coords[0] * coords[0]
    a, b = coords
    return -e * a * a + 2 * a * b


def dot_canonical(surface: str, coords) -> Fraction:
    e = hirzebruch_e(surface)
    if e is None:
        return -3 * coords[0]
    a, b = coords
    return a * e - 2 * a - 2 * b


def fmt(q: Fraction | int) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def character_text(rank: int, coords, ch2: Fraction) -> str:
    return f"{rank}:{','.join(fmt(c) for c in coords)}:{fmt(ch2)}"


def parse_ch(text: str) -> tuple[int, tuple[Fraction, ...], Fraction]:
    rank, c1, ch2 = text.split(":")
    return int(rank), tuple(Fraction(c) for c in c1.split(",")), Fraction(ch2)


def delta_of(surface: str, rank: int, coords, ch2: Fraction) -> Fraction:
    """``delta = c1^2 / (2 rank^2) - ch2 / rank``."""
    return Fraction(self_intersection(surface, coords), 2 * rank * rank) - ch2 / rank


def euler_characteristic(surface: str, rank: int, coords, ch2: Fraction) -> Fraction:
    """Integer Riemann-Roch: ``rank + (c1^2 - c1.K)/2 - c2`` with ``c2 = c1^2/2 - ch2``."""
    c1sq = self_intersection(surface, coords)
    c2 = Fraction(c1sq, 2) - ch2
    return rank + Fraction(c1sq - dot_canonical(surface, coords), 2) - c2
