"""Metamorphic relations: verdicts that must not move under a symmetry of the input.

``F0 = P1 x P1`` has an automorphism swapping its two factors.  It exchanges
the two rulings, so it maps the section class ``E`` to the fiber class ``F``
and back; it fixes the intersection form (``E^2 = F^2 = 0``, ``E.F = 1``),
the canonical class ``-2E - 2F``, the nef and effective cones and the set of
irreducible curve classes.  Pulling a bundle back by it sends the character
``(rank, aE + bF, c2)`` to ``(rank, bE + aF, c2)`` and a stable, globally
generated or ample bundle to one of the same kind.  So every verdict of the
library on the first character must be the verdict on the second, and the
bad curves of the second are those of the first with coordinates swapped,
with the same twisted chi and dimension count.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
import hypothesis.strategies as st

from amplecheck import (
    ChernCharacter,
    PreconditionError,
    Surface,
    ample_gg_verdict,
    classify_global_generation,
    necessary_obstructions,
)

F0 = Surface.hirzebruch(0)


def _character(rank: int, a: int, b: int, c2: int) -> ChernCharacter:
    c1 = F0.divisor(a, b)
    return ChernCharacter(rank, c1, Fraction(c1.self_intersection, 2) - c2)


def _gg(v: ChernCharacter):
    try:
        gg = classify_global_generation(v)
    except PreconditionError:
        return PreconditionError
    return gg.globally_generated, gg.case


def _bad_curves(cert) -> set[tuple]:
    return {(b.curve.coords, b.chi_twist, b.d, b.c) for b in cert.bad_curves}


def _swapped(bad: set[tuple]) -> set[tuple]:
    return {((y, x), *rest) for (x, y), *rest in bad}


@st.composite
def characters(draw):
    """A character on F0 of rank 2-12 with c1 = aE + bF, coordinates up to 10^3, and c2
    within a few units of the Bogomolov bound ``2 rank c2 >= (rank - 1) c1^2``, where
    most characters are ample-general, or of ``c1^2/2 = ab``, past ``ab - a`` and
    ``ab - b``, where ``chi(v(K+E)) = ab - a - c2`` and its swap make E and F bad."""
    rank = draw(st.integers(2, 12))
    a, b = draw(st.integers(-10, 10**3)), draw(st.integers(-10, 10**3))
    bogomolov = -(-(rank - 1) * a * b // rank)  # the least c2 with delta >= 0; c1^2 = 2ab
    return rank, a, b, draw(st.sampled_from([bogomolov, a * b])) + draw(st.integers(-2, 5))


def test_f0_ruling_swap_leaves_verdicts_unchanged():
    outcomes: Counter = Counter()

    @settings(max_examples=800, deadline=None, derandomize=True)
    @given(characters())
    def check(args):
        rank, a, b, c2 = args
        v, w = _character(rank, a, b, c2), _character(rank, b, a, c2)
        cert_v, cert_w = ample_gg_verdict(v), ample_gg_verdict(w)
        assert cert_v.verdict == cert_w.verdict, args
        assert _gg(v) == _gg(w), args
        assert necessary_obstructions(v).verdict == necessary_obstructions(w).verdict, args
        assert _bad_curves(cert_w) == _swapped(_bad_curves(cert_v)), args
        outcomes[cert_v.verdict] += 1
        outcomes["with bad curves"] += bool(cert_v.bad_curves)

    check()
    assert outcomes["ample-general"] >= 200 and outcomes["with bad curves"] >= 100, outcomes
