"""Metamorphic relations: what verdicts and invariants must do under a symmetry, a twist
or the dual of the input.

Each relation below follows from the geometry, whatever closed forms the
library uses, so none of them shares a formula with the code it checks.

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

On P2 and F0-F5, for a character ``v`` and each nef generator ``L`` of the
surface (``H`` on the plane; ``E + eF`` and ``F`` on ``F_e``):

- ample-general at ``v`` implies ample-general at ``v(L)``: an ample bundle
  tensored with a nef line bundle is ample, and twisting is an isomorphism
  of moduli spaces that keeps stability, so it maps the general bundle to
  the general bundle;
- globally generated at ``v`` implies globally generated at ``v(L)``: the
  nef line bundles of these surfaces are globally generated, and a tensor
  product of globally generated bundles is globally generated;
- ``chi(v) = chi(v^* (x) K)``: Serre duality, ``h^i(V) = h^(2-i)(V^* (x) K)``;
- ``delta = nu^2/2 - ch2/rank`` does not change under a twist or the dual: a
  twist by ``D`` adds ``nu.D + D^2/2`` to both terms, and the dual negates
  ``nu`` and keeps ``ch2``.
"""

from __future__ import annotations

import random
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
SURFACES = (Surface.projective_plane(), *map(Surface.hirzebruch, range(6)))


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


def _nef_generators(surface: Surface) -> tuple:
    return (surface.divisor(1),) if surface.is_plane else (surface.divisor(1, surface.e),
                                                            surface.divisor(0, 1))


def _globally_generated(v: ChernCharacter) -> bool:
    try:
        return classify_global_generation(v).globally_generated
    except PreconditionError:
        return False


def near_bogomolov(rng: random.Random) -> ChernCharacter:
    """A character on P2 or F0-F5 of rank 2-12, ``c1`` coordinates in -10..10^3 and
    ``c2`` from 2 below to 5 above the Bogomolov bound ``2 rank c2 >= (rank - 1) c1^2``."""
    surface = rng.choice(SURFACES)
    rank = rng.randint(2, 12)
    c1 = surface.divisor(*(rng.randint(-10, 10**3) for _ in surface.basis))
    square = int(c1.self_intersection)
    bogomolov = -(-(rank - 1) * square // (2 * rank))
    return ChernCharacter(rank, c1, Fraction(square, 2) - bogomolov - rng.randint(-2, 5))


def test_nef_twists_keep_ample_general_and_globally_generated():
    rng, premises = random.Random(13), Counter()
    for _ in range(3000):
        v = near_bogomolov(rng)
        ample, gg = ample_gg_verdict(v).ample_general, _globally_generated(v)
        for line in _nef_generators(v.surface):
            w = v.twist(line)
            assert not ample or ample_gg_verdict(w).ample_general, (v, line)
            assert not gg or _globally_generated(w), (v, line)
        premises["ample-general"] += ample
        premises["globally generated"] += gg
    assert min(premises["ample-general"], premises["globally generated"]) >= 200, premises


def test_serre_duality_and_delta_under_twist_and_dual():
    """Every draw is a premise of both relations.  A twist or dual carries its source's
    ``delta``, so the relation reads ``delta`` of each result rebuilt through the validating
    constructor, which computes it afresh, and then checks the carried value against it."""
    rng = random.Random(14)
    for _ in range(1000):
        v = near_bogomolov(rng)
        surface = v.surface
        serre_dual = v.dual().twist(surface.canonical)
        assert v.euler_characteristic() == serre_dual.euler_characteristic(), v
        delta = v.delta
        results = [("dual", v.dual())]
        results += [(d, v.twist(d)) for d in (*_nef_generators(surface), surface.canonical)]
        for label, w in results:
            rebuilt = ChernCharacter(w.rank, w.c1, w.ch2)
            assert "delta" not in rebuilt.__dict__, (v, label)
            assert rebuilt.delta == delta, (v, label)
            assert "delta" in w.__dict__ and w.delta == rebuilt.delta, (v, label)
