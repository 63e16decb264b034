from fractions import Fraction

import pytest
from hypothesis import given

from amplecheck import (
    CohomologyTriple,
    NonspecialTrace,
    PreconditionError,
    Surface,
    h0_line_bundle,
    is_irreducible_curve_class,
    make_character,
    nonspecial_all_twists,
    wbn_applicable,
    wbn_cohomology,
)
from conftest import characters
from oracles import line_bundle_character

P2 = Surface.projective_plane()
F1 = Surface.hirzebruch(1)
F2 = Surface.hirzebruch(2)


class TestApplicability:
    def test_plane_needs_only_delta(self):
        assert wbn_applicable(make_character(2, P2.divisor(3), Fraction(3, 2)))
        assert not wbn_applicable(make_character(2, P2.zero, 1))  # delta = -1/2

    def test_hirzebruch_balanced_example(self):
        v = make_character(2, F1.divisor(2, 4), 3)
        result = wbn_applicable(v)
        assert result.applicable
        assert v.delta == 0

    def test_section_slope_clause(self):
        # nu.E = -2 < -1 while delta = 2 >= 0
        v = make_character(1, F2.divisor(0, -2), -2)
        result = wbn_applicable(v)
        assert not result
        assert result.delta_ok and result.fiber_ok and not result.section_ok
        assert result.failures == ("nu.E < -1",)


class TestCohomologyOfGeneralBundle:
    def test_split_positive(self):
        v = make_character(2, P2.divisor(2), 1)  # ch of O(1)+O(1)
        assert wbn_cohomology(v) == CohomologyTriple(6, 0, 0)
        assert wbn_cohomology(v).h0 == 2 * h0_line_bundle(P2.divisor(1))

    def test_cotangent(self):
        triple = wbn_cohomology(make_character(2, P2.divisor(-3), Fraction(3, 2)))
        assert (triple.h0, triple.h1, triple.h2) == (0, 1, 0)

    def test_hirzebruch_split(self):
        triple = wbn_cohomology(make_character(2, F1.divisor(2, 4), 3))
        assert (triple.h0, triple.h1, triple.h2) == (10, 0, 0)
        assert triple.h0 == 2 * h0_line_bundle(F1.divisor(1, 2))

    def test_rejects_when_hypotheses_fail(self):
        with pytest.raises(PreconditionError):
            wbn_cohomology(make_character(2, P2.zero, 1))

    @given(characters())
    def test_triple_shape(self, v):
        if not wbn_applicable(v):
            return
        triple = wbn_cohomology(v)
        assert triple.h0 - triple.h1 + triple.h2 == v.euler_characteristic()
        assert triple.h0 * triple.h1 == 0
        assert triple.h2 == 0


class TestSplitCharacterOracle:
    @pytest.mark.parametrize("e", [0, 1, 2])
    def test_sum_of_nef_line_bundles(self, e):
        surface = Surface.hirzebruch(e)
        nef_classes = [
            surface.divisor(a, b) for a in range(0, 3) for b in range(a * e, a * e + 4)
        ]
        for d1 in nef_classes:
            for d2 in nef_classes:
                v = line_bundle_character(d1) + line_bundle_character(d2)
                if not wbn_applicable(v):
                    continue
                expected = h0_line_bundle(d1) + h0_line_bundle(d2)
                assert wbn_cohomology(v).h0 == expected


class TestNonspecialTwists:
    def test_plane_trace(self):
        trace = nonspecial_all_twists(make_character(2, P2.divisor(4), 0))
        assert trace.holds
        assert trace.fiber_margin is None and trace.section_margin is None

    def test_hirzebruch_margins(self):
        v = make_character(2, F1.divisor(3, 5), Fraction(5, 2))
        trace = nonspecial_all_twists(v)
        # nu.F = 3/2 and nu.E = 1: worst-case twisted slopes clear the
        # thresholds by nu.F - 1 and nu.E - 1
        assert trace.fiber_margin == Fraction(1, 2)
        assert trace.section_margin == 0
        assert trace.holds

    def test_holds_reads_every_margin(self):
        assert not NonspecialTrace(Fraction(-1, 8)).holds
        assert not NonspecialTrace(Fraction(0), fiber_margin=Fraction(0)).holds
        assert not NonspecialTrace(Fraction(0), section_margin=Fraction(-1, 2)).holds
        assert NonspecialTrace(Fraction(0), Fraction(1, 2), Fraction(0)).holds

    def test_slope_hypotheses_enforced(self):
        with pytest.raises(PreconditionError):
            nonspecial_all_twists(make_character(2, P2.divisor(3), Fraction(3, 2)))

    def test_bogomolov_enforced(self):
        v = make_character(2, P2.divisor(5), Fraction(15, 2))  # delta = -5/8
        with pytest.raises(PreconditionError):
            nonspecial_all_twists(v)

    def test_margins_witness_every_irreducible_class(self):
        # spot-check the symbolic bound: each irreducible D keeps the
        # twisted character within the weak Brill-Noether range
        v = make_character(2, F2.divisor(3, 8), 2)
        assert nonspecial_all_twists(v).holds
        k = F2.canonical
        for a in range(0, 6):
            for b in range(0, 12):
                d = F2.divisor(a, b)
                if not is_irreducible_curve_class(d):
                    continue
                assert wbn_applicable(v.twist(k + d))
