import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from amplecheck import (
    ChernCharacter,
    ObstructionVerdict,
    PreconditionError,
    Surface,
    ample_gg_verdict,
    asymptotic_ample_certificate,
    classify_global_generation,
    enumerate_bad_curves,
    gg_quick_criterion,
    is_big_and_nef,
    is_nef,
    kernel_character,
    make_character,
    necessary_obstructions,
    nonspecial_all_twists,
    parse_character,
    parse_surface,
    slope_conditions,
    wbn_applicable,
    wbn_cohomology,
)
from amplecheck import positivity, surfaces
from amplecheck.positivity import is_tangent_bundle
from conftest import ALL_SURFACES, characters, random_divisor, random_valid_character
from oracles import fulton_lazarsfeld_margin, slope_conditions_oracle, tangent_bundle_character

P2 = Surface.projective_plane()
F0 = Surface.hirzebruch(0)
F1 = Surface.hirzebruch(1)
F2 = Surface.hirzebruch(2)

TANGENT = make_character(2, P2.divisor(3), Fraction(3, 2))
INTRO = make_character(2, P2.divisor(3), Fraction(1, 2))  # (r, nu, delta) = (2, 3/2 H, 7/8)


class TestBogomolov:
    def test_examples(self):
        assert TANGENT.delta >= 0
        assert make_character(1, P2.zero, 0).delta >= 0
        assert make_character(2, P2.zero, 1).delta < 0  # delta = -1/2


NEGATIVE_DELTA = make_character(2, P2.zero, 1)  # delta = -1/2
SLOPES_FAIL = make_character(2, F0.divisor(2, 2), 0)  # nu.F = nu.E = 1, delta = 1
DELTA_TEXT = "delta = -1/2 < 0: no semistable bundle exists"
SLOPE_TEXT = (
    "slope hypotheses fail for 2:2,2:0: fiber-slope-exceeds-one, section-slope-exceeds-one"
)


@pytest.mark.parametrize(
    "procedure, v, message",
    [
        pytest.param(f, NEGATIVE_DELTA, DELTA_TEXT, id=f"{f.__name__}-delta")
        for f in (
            classify_global_generation,
            gg_quick_criterion,
            nonspecial_all_twists,
            enumerate_bad_curves,
            asymptotic_ample_certificate,
        )
    ]
    + [
        pytest.param(f, SLOPES_FAIL, SLOPE_TEXT, id=f"{f.__name__}-slopes")
        for f in (nonspecial_all_twists, enumerate_bad_curves, asymptotic_ample_certificate)
    ]
    + [pytest.param(wbn_cohomology, NEGATIVE_DELTA, "hypotheses fail: delta < 0",
                    id="wbn_cohomology-delta")],
)
def test_precondition_gate_messages(procedure, v, message):
    with pytest.raises(PreconditionError) as exc:
        procedure(v)
    assert str(exc.value) == message


SLOPE_SURFACES = (Surface.projective_plane(),) + tuple(Surface.hirzebruch(e) for e in range(6))


@st.composite
def wide_characters(draw):
    """P2 and F0-F5, ranks 1-6, c1 coordinates within 50 of zero."""
    surface = draw(st.sampled_from(SLOPE_SURFACES))
    rank = draw(st.integers(1, 6))
    c1 = surface.divisor(*[draw(st.integers(-50, 50)) for _ in surface.basis])
    c2 = draw(st.integers(-20, 20))
    return ChernCharacter(rank, c1, Fraction(c1.self_intersection, 2) - c2)


class TestIntegerSlopes:
    """Integer pairings of ``c1`` against the rank agree with the slope class ``nu``."""

    @given(wide_characters(), st.booleans())
    def test_slope_conditions_match_the_oracle(self, v, asymptotic):
        got = tuple(
            (c.id, c.holds, c.margin) for c in slope_conditions(v, asymptotic=asymptotic)
        )
        assert got == slope_conditions_oracle(v, asymptotic)
        assert all(type(c.margin) is Fraction for c in slope_conditions(v, asymptotic=asymptotic))

    @given(wide_characters())
    def test_cone_tests_are_scale_invariant(self, v):
        h = v.surface.polarization
        assert is_nef(v.c1) == is_nef(v.nu)
        assert is_big_and_nef(v.c1 - v.rank * h) == is_big_and_nef(v.nu - h)

    @given(wide_characters())
    def test_weak_brill_noether_flags_match_nu(self, v):
        w = wbn_applicable(v)
        if not v.surface.is_plane:
            assert w.fiber_ok == (v.nu.dot(v.surface.fiber_class) >= -1)
            assert w.section_ok == (v.nu.dot(v.surface.divisor(1, 0)) >= -1)


class TestSlopeConditionsOncePerCharacter:
    """``slope_conditions`` stores its tuple in the character, one per mode on the plane
    and one for both modes on F_e; a twist, dual, multiple or kernel builds its own."""

    def test_a_character_returns_its_stored_tuple(self):
        for surface, ch in (("P2", "2:20:-142"), ("F2", "2:3,8:2")):
            v = parse_character(ch, parse_surface(surface))
            for asymptotic in (False, True):
                assert slope_conditions(v, asymptotic=asymptotic) is slope_conditions(
                    v, asymptotic=asymptotic)
            shared = slope_conditions(v, asymptotic=True) is slope_conditions(v)
            assert shared is not v.surface.is_plane

    @pytest.mark.parametrize("first", [False, True], ids=["default-first", "asymptotic-first"])
    def test_plane_modes_match_the_oracle_in_either_order(self, first):
        rng = random.Random(33 + first)
        for _ in range(300):
            v = random_valid_character(rng, P2)
            for asymptotic in (first, not first, first):
                got = slope_conditions(v, asymptotic=asymptotic)
                assert tuple((c.id, c.holds, c.margin) for c in got) == (
                    slope_conditions_oracle(v, asymptotic)), (v, asymptotic)

    def test_derived_characters_do_not_inherit_the_conditions(self):
        """Each derived character's conditions equal those of the same character rebuilt
        through the validating constructor, which starts with no stored tuple."""
        rng = random.Random(33)
        for surface in ALL_SURFACES:
            for _ in range(150):
                v = random_valid_character(rng, surface)
                stored = [slope_conditions(v, asymptotic=a) for a in (False, True)]
                derived = {"twist": v.twist(random_divisor(rng, surface)), "dual": v.dual(),
                           "scale": v.scale(3), "kernel": kernel_character(v, rng.randint(1, 4))}
                for label, w in derived.items():
                    rebuilt = ChernCharacter(w.rank, w.c1, w.ch2)
                    for asymptotic in (False, True):
                        assert slope_conditions(w, asymptotic=asymptotic) == slope_conditions(
                            rebuilt, asymptotic=asymptotic), (v, label, asymptotic)
                assert stored == [slope_conditions(v, asymptotic=a) for a in (False, True)]

    def test_the_obstructions_reuse_the_sharp_section_condition(self):
        """On F_e, e >= 1, ``section-slope-at-least-one`` is the sharp section condition, so
        the two entries the obstructions list for rank >= 2 are one object."""
        v = make_character(2, F1.divisor(3, 5), Fraction(5, 2))
        conditions = necessary_obstructions(v).conditions
        entries = [c for c in conditions if c.id == "section-slope-at-least-one"]
        assert len(entries) == 2 and entries[0] is entries[1] is slope_conditions(v)[1]


class TestFultonLazarsfeld:
    def test_rank_two_boundary_is_27_eighths(self):
        nu = P2.divisor(Fraction(3, 2))
        eps = Fraction(1, 10**6)
        assert fulton_lazarsfeld_margin(2, nu, Fraction(27, 8) - eps) > 0
        assert not fulton_lazarsfeld_margin(2, nu, Fraction(27, 8)) > 0

    def test_intro_character_passes(self):
        margin = fulton_lazarsfeld_margin(INTRO.rank, INTRO.nu, INTRO.delta)
        assert margin > 0 and margin == Fraction(5, 6)

    def test_discriminant_seven_halves_fails(self):
        assert fulton_lazarsfeld_margin(2, P2.divisor(Fraction(3, 2)), Fraction(7, 2)) < 0

    def test_tangent_bundle_passes(self):
        margin = fulton_lazarsfeld_margin(TANGENT.rank, TANGENT.nu, TANGENT.delta)
        assert margin > 0 and margin == 1

    @given(characters())
    def test_margin_formula(self, v):
        margin = fulton_lazarsfeld_margin(v.rank, v.nu, v.delta)
        assert margin == v.nu.self_intersection / 2 - v.delta / (v.rank + 1)
        (fl,) = [c for c in necessary_obstructions(v).conditions if c.id == "fulton-lazarsfeld"]
        assert fl.holds == (margin > 0) and fl.margin == margin

    @given(
        st.sampled_from(SLOPE_SURFACES),
        st.integers(1, 10**40),
        st.tuples(st.integers(-(10**40), 10**40), st.integers(-(10**40), 10**40)),
        st.integers(-(10**81), 10**81),
    )
    def test_closed_form_margin_on_large_characters(self, surface, rank, pair, c2):
        """The checklist's margin, ``(c1^2 - c2)/(rank*(rank+1))`` in integers, is the
        margin on the logarithmic invariants."""
        c1 = surface.divisor(*pair[: len(surface.basis)])
        v = ChernCharacter(rank, c1, Fraction(c1.self_intersection, 2) - c2)
        (fl,) = [c for c in necessary_obstructions(v).conditions if c.id == "fulton-lazarsfeld"]
        assert fl.margin == fulton_lazarsfeld_margin(v.rank, v.nu, v.delta)
        assert fl.holds == (fl.margin > 0) and type(fl.margin) is Fraction


class TestObstructions:
    def test_intro_character_obstructed(self):
        report = necessary_obstructions(INTRO)
        assert report.verdict is ObstructionVerdict.OBSTRUCTED
        failed = {c.id for c in report.conditions if not c.holds}
        assert failed == {"slope-exceeds-one-plus-inverse-rank"}
        assert report.stability_assumed

    def test_tangent_bundle_exception(self):
        report = necessary_obstructions(TANGENT)
        assert report.verdict is ObstructionVerdict.EXCEPTIONAL_TANGENT_BUNDLE
        assert report.note is not None

    def test_exception_is_exactly_one_character(self):
        rng = random.Random(7)
        hits = []
        for surface in ALL_SURFACES:
            for _ in range(400):
                v = random_valid_character(rng, surface)
                if necessary_obstructions(v).verdict is ObstructionVerdict.EXCEPTIONAL_TANGENT_BUNDLE:
                    hits.append(v)
        assert all(v == TANGENT for v in hits)
        assert necessary_obstructions(TANGENT).verdict is (
            ObstructionVerdict.EXCEPTIONAL_TANGENT_BUNDLE
        )

    def test_fiber_slope_one_cites_line_bundle_forcing(self):
        v = make_character(2, F1.divisor(2, 4), 3)  # nu.F = 1
        report = necessary_obstructions(v)
        assert report.verdict is ObstructionVerdict.OBSTRUCTED
        assert "line-bundle-forcing" in {c.id for c in report.conditions if not c.holds}

    def test_unobstructed_example(self):
        report = necessary_obstructions(make_character(2, P2.divisor(4), 0))
        assert report.verdict is ObstructionVerdict.UNOBSTRUCTED
        assert [c for c in report.conditions if not c.holds] == []

    def test_rank_one_skips_rank_sensitive_clauses(self):
        report = necessary_obstructions(make_character(1, F2.divisor(1, 3), 0))
        ids = {c.id for c in report.conditions}
        assert "line-bundle-forcing" not in ids
        assert "fiber-slope-exceeds-one" not in ids

    def test_monotone_under_nef_twists(self):
        rng = random.Random(11)
        checked = 0
        for surface in ALL_SURFACES:
            for _ in range(600):
                v = random_valid_character(rng, surface)
                if necessary_obstructions(v).verdict is not ObstructionVerdict.UNOBSTRUCTED:
                    continue
                if surface.is_plane:
                    nef = surface.divisor(rng.randint(0, 4))
                else:
                    a = rng.randint(0, 3)
                    nef = surface.divisor(a, a * surface.e + rng.randint(0, 4))
                twisted = v.twist(nef)
                assert (
                    necessary_obstructions(twisted).verdict
                    is ObstructionVerdict.UNOBSTRUCTED
                )
                checked += 1
        assert checked > 50


class TestGlobalGenerationPlane:
    def test_case_1_trivial_character(self):
        gg = classify_global_generation(make_character(3, P2.zero, 0))
        assert gg.globally_generated and gg.case == 1

    def test_case_2_tangent_bundle(self):
        gg = classify_global_generation(TANGENT)
        assert gg.globally_generated and gg.case == 2
        assert gg.chi_twist == 3  # chi(T(-1)) = 3 chi(O) - chi(O(-1))

    def test_case_3(self):
        gg = classify_global_generation(make_character(2, P2.divisor(3), Fraction(-5, 2)))
        assert gg.globally_generated and gg.case == 3
        assert gg.chi == 4 and gg.chi_twist == -1

    def test_case_4_special_character(self):
        v = make_character(3, P2.divisor(2), -2)  # (rank+1) ch O - ch O(-2H)
        gg = classify_global_generation(v)
        assert gg.globally_generated and gg.case == 4
        assert gg.chi == 4  # rank + 1

    def test_not_gg_when_chi_too_small(self):
        gg = classify_global_generation(make_character(2, P2.divisor(1), Fraction(-5, 2)))
        assert not gg.globally_generated
        assert gg.failed_condition is not None

    def test_zero_slope_non_trivial(self):
        gg = classify_global_generation(make_character(2, P2.zero, -1))
        assert not gg.globally_generated

    def test_rejects_negative_discriminant(self):
        with pytest.raises(PreconditionError):
            classify_global_generation(make_character(2, P2.zero, 1))

    def test_rejects_rank_one(self):
        with pytest.raises(PreconditionError):
            classify_global_generation(make_character(1, P2.divisor(1), Fraction(1, 2)))


class TestGlobalGenerationHirzebruch:
    def test_rejects_non_nef_slope(self):
        with pytest.raises(PreconditionError):
            classify_global_generation(make_character(2, F2.divisor(2, 1), 1))

    def test_case_1_balanced_fiber_twists(self):
        gg = classify_global_generation(make_character(2, F2.divisor(0, 3), 0))
        assert gg.globally_generated and gg.case == 1
        assert gg.balanced_split == (1, 1)

    def test_case_1_includes_pure_powers(self):
        # O + O(F) and O(F)^2 are globally generated although the balanced
        # decomposition needs a = 0 or m = 0
        for coeff, split in ((1, (0, 1)), (2, (1, 0))):
            gg = classify_global_generation(make_character(2, F2.divisor(0, coeff), 0))
            assert gg.globally_generated and gg.case == 1
            assert gg.balanced_split == split

    def test_fiber_degree_zero_with_nonzero_ch2(self):
        gg = classify_global_generation(make_character(2, F0.divisor(0, 2), -1))
        assert not gg.globally_generated

    def test_case_2(self):
        gg = classify_global_generation(make_character(2, F1.divisor(2, 4), 3))
        assert gg.globally_generated and gg.case == 2

    def test_case_4_f1_special_character(self):
        v = make_character(2, F1.divisor(2, 2), -2)  # (rank+1) ch O - ch O(-2E-2F)
        gg = classify_global_generation(v)
        assert gg.globally_generated and gg.case == 4
        assert gg.chi == 3

    def test_chi_rank_plus_one_but_not_special(self):
        v = make_character(2, F1.divisor(2, 3), -3)
        gg = classify_global_generation(v)
        assert gg.chi == 3 and gg.chi_twist == -1
        assert not gg.globally_generated

    def test_f0_case_1_along_section(self):
        gg = classify_global_generation(make_character(3, F0.divisor(2, 0), 0))
        assert gg.globally_generated and gg.case == 1
        assert gg.balanced_split == (0, 2)

    def test_f0_case_2(self):
        gg = classify_global_generation(make_character(2, F0.divisor(2, 2), 0))
        assert gg.globally_generated and gg.case == 2


class TestQuickCriterion:
    def test_plane_example(self):
        assert gg_quick_criterion(make_character(2, P2.divisor(4), 0))

    def test_hirzebruch_example(self):
        assert gg_quick_criterion(make_character(2, F1.divisor(2, 4), 3))

    def test_silent_is_not_negative(self):
        # case 3 character: quick criterion is silent, classification says gg
        v = make_character(2, P2.divisor(3), Fraction(-5, 2))
        assert not gg_quick_criterion(v)
        assert classify_global_generation(v).globally_generated

    def test_quick_implies_classified(self):
        rng = random.Random(23)
        confirmed = 0
        for surface in ALL_SURFACES:
            for _ in range(2000):
                v = random_valid_character(rng, surface)
                if v.rank < 2 or v.delta < 0 or not is_big_and_nef(v.nu):
                    continue
                if gg_quick_criterion(v):
                    assert classify_global_generation(v).globally_generated
                    confirmed += 1
        assert confirmed > 100


@pytest.mark.parametrize(
    "surface, ch, message",
    [
        ("P2", "1:1:1/2", "global generation is classified for rank >= 2, got 1"),
        ("P2", "1:4:8", "global generation is classified for rank >= 2, got 1"),
        ("P2", "2:0:1", DELTA_TEXT),
        ("P2", "2:4:8", "delta = -2 < 0: no semistable bundle exists"),
        ("F2", "2:-1,0:-1", "nu = (-1/2)E is not nef on F2"),
        ("F0", "2:0,3:0", "nu = (3/2)F is not big and nef"),
        ("P2", "2:-1:-1/2", "nu = (-1/2)H is not big and nef"),
    ],
)
def test_quick_criterion_gate_messages(surface, ch, message):
    """The criterion's gate is the classification's, then bigness and nefness of ``nu``."""
    with pytest.raises(PreconditionError) as exc:
        gg_quick_criterion(parse_character(ch, parse_surface(surface)))
    assert str(exc.value) == message


@pytest.mark.parametrize("surface, ch", [("F2", "2:3,8:2"), ("P2", "2:4:0")])
def test_quick_criterion_tests_nefness_once(monkeypatch, surface, ch):
    """On F_e the gate has tested nefness, so the bigness test does not test it again:
    F2 made 2 ``is_nef`` calls before, the gate's and ``is_big_and_nef``'s."""
    v, calls, original = parse_character(ch, parse_surface(surface)), [], surfaces.is_nef
    for module in (surfaces, positivity):  # positivity binds the name at import
        monkeypatch.setattr(module, "is_nef", lambda d: calls.append(d) or original(d))
    assert gg_quick_criterion(v) and calls == [v.c1]


def test_tangent_character_helper():
    assert tangent_bundle_character(P2) == TANGENT
    assert tangent_bundle_character(F1) is None


@given(characters())
def test_tangent_bundle_test_agrees_with_the_character(v):
    assert is_tangent_bundle(v) == (v == tangent_bundle_character(v.surface))
    assert is_tangent_bundle(TANGENT)


def test_tangent_bundle_test_builds_no_character(monkeypatch):
    built = []
    check = ChernCharacter.__init__
    monkeypatch.setattr(ChernCharacter, "__init__", lambda *a: built.append(a) or check(*a))
    assert necessary_obstructions(TANGENT).verdict is ObstructionVerdict.EXCEPTIONAL_TANGENT_BUNDLE
    assert "tangent bundle" in ample_gg_verdict(TANGENT).notes[-1]
    assert built == []


def test_exactly_one_case_fires():
    rng = random.Random(5)
    for surface in ALL_SURFACES:
        for _ in range(400):
            v = random_valid_character(rng, surface)
            if v.rank < 2 or v.delta < 0:
                continue
            if not surface.is_plane:
                from amplecheck import is_nef

                if not is_nef(v.nu):
                    continue
            gg = classify_global_generation(v)
            if gg.globally_generated:
                assert gg.case in (1, 2, 3, 4)
                assert gg.failed_condition is None
            else:
                assert gg.case is None
                assert gg.failed_condition
