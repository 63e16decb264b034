from fractions import Fraction

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from amplecheck import (
    ChernCharacter,
    InvalidCharacterError,
    InvalidDivisorError,
    Surface,
    SurfaceMismatchError,
    from_log_invariants,
    h0_line_bundle,
    kernel_character,
    make_character,
    parse_character,
)
from amplecheck.characters import parse_log_character
from amplecheck.rationals import DIGIT_BUDGET, parse_rational
from amplecheck.report import render_structured, to_json
from conftest import characters, integral_divisors, surfaces_strategy
from oracles import (
    character_text,
    dual_by_ch2,
    hilbert_polynomial,
    kernel_by_ch2,
    line_bundle_character,
    parse_rational_by_fraction,
    scale_by_ch2,
    sum_by_ch2,
    twist_by_ch2,
)

P2 = Surface.projective_plane()
F1 = Surface.hirzebruch(1)
F2 = Surface.hirzebruch(2)

TANGENT = make_character(2, P2.divisor(3), Fraction(3, 2))


class TestConstruction:
    def test_tangent_character_is_valid(self):
        assert TANGENT.c2 == 3

    def test_integrality_rejected(self):
        with pytest.raises(InvalidCharacterError):
            make_character(2, P2.divisor(3), Fraction(1, 3))

    def test_bool_rank_becomes_int(self):
        v = ChernCharacter(True, P2.divisor(1), Fraction(1, 2))
        assert type(v.rank) is int and str(v) == "1:1:1/2"
        assert render_structured(to_json(v)).startswith(b'{\n  "rank": 1,')

    def test_non_integer_rank_rejected(self):
        for rank in (2.0, Fraction(2)):
            with pytest.raises(InvalidCharacterError):
                ChernCharacter(rank, P2.divisor(2), 0)

    def test_rank_zero_rejected(self):
        with pytest.raises(InvalidCharacterError):
            make_character(0, P2.divisor(1), 0)

    def test_negative_rank_rejected(self):
        with pytest.raises(InvalidCharacterError):
            make_character(-2, P2.divisor(1), 0)

    def test_non_integral_c1_rejected(self):
        with pytest.raises(InvalidCharacterError):
            make_character(2, P2.divisor(Fraction(1, 2)), 0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ChernCharacter(2, P2.divisor(3), 1.5),
            lambda: make_character(2, P2.divisor(3), 1.5),
            lambda: from_log_invariants(2, P2.divisor(Fraction(3, 2)), 0.5),
        ],
        ids=["constructor", "make_character", "from_log_invariants"],
    )
    def test_float_ch2_or_delta_rejected(self, build):
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value) == "expected an exact rational, got float"


class TestLogInvariants:
    def test_tangent(self):
        assert TANGENT.mu == Fraction(3, 2)
        assert TANGENT.nu == P2.divisor(Fraction(3, 2))
        assert TANGENT.delta == Fraction(3, 8)

    def test_scale_invariance_example(self):
        doubled = make_character(4, P2.divisor(6), 3)
        assert (doubled.mu, doubled.nu, doubled.delta) == (TANGENT.mu, TANGENT.nu, TANGENT.delta)

    def test_large_discriminant(self):
        v = make_character(2, P2.divisor(20), -142)
        assert v.nu == P2.divisor(10)
        assert v.delta == 121

    def test_hirzebruch_slope_against_polarization(self):
        v = make_character(2, F1.divisor(2, 4), 3)
        # H^2 = e + 2 = 3 on F_1
        assert v.mu == v.nu.dot(F1.polarization) / 3

    @given(characters(), st.integers(1, 4))
    def test_scale_invariance(self, v, n):
        w = v.scale(n)
        assert (w.mu, w.nu, w.delta) == (v.mu, v.nu, v.delta)


class TestEulerCharacteristic:
    def test_structure_sheaf(self):
        for surface in (P2, F1, F2):
            assert make_character(1, surface.zero, 0).euler_characteristic() == 1

    def test_tangent_bundle_via_euler_sequence(self):
        # 0 -> O -> O(1)^3 -> T -> 0 gives chi(T) = 3*chi(O(1)) - chi(O)
        oracle = 3 * h0_line_bundle(P2.divisor(1)) - 1
        assert TANGENT.euler_characteristic() == oracle == 8

    def test_cotangent_bundle(self):
        cotangent = TANGENT.dual()
        assert cotangent.euler_characteristic() == -1

    @given(characters())
    def test_chi_is_always_an_integer(self, v):
        assert isinstance(v.euler_characteristic(), int)

    @given(st.data())
    def test_chi_additive_on_direct_sums(self, data):
        surface = data.draw(surfaces_strategy())
        v = data.draw(characters(surface))
        w = data.draw(characters(surface))
        total = v + w
        assert (
            total.euler_characteristic()
            == v.euler_characteristic() + w.euler_characteristic()
        )


BIG = 10**6
HUGE = 10**40
COORD = st.integers(-HUGE, HUGE)
WIDE_SURFACES = (Surface.projective_plane(),) + tuple(Surface.hirzebruch(e) for e in range(6))


@st.composite
def wide_character_and_divisor(draw):
    """A character and an integral class on P2 or F0-F5, coordinates up to 10^6."""
    surface = draw(st.sampled_from(WIDE_SURFACES))
    coord = st.integers(-BIG, BIG)
    c1 = surface.divisor(*[draw(coord) for _ in surface.basis])
    v = ChernCharacter(draw(st.integers(1, BIG)), c1, c1.self_intersection / 2 - draw(coord))
    return v, surface.divisor(*[draw(coord) for _ in surface.basis])


class TestIntegerRiemannRoch:
    @given(wide_character_and_divisor())
    def test_twisted_chi_matches_the_twisted_character(self, pair):
        v, d = pair
        assert v.twisted_chi(d) == v.twist(d).euler_characteristic()

    @given(wide_character_and_divisor())
    def test_integer_chi_matches_hilbert_polynomial_form(self, pair):
        v, _ = pair
        assert v.euler_characteristic() == v.rank * (hilbert_polynomial(v.nu) - v.delta)

    @given(wide_character_and_divisor())
    def test_cached_invariants_leave_identity_alone(self, pair):
        v, d = pair
        fresh = ChernCharacter(v.rank, v.c1, v.ch2)
        v.mu, v.nu, v.delta, v.c2, v.euler_characteristic(), v.twisted_chi(d)  # fill caches
        assert v == fresh and hash(v) == hash(fresh)
        shifted = ChernCharacter(v.rank, v.c1, v.ch2 + 1)
        assert shifted.c2 == v.c2 - 1
        assert shifted.delta == v.delta - Fraction(1, v.rank)
        assert shifted.euler_characteristic() == v.euler_characteristic() + 1

    @given(wide_character_and_divisor(), st.integers(2, 7))
    def test_non_integral_twist_rejected(self, pair, den):
        v, d = pair
        offset = [Fraction(1, den)] + [0] * (len(d.coords) - 1)
        with pytest.raises(InvalidDivisorError):
            v.twisted_chi(d + d.surface.divisor(*offset))

    def test_twist_from_another_surface_rejected(self):
        with pytest.raises(SurfaceMismatchError):
            TANGENT.twisted_chi(F1.divisor(1, 0))

    @pytest.mark.parametrize("method", ["twisted_chi", "twist"])
    def test_argument_errors_name_the_class_and_the_surfaces(self, method):
        """The public twists keep both checks that the library's int-tuple twists skip."""
        with pytest.raises(InvalidDivisorError) as exc:
            getattr(TANGENT, method)(P2.divisor(Fraction(1, 2)))
        assert str(exc.value) == "twists are by integral classes, got (1/2)H"
        with pytest.raises(SurfaceMismatchError) as exc:
            getattr(TANGENT, method)(F1.divisor(1, 0))
        assert str(exc.value) == "cannot combine classes on P2 and F1"


class TestTwist:
    def test_twist_by_zero(self):
        assert TANGENT.twist(P2.zero) == TANGENT

    def test_tangent_twist_down(self):
        twisted = TANGENT.twist(P2.divisor(-1))
        assert twisted == make_character(2, P2.divisor(1), Fraction(-1, 2))
        assert twisted.delta == Fraction(3, 8)

    def test_line_bundle_rule(self):
        for d in (P2.divisor(4), F2.divisor(2, 5)):
            trivial = make_character(1, d.surface.zero, 0)
            assert trivial.twist(d) == line_bundle_character(d)

    def test_non_integral_twist_rejected(self):
        with pytest.raises(InvalidDivisorError):
            TANGENT.twist(P2.divisor(Fraction(1, 2)))

    @given(st.data())
    def test_composition(self, data):
        surface = data.draw(surfaces_strategy())
        v = data.draw(characters(surface))
        d1 = data.draw(integral_divisors(surface))
        d2 = data.draw(integral_divisors(surface))
        assert v.twist(d1).twist(d2) == v.twist(d1 + d2)

    @given(st.data())
    def test_invariants_under_twist(self, data):
        surface = data.draw(surfaces_strategy())
        v = data.draw(characters(surface))
        d = data.draw(integral_divisors(surface))
        twisted = v.twist(d)
        assert twisted.delta == v.delta
        assert twisted.nu == v.nu + d


class TestDualAndScale:
    def test_dual_examples(self):
        assert TANGENT.dual() == make_character(2, P2.divisor(-3), Fraction(3, 2))
        d = F1.divisor(1, 2)
        assert line_bundle_character(d).dual() == make_character(
            1, -d, d.self_intersection / 2
        )

    @given(characters())
    def test_dual_is_an_involution(self, v):
        assert v.dual().dual() == v

    def test_scale_examples(self):
        v = make_character(2, P2.divisor(20), -142)
        assert v.scale(1) == v
        assert v.scale(2) == make_character(4, P2.divisor(40), -284)

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(InvalidCharacterError):
            TANGENT.scale(0)

    def test_scale_factor_is_an_int(self):
        assert TANGENT.scale(True) == TANGENT and type(TANGENT.scale(True).rank) is int
        with pytest.raises(InvalidCharacterError):
            TANGENT.scale(2.0)


def _held_as_ints(v: ChernCharacter) -> bool:
    return all(type(x) is int for x in (v.rank, *v.c1.coords, v.c2))


class TestTrustedPaths:
    """Twists, duals, multiples, sums and kernels are built without re-validation,
    from ``c2`` in ints; each must equal the ``ch2`` formula through the checks."""

    @given(wide_character_and_divisor())
    def test_twist_matches_the_ch2_formula(self, pair):
        v, d = pair
        twisted = v.twist(d)
        assert twisted == twist_by_ch2(v, d) and _held_as_ints(twisted)
        assert twisted.ch2 == twist_by_ch2(v, d).ch2

    @given(wide_character_and_divisor(), st.integers(1, 9))
    def test_dual_and_scale_match_the_ch2_formula(self, pair, n):
        v, _ = pair
        assert v.dual() == dual_by_ch2(v) and _held_as_ints(v.dual())
        assert v.scale(n) == scale_by_ch2(v, n) and _held_as_ints(v.scale(n))

    @given(wide_character_and_divisor(), wide_character_and_divisor())
    def test_sum_matches_the_ch2_formula(self, pair, other):
        v, d = pair
        w = other[0]
        if w.surface != v.surface:
            w = ChernCharacter(w.rank, d, Fraction(d.self_intersection, 2) - w.c2)
        assert v + w == sum_by_ch2(v, w) and _held_as_ints(v + w)

    @given(wide_character_and_divisor(), st.integers(1, 40), st.integers(2, 6))
    def test_kernel_matches_the_ch2_formula(self, pair, n, s):
        v, _ = pair
        kernel = kernel_character(v, n, s)
        assert kernel == kernel_by_ch2(v, n, s) and _held_as_ints(kernel)
        assert kernel.delta == kernel_by_ch2(v, n, s).delta

    def test_kernel_of_other_rationals_goes_through_the_checks(self):
        with pytest.raises(InvalidCharacterError, match="rank must be a positive integer"):
            kernel_character(TANGENT, 1, Fraction(3))
        with pytest.raises(InvalidCharacterError,
                           match="^the multiplier must be a positive integer, got 2$"):
            kernel_character(TANGENT, Fraction(2))
        assert kernel_character(TANGENT, True, True + 1) == kernel_character(TANGENT, 1)

    def test_sums_across_surfaces_rejected(self):
        with pytest.raises(SurfaceMismatchError):
            TANGENT + make_character(2, F1.divisor(1, 1), Fraction(1, 2))

    def test_repr_shows_c2_and_the_constructor_keeps_ch2(self):
        assert repr(TANGENT) == (
            "ChernCharacter(rank=2, c1=DivisorClass(surface=Surface("
            "kind=<SurfaceKind.PROJECTIVE_PLANE: 'P2'>, e=0), coords=(3,)), c2=3)"
        )
        assert TANGENT.ch2 == Fraction(3, 2) and TANGENT._fields == ("rank", "c1", "c2")


class TestLineBundleCharacters:
    def test_integral_classes_only(self):
        with pytest.raises(InvalidDivisorError):
            line_bundle_character(P2.divisor(Fraction(1, 2)))

    def test_examples(self):
        assert line_bundle_character(P2.zero) == make_character(1, P2.zero, 0)
        assert line_bundle_character(P2.divisor(1)) == make_character(
            1, P2.divisor(1), Fraction(1, 2)
        )
        assert line_bundle_character(F1.divisor(1, 2)) == make_character(
            1, F1.divisor(1, 2), Fraction(3, 2)
        )

    def test_chi_triangle_with_section_counts(self):
        # h1 computed from the h0 oracle and Serre duality must be a
        # nonnegative integer for every integral class
        for surface in (P2, F1, F2):
            k = surface.canonical
            coords_range = range(-5, 6)
            if surface.is_plane:
                classes = [surface.divisor(a) for a in coords_range]
            else:
                classes = [
                    surface.divisor(a, b) for a in coords_range for b in coords_range
                ]
            for d in classes:
                chi = line_bundle_character(d).euler_characteristic()
                h0 = h0_line_bundle(d)
                h2 = h0_line_bundle(k - d)  # Serre duality
                h1 = h0 + h2 - chi
                assert h1 >= 0
                assert h0 - h1 + h2 == chi


class TestLogarithmicConstructor:
    def test_intro_character(self):
        v = from_log_invariants(2, P2.divisor(Fraction(3, 2)), Fraction(7, 8))
        assert v == make_character(2, P2.divisor(3), Fraction(1, 2))
        assert v.delta == Fraction(7, 8)

    def test_round_trip(self):
        v = make_character(3, F2.divisor(4, 9), 16)
        again = from_log_invariants(v.rank, v.nu, v.delta)
        assert again == v

    def test_denominators_must_clear(self):
        with pytest.raises(InvalidCharacterError):
            from_log_invariants(2, P2.divisor(Fraction(1, 3)), 0)

    def test_rank_must_be_positive(self):
        with pytest.raises(InvalidCharacterError):
            from_log_invariants(0, P2.divisor(1), 0)

    def test_no_character_at_off_lattice_discriminant(self):
        delta = Fraction(27, 8) - Fraction(1, 10**6)
        with pytest.raises(InvalidCharacterError):
            from_log_invariants(2, P2.divisor(Fraction(3, 2)), delta)


class TestTextualForm:
    def test_parse_round_trip(self):
        for surface, text in ((P2, "2:3:3/2"), (F1, "2:3,5:5/2"), (F2, "1:-2,0:-2")):
            v = parse_character(text, surface)
            assert str(v) == text
            assert parse_character(str(v), surface) == v

    @given(st.sampled_from(WIDE_SURFACES), st.integers(1, HUGE), st.tuples(COORD, COORD), COORD)
    @example(P2, 7, (3, 0), HUGE)  # ch2 = 9/2 - 10^40
    @example(Surface.hirzebruch(5), HUGE, (1 - HUGE, HUGE), -HUGE)  # c1^2 odd
    def test_str_matches_the_oracle_beyond_the_census_box(self, surface, rank, pair, c2):
        coords = pair[: len(surface.basis)]
        c1 = surface.divisor(*coords)
        v = ChernCharacter(rank, c1, c1.self_intersection / 2 - c2)
        assert str(v) == character_text(surface, rank, coords, c2)
        assert str(v.dual()) == character_text(surface, rank, tuple(-c for c in coords), c2)

    def test_parse_rejects_malformed(self):
        for surface, text in (
            (P2, "2:3"),
            (P2, "x:3:0"),
            (P2, "2:3,5:0"),
            (F1, "2:3:0"),
            (F1, "2:3,5:1.5"),
        ):
            with pytest.raises(ValueError):
                parse_character(text, surface)

    def test_parse_rejects_integrality_failure(self):
        with pytest.raises(InvalidCharacterError):
            parse_character("2:3,5:1/3", F2)

    def test_numbers_are_ascii_p_or_p_over_q(self):
        for text, message in (
            ("2:1e5:0", "malformed rational '1e5'"),
            ("2:1_0:0", "malformed rational '1_0'"),
            ("2:\u0663:0", "malformed rational '\u0663'"),
            ("2:3:1/0", "malformed rational '1/0'"),
            ("2:3:1.5e3", "decimal notation not accepted (use p/q): '1.5e3'"),
            ("1_0:1:0", "malformed rank '1_0'"),
            ("\u0662:4:0", "malformed rank '\u0662'"),
        ):
            with pytest.raises(ValueError) as info:
                parse_character(text, P2)
            assert str(info.value) == message, text
        assert parse_character(" +2:-3:+1/2 ", P2) == make_character(2, P2.divisor(-3), Fraction(1, 2))

    @given(
        st.lists(
            st.sampled_from(
                ["", "+", "-", " ", "0", "00", "7", "12", "/", "/0", "/000", "/3", "1.5", "1e3",
                 "1_0", "\u0663", "\uff11", "9" * (DIGIT_BUDGET - 1), "8" * DIGIT_BUDGET]
            ),
            max_size=6,
        ).map("".join)
    )
    @example("-007/000")
    @example(" +0012/0004 ")
    @example("1" * (DIGIT_BUDGET + 1))
    def test_parse_rational_agrees_with_fraction_parsing(self, text):
        """Built from the match's digits, the value and every error text are those of
        parsing the text again with ``Fraction``."""
        try:
            expected = parse_rational_by_fraction(text, "c1 coordinate")
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                parse_rational(text, "c1 coordinate")
            assert str(info.value) == str(exc)
        else:
            got = parse_rational(text, "c1 coordinate")
            assert got == expected and type(got) is (int if "/" not in text else Fraction)


class TestLogarithmicForm:
    def test_parse(self):
        assert parse_log_character("2:3/2:3/8", P2) == TANGENT
        assert parse_log_character("2:3/2,5/2:11/8", F1) == parse_character("2:3,5:5/2", F1)

    def test_shares_the_grammar_of_the_canonical_form(self):
        for text, message in (
            ("2:1", "malformed logarithmic character '2:1': expected 'r:nu:delta'"),
            ("x:1:0", "malformed rank 'x'"),
            ("2:1,2:0", "nu on P2 needs 1 coordinates, got '1,2'"),
            ("2:1e1:0", "malformed rational '1e1'"),
            ("2:1:1/0", "malformed rational '1/0'"),
        ):
            with pytest.raises(ValueError) as info:
                parse_log_character(text, P2)
            assert str(info.value) == message, text
