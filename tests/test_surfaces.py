import copy
import pickle
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
import hypothesis.strategies as st

from amplecheck import (
    DivisorClass,
    InvalidDivisorError,
    Surface,
    SurfaceKind,
    SurfaceMismatchError,
    h0_line_bundle,
    is_big_and_nef,
    is_irreducible_curve_class,
    is_nef,
    parse_surface,
)
from amplecheck import surfaces
from conftest import ALL_SURFACES, integral_divisors, surfaces_strategy
from oracles import divisor_text, hilbert_polynomial, is_effective

P2 = Surface.projective_plane()
F0 = Surface.hirzebruch(0)
F1 = Surface.hirzebruch(1)
F2 = Surface.hirzebruch(2)
F3 = Surface.hirzebruch(3)


class TestIntersection:
    def test_section_self_intersection(self):
        assert F2.divisor(1, 0).dot(F2.divisor(1, 0)) == -2

    @pytest.mark.parametrize("surface", [F0, F1, F2, F3])
    def test_fiber_squares_to_zero(self, surface):
        assert surface.divisor(0, 1).dot(surface.divisor(0, 1)) == 0

    def test_bilinear_expansion(self):
        d = F2.divisor(1, 3)
        assert d.dot(d) == 4  # -2 + 2*3

    def test_plane_line(self):
        assert P2.divisor(1).dot(P2.divisor(1)) == 1

    def test_surface_mismatch(self):
        with pytest.raises(SurfaceMismatchError):
            P2.divisor(1).dot(F1.divisor(1, 0))

    @given(st.data())
    def test_symmetry(self, data):
        surface = data.draw(surfaces_strategy())
        d1 = data.draw(integral_divisors(surface))
        d2 = data.draw(integral_divisors(surface))
        assert d1.dot(d2) == d2.dot(d1)

    @given(st.data())
    def test_bilinearity(self, data):
        surface = data.draw(surfaces_strategy())
        d1 = data.draw(integral_divisors(surface))
        d2 = data.draw(integral_divisors(surface))
        d3 = data.draw(integral_divisors(surface))
        a = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
        assert (a * d1 + d2).dot(d3) == a * d1.dot(d3) + d2.dot(d3)


class TestCoordinates:
    """Coordinates are plain ints when integral and Fractions only otherwise."""

    def test_integral_fraction_is_the_int_class(self):
        for reduced, plain in (
            (F2.divisor(Fraction(4, 2), 3), F2.divisor(2, 3)),
            (P2.divisor(Fraction(-6, 3)), P2.divisor(-2)),
        ):
            assert reduced == plain
            assert hash(reduced) == hash(plain)
            assert reduced.coords == plain.coords

    def test_integral_coordinates_are_int(self):
        assert [type(c) for c in F1.divisor(Fraction(6, 3), -1).coords] == [int, int]
        half = F1.divisor(Fraction(1, 2), 1)
        assert [type(c) for c in half.coords] == [Fraction, int]
        assert not half.is_integral
        for whole in (half + half, 2 * half, half * Fraction(4)):
            assert all(type(c) is int for c in whole.coords)
            assert whole.is_integral

    @given(st.fractions(min_value=-50, max_value=50, max_denominator=12))
    def test_type_decides_integrality(self, q):
        d = F0.divisor(q, 0)
        assert (type(d.coords[0]) is int) == (q.denominator == 1)
        assert d.is_integral == (q.denominator == 1)
        assert d.coords[0] == q

    def test_int_subclasses_become_int(self):
        d = P2.divisor(True)
        assert type(d.coords[0]) is int
        assert d == P2.divisor(1) and hash(d) == hash(P2.divisor(1))
        assert d.is_integral
        assert h0_line_bundle(d) == 3
        assert all(type(c) is int for c in (F0.divisor(1, 1) * True).coords)

    def test_intersections_are_fractions(self):
        for d in (F2.divisor(1, 3), F2.divisor(Fraction(1, 2), 3), P2.divisor(2)):
            assert type(d.dot(d)) is Fraction
            assert type(d.self_intersection) is Fraction
        assert P2.divisor(1).self_intersection / 2 == Fraction(1, 2)

    def test_float_coordinates_rejected(self):
        with pytest.raises(TypeError):
            F0.divisor(1.0, 2)
        with pytest.raises(TypeError):
            P2.divisor(0.5)
        with pytest.raises(TypeError):
            F0.divisor(1, 2) * 0.5

    @pytest.mark.parametrize(
        "surface, coords, message",
        [
            (F2, (1,), "F2 divisor needs 2 coordinates, got 1"),
            (F0, (), "F0 divisor needs 2 coordinates, got 0"),
            (P2, (1, 2), "P2 divisor needs 1 coordinates, got 2"),
        ],
    )
    def test_coordinate_count_is_checked(self, surface, coords, message):
        with pytest.raises(InvalidDivisorError) as info:
            DivisorClass(surface, coords)
        assert str(info.value) == message

    @pytest.mark.parametrize("surface", ALL_SURFACES)
    def test_distinguished_classes_are_cached(self, surface):
        for name in ("zero", "polarization", "fiber_class", "canonical"):
            assert getattr(surface, name) is getattr(surface, name)
            assert getattr(surface, name).is_integral


WIDE_SURFACES = (P2,) + tuple(Surface.hirzebruch(e) for e in range(6))


@st.composite
def rational_divisors(draw):
    """A surface of P2, F0-F5 and two classes on it, some coordinates halves or thirds."""
    surface = draw(st.sampled_from(WIDE_SURFACES))
    coord = st.fractions(min_value=-40, max_value=40, max_denominator=3)
    return tuple(surface.divisor(*[draw(coord) for _ in surface.basis]) for _ in range(2))


# zero, +-1, other ints and fractions, as (p, q); 6/3 and -4/2 are integral
TEXT_GRID = [(0, 1), (1, 1), (-1, 1), (2, 1), (-7, 1), (6, 3), (-4, 2), (1, 2), (-1, 2),
             (-3, 2), (5, 3), (-12, 5)]


@pytest.mark.parametrize("surface", [P2, F0, F1, F3], ids=str)
def test_divisor_text_matches_an_independent_formatter(surface):
    """``str`` writes each class as the oracle does, on every pair of grid coordinates."""
    names = ("H",) if surface.is_plane else ("E", "F")
    for coords in product(TEXT_GRID, repeat=len(names)):
        d = surface.divisor(*(Fraction(p, q) for p, q in coords))
        assert str(d) == divisor_text(names, coords), coords


class TestTrustedArithmetic:
    """Sums, differences, negatives and int multiples of int coordinates skip the
    validating constructor; every result equals the validated class."""

    @given(rational_divisors(), st.integers(-9, 9))
    def test_results_equal_the_validated_class(self, classes, k):
        a, b = classes
        for result, coords in (
            (a + b, [Fraction(x) + y for x, y in zip(a.coords, b.coords)]),
            (a - b, [Fraction(x) - y for x, y in zip(a.coords, b.coords)]),
            (-a, [-Fraction(x) for x in a.coords]),
            (k * a, [k * Fraction(x) for x in a.coords]),
            (a * k, [Fraction(x) * k for x in a.coords]),
        ):
            expected = DivisorClass(a.surface, tuple(coords))
            assert result == expected and hash(result) == hash(expected)
            integral = all(c.denominator == 1 for c in coords)
            assert result.is_integral == integral
            if integral:
                assert all(type(c) is int for c in result.coords)

    def test_halves_add_up_to_an_integral_class(self):
        half = P2.divisor(Fraction(1, 2))
        whole = half + half
        assert whole == P2.divisor(1) and type(whole.coords[0]) is int

    def test_mismatched_surfaces_still_raise(self):
        with pytest.raises(SurfaceMismatchError):
            F1.divisor(1, 0) - F2.divisor(1, 0)


class TestInterning:
    def test_parsed_surfaces_are_interned(self):
        assert parse_surface("F2") is parse_surface("f2") is Surface.hirzebruch(2)
        assert parse_surface("P2") is parse_surface("p2") is Surface.projective_plane()

    def test_surface_cache_is_bounded(self):
        for e in range(3 * surfaces.SURFACE_CACHE_SIZE):
            parse_surface(f"F{e}")
        huge = parse_surface("F" + "9" * 2000)
        assert huge.e == 10**2000 - 1 and huge is parse_surface("F" + "9" * 2000)
        assert surfaces._interned.cache_info().currsize <= surfaces.SURFACE_CACHE_SIZE

    def test_other_parameters_are_not_interned(self):
        with pytest.raises(InvalidDivisorError):
            Surface.hirzebruch(1.0)
        assert Surface.hirzebruch(True) == F1 and Surface.hirzebruch(True) is not F1

    def test_a_parameter_that_cannot_be_written_is_an_invalid_divisor(self):
        """Writing ``name`` raised the interpreter's bare ``ValueError``; the error now
        carries the interpreter's text, which names its digit limit."""
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no integer-to-string limit")
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the default
        try:
            with pytest.raises(InvalidDivisorError, match=(
                    r"^Hirzebruch parameter e: Exceeds the limit \(4300( digits)?\) for integer")):
                Surface.hirzebruch(10**5000)
        finally:
            sys.set_int_max_str_digits(saved)


FACTS = {"is_plane", "name", "basis", "zero", "polarization", "fiber_class", "canonical"}


class TestConstructedFacts:
    def test_the_constructor_sets_every_fact(self, monkeypatch):
        surface = Surface(SurfaceKind.HIRZEBRUCH, 7)
        built = (surface, copy.deepcopy(surface), pickle.loads(pickle.dumps(surface)))
        assert all(vars(s).keys() == FACTS for s in built)
        constructed = []
        check = DivisorClass.__init__
        monkeypatch.setattr(DivisorClass, "__init__",
                            lambda self, *fields: constructed.append(1) or check(self, *fields))
        read = [{fact: getattr(s, fact) for fact in FACTS} for s in built]
        assert constructed == []  # reading a fact builds no class
        assert read[0] == read[1] == read[2] and read[0]["canonical"].coords == (-2, -9)

    def test_plane(self):
        assert (P2.is_plane, P2.name, P2.basis) == (True, "P2", ("H",))
        assert [d.coords for d in (P2.zero, P2.polarization, P2.fiber_class, P2.canonical)] == (
            [(0,), (1,), (1,), (-3,)])

    @pytest.mark.parametrize("e", range(6))
    def test_hirzebruch(self, e):
        s = Surface.hirzebruch(e)
        assert (s.is_plane, s.name, s.basis) == (False, f"F{e}", ("E", "F"))
        classes = (s.zero, s.polarization, s.fiber_class, s.canonical)
        assert [d.coords for d in classes] == [(0, 0), (1, e + 1), (0, 1), (-2, -(e + 2))]
        assert all(d.surface is s for d in classes)


class TestCanonicalClass:
    def test_plane(self):
        assert P2.canonical == P2.divisor(-3)

    def test_f0(self):
        assert F0.canonical == F0.divisor(-2, -2)

    def test_f3(self):
        assert F3.canonical == F3.divisor(-2, -5)


class TestCones:
    def test_nef_cone_generator(self):
        assert is_nef(F1.divisor(1, 1))  # E + eF at e = 1

    def test_section_not_nef(self):
        assert not is_nef(F1.divisor(1, 0))

    def test_negative_line_not_nef(self):
        assert not is_nef(P2.divisor(-1))

    def test_effective_generators(self):
        assert is_effective(F2.divisor(1, 0))
        assert not is_effective(F2.divisor(1, -1))
        assert is_effective(P2.divisor(2))

    def test_big_and_nef(self):
        assert is_big_and_nef(F1.divisor(1, 2))  # H, with H^2 = 3
        assert not is_big_and_nef(F1.divisor(0, 1))  # F^2 = 0
        assert not is_big_and_nef(F2.divisor(0, 1))
        assert is_big_and_nef(P2.divisor(1))


class TestIrreducibleClasses:
    def test_section_and_fiber(self):
        assert is_irreducible_curve_class(F2.divisor(1, 0))
        assert is_irreducible_curve_class(F2.divisor(0, 1))

    def test_below_nef_threshold(self):
        assert not is_irreducible_curve_class(F2.divisor(1, 1))  # b = 1 < ae = 2

    def test_integral_classes_only(self):
        with pytest.raises(InvalidDivisorError):
            is_irreducible_curve_class(F2.divisor(Fraction(1, 2), 0))

    def test_plane_conic(self):
        assert is_irreducible_curve_class(P2.divisor(2))
        assert not is_irreducible_curve_class(P2.divisor(0))

    def test_f0_multiple_rulings_are_reducible(self):
        # 2E on F_0 is two rulings, never irreducible, although b >= ae holds
        assert not is_irreducible_curve_class(F0.divisor(2, 0))
        assert not is_irreducible_curve_class(F0.divisor(0, 3))
        assert is_irreducible_curve_class(F0.divisor(2, 1))

    def test_requires_integral(self):
        with pytest.raises(InvalidDivisorError):
            is_irreducible_curve_class(P2.divisor(Fraction(1, 2)))

    @given(st.data())
    def test_irreducible_implies_effective(self, data):
        surface = data.draw(surfaces_strategy())
        d = data.draw(integral_divisors(surface))
        if is_irreducible_curve_class(d):
            assert is_effective(d)

    @given(st.data())
    def test_nef_pairs_nonnegatively_with_curves(self, data):
        surface = data.draw(surfaces_strategy())
        nef = data.draw(integral_divisors(surface, low=0))
        curve = data.draw(integral_divisors(surface, low=0, high=6))
        if is_nef(nef) and is_irreducible_curve_class(curve):
            assert nef.dot(curve) >= 0


class TestHilbertPolynomial:
    def test_plane_at_minus_half(self):
        assert hilbert_polynomial(P2.divisor(Fraction(-1, 2))) == Fraction(3, 8)

    @pytest.mark.parametrize("surface", ALL_SURFACES)
    def test_structure_sheaf(self, surface):
        assert hilbert_polynomial(surface.zero) == 1

    @pytest.mark.parametrize("surface", ALL_SURFACES)
    def test_canonical_evaluates_to_one(self, surface):
        assert hilbert_polynomial(surface.canonical) == 1

    @given(st.data())
    def test_serre_duality_identity(self, data):
        surface = data.draw(surfaces_strategy())
        d = data.draw(integral_divisors(surface))
        assert hilbert_polynomial(d) == hilbert_polynomial(surface.canonical - d)


class TestSectionCounts:
    def test_plane_conics(self):
        assert h0_line_bundle(P2.divisor(2)) == 6
        assert h0_line_bundle(P2.divisor(-1)) == 0

    @pytest.mark.parametrize("surface,expected", [(F0, 2), (F1, 1), (F2, 1), (F3, 1)])
    def test_section_class(self, surface, expected):
        assert h0_line_bundle(surface.divisor(1, 0)) == expected

    def test_fiber_class(self):
        assert h0_line_bundle(F2.divisor(0, 1)) == 2

    def test_f2_section_plus_fibers(self):
        assert h0_line_bundle(F2.divisor(1, 3)) == 6  # d = 2b - e + 1 = 5

    def test_f1_double_anticanonical_section_count(self):
        assert h0_line_bundle(F1.divisor(2, 2)) == 6  # d = 5

    def test_negative_ruling(self):
        assert h0_line_bundle(F2.divisor(-1, 5)) == 0

    def test_non_integral_rejected(self):
        with pytest.raises(InvalidDivisorError) as exc:
            h0_line_bundle(F1.divisor(Fraction(1, 2), 0))
        assert str(exc.value) == "section counts are asked of integral classes, got (1/2)E"

    @pytest.mark.parametrize("surface", [F0, F1, F2, F3])
    def test_h0_equals_chi_on_nef_classes(self, surface):
        # nef line bundles have no higher cohomology here
        for a in range(0, 7):
            for b in range(surface.e * a, surface.e * a + 9):
                d = surface.divisor(a, b)
                assert is_nef(d)
                assert h0_line_bundle(d) == hilbert_polynomial(d)

    def test_closed_form_matches_the_summand_count(self):
        for e in range(7):
            surface = Surface.hirzebruch(e)
            for a in range(-3, 25):
                for b in range(-5, 60):
                    summands = sum(max(0, b - i * e + 1) for i in range(a + 1))
                    assert h0_line_bundle(surface.divisor(a, b)) == summands

    def test_h0_equals_chi_on_plane_nef(self):
        for n in range(0, 12):
            assert h0_line_bundle(P2.divisor(n)) == hilbert_polynomial(P2.divisor(n))


class TestParsing:
    def test_parse(self):
        assert parse_surface("P2") == P2
        assert parse_surface("F0") == F0
        assert parse_surface("F12") == Surface.hirzebruch(12)

    def test_reject(self):
        for bad in ("X", "F-1", "F", "P3", "", "F\u0661", "F\u00b2"):
            with pytest.raises(ValueError):
                parse_surface(bad)

    def test_invalid_surface_parameters(self):
        with pytest.raises(ValueError):
            Surface.hirzebruch(-1)
        with pytest.raises(ValueError):
            Surface(SurfaceKind.PROJECTIVE_PLANE, 1)
        with pytest.raises(TypeError):
            P2.divisor(1.5)

    def test_float_parameter_rejected(self):
        with pytest.raises(InvalidDivisorError):
            Surface.hirzebruch(1.5)

    def test_bool_parameter_becomes_int(self):
        surface = Surface.hirzebruch(True)
        assert surface == F1 and surface.name == "F1" and type(surface.e) is int
