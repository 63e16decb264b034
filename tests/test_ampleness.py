import random
from fractions import Fraction

import pytest

from amplecheck import (
    CertificateError,
    ChernCharacter,
    InvalidCharacterError,
    InvalidDivisorError,
    PreconditionError,
    Surface,
    SurfaceMismatchError,
    WbnApplicability,
    ample_gg_verdict,
    asymptotic_ample_certificate,
    classify_global_generation,
    dimension_count,
    effective_n_bound,
    enumerate_bad_curves,
    gieseker_character,
    kernel_character,
    make_character,
    multiplier_lower_bound,
    normalize_character,
    parse_character,
    slope_conditions,
)
from amplecheck import ampleness
from amplecheck.positivity import require_nonnegative_delta, require_slope_hypotheses
from conftest import ALL_SURFACES, random_gg_slope_character, random_slope_character
from test_census import box
from oracles import (
    brute_force_bad_curves,
    brute_min_multiplier,
    chi_of_twist,
    effective_shortcut_violations,
    h0_by_sum,
    matches_bad_curve_shape,
    naive_family_cutoff,
    splitting_codim,
)

P2 = Surface.projective_plane()
F0 = Surface.hirzebruch(0)
F1 = Surface.hirzebruch(1)
F2 = Surface.hirzebruch(2)
P2_AND_F0_TO_F5 = (P2, *(Surface.hirzebruch(e) for e in range(6)))

# bE + F on F0 (72 bad members), then E + bF on F1-F3 (19 or more each)
LONG_FAMILIES = [(0, "2:400,3:-209"), (1, "2:3,60:-111/2"), (2, "2:3,63:-58"), (3, "2:3,66:-121/2")]

INTRO = make_character(2, P2.divisor(3), Fraction(1, 2))
TANGENT = make_character(2, P2.divisor(3), Fraction(3, 2))


class TestBadCurves:
    def test_plane_single_bad_line(self):
        bad = enumerate_bad_curves(make_character(2, P2.divisor(4), 0))
        assert [b.curve.coords for b in bad] == [(1,)]
        assert bad[0].chi_twist == -2

    def test_plane_none(self):
        assert enumerate_bad_curves(make_character(2, P2.divisor(4), 2)) == ()

    def test_f1_fiber_is_bad(self):
        v = make_character(2, F1.divisor(3, 5), Fraction(5, 2))
        bad = enumerate_bad_curves(v)
        by_coords = {b.curve.coords: b for b in bad}
        assert (0, 1) in by_coords  # the fiber
        assert by_coords[(0, 1)].chi_twist == -1
        assert set(by_coords) == {(0, 1), (1, 0)}

    def test_f0_both_families_contribute(self):
        v = make_character(2, Surface.hirzebruch(0).divisor(3, 3), -4)
        bad = {b.curve.coords: b for b in enumerate_bad_curves(v)}
        assert set(bad) == {(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)}
        assert bad[(0, 1)].chi_twist == -7 and bad[(1, 1)].chi_twist == -4
        assert all(b.passes for b in bad.values())

    def test_f3_no_bad_curves(self):
        v = make_character(2, Surface.hirzebruch(3).divisor(3, 11), Fraction(19, 2))
        assert enumerate_bad_curves(v) == ()
        cert = ample_gg_verdict(v)
        assert cert.ample_general and cert.bad_curves == ()

    def test_agrees_with_brute_force(self):
        rng = random.Random(99)
        for surface in ALL_SURFACES:
            for _ in range(8):
                v = random_gg_slope_character(rng, surface)
                bad = {b.curve.coords for b in enumerate_bad_curves(v)}
                box = naive_family_cutoff(v) + 5
                assert bad == brute_force_bad_curves(v, box)
                assert all(matches_bad_curve_shape(surface, c) for c in bad)

    def test_requires_slope_hypotheses(self):
        with pytest.raises(PreconditionError):
            enumerate_bad_curves(TANGENT)

    def test_requires_global_generation(self):
        # slope hypotheses hold but chi(v(-1)) < 0 and chi small
        v = make_character(2, P2.divisor(5), Fraction(-27, 2))
        with pytest.raises(PreconditionError):
            enumerate_bad_curves(v)


class TestFamilyProgression:
    """Members extended by differences agree with the long way, member by member."""

    @staticmethod
    def check_members(v):
        bad = enumerate_bad_curves(v)
        for b in bad:
            assert b == dimension_count(v, b.curve)
            assert b.chi_twist == chi_of_twist(v, b.curve)
            assert b.d + 1 == h0_by_sum(b.curve)
        return bad

    def test_random_gg_characters(self):
        rng = random.Random(17)
        for surface in P2_AND_F0_TO_F5:
            for _ in range(8):
                self.check_members(random_gg_slope_character(rng, surface))

    @pytest.mark.parametrize("x, members", [(200, 72), (1000, 339), (4000, 1339)])
    def test_f0_series(self, x, members):
        bad = self.check_members(parse_character(f"2:{2 * x},3:-{x + 9}", F0))
        assert len(bad) == members

    @pytest.mark.parametrize("e, ch", LONG_FAMILIES[1:])
    def test_long_section_families(self, e, ch):
        bad = self.check_members(parse_character(ch, Surface.hirzebruch(e)))
        assert sum(b.curve.coords[0] == 1 and b.curve.coords[1] >= e for b in bad) >= 19

    def test_dimension_count_runs_at_most_three_times_per_family(self, monkeypatch):
        calls = []
        count = ampleness._count
        monkeypatch.setattr(ampleness, "_count", lambda v, x: calls.append(x) or count(v, x))
        bad = enumerate_bad_curves(parse_character("2:4000,3:-2009", F0))
        assert len(bad) == 672  # 671 of the form bE + F
        assert len(calls) <= 3 * 2  # two families on F_0, no singleton candidates

    def test_non_affine_section_count_breaks_the_family_obligation(self, monkeypatch):
        h0 = ampleness._h0_at
        monkeypatch.setattr(ampleness, "_h0_at", lambda surface, x: h0(surface, x) + x[0] ** 2)
        with pytest.raises(CertificateError, match=r"family bE \+ F is affine"):
            enumerate_bad_curves(parse_character("2:4000,3:-2009", F0))

    @pytest.mark.parametrize("e, ch, n_bad", [(0, "2:400,3:-209", 72), (1, "2:3,5:5/2", 2)])
    def test_bad_curves_are_counted_in_ints(self, monkeypatch, e, ch, n_bad):
        """A family's number of bad members is a floor division of ints: ``_bad_curves``
        built 2 ``Fraction``s on the F0 character (one per family) and 1 on the F1 one."""
        v = parse_character(ch, Surface.hirzebruch(e))
        expected = ampleness._bad_curves(v)
        made, new = [], Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__",
                            staticmethod(lambda cls, *a, **k: made.append(a) or new(cls, *a, **k)))
        assert ampleness._bad_curves(v) == expected and len(expected) == n_bad
        assert made == []


class TestEffectiveShortcut:
    """Irreducible D with K+D effective are never bad for a gg character.

    This is why the enumeration searches only the shape list; nothing
    checks it at runtime.  The box is n <= 12 on P2 and a <= 12,
    b <= a*e + 12 on F_e.
    """

    BOX = 12

    def test_globally_generated_characters_have_no_violation(self):
        rng = random.Random(5)
        for surface in P2_AND_F0_TO_F5:
            for _ in range(8):
                v = random_gg_slope_character(rng, surface)
                assert effective_shortcut_violations(v, self.BOX) == [], v

    @pytest.mark.parametrize(
        "surface, ch, violation",
        [
            (P2, "2:4:-9", (3,)),
            (Surface.hirzebruch(0), "2:3,3:-9", (2, 2)),
            (F1, "2:3,5:-19/2", (2, 3)),
            (F2, "2:3,8:-11", (2, 4)),
            (Surface.hirzebruch(3), "2:3,11:-35/2", (2, 6)),
        ],
    )
    def test_non_gg_controls_violate(self, surface, ch, violation):
        v = parse_character(ch, surface)
        assert not classify_global_generation(v).globally_generated
        assert violation in effective_shortcut_violations(v, self.BOX)


class TestDimensionCount:
    def test_plane_line(self):
        count = dimension_count(make_character(2, P2.divisor(4), 0), P2.divisor(1))
        assert (count.d, count.c, count.passes) == (2, 3, True)

    def test_plane_conic(self):
        count = dimension_count(make_character(2, P2.divisor(4), 0), P2.divisor(2))
        assert (count.d, count.c, count.passes) == (5, 7, True)

    def test_fiber(self):
        v = make_character(2, F1.divisor(3, 5), Fraction(5, 2))
        count = dimension_count(v, F1.divisor(0, 1))
        assert (count.d, count.c, count.passes) == (1, 2, True)

    def test_rejects_reducible_classes(self):
        with pytest.raises(PreconditionError) as exc:
            dimension_count(INTRO, P2.divisor(0))
        assert str(exc.value) == "0 is not an irreducible curve class"

    def test_rejects_a_class_that_is_not_integral(self):
        with pytest.raises(InvalidDivisorError) as exc:
            dimension_count(INTRO, P2.divisor(Fraction(1, 2)))
        assert str(exc.value) == "irreducibility is asked of integral classes, got (1/2)H"

    def test_rejects_a_curve_on_another_surface(self):
        with pytest.raises(SurfaceMismatchError) as exc:
            dimension_count(INTRO, F1.divisor(0, 1))
        assert str(exc.value) == "cannot combine classes on P2 and F1"


def _sample_and_beyond(seed: int) -> list[ChernCharacter]:
    """300 characters of the census box, then 300 past it: P2 and F0-F5, ranks up to 12,
    ``c1`` coordinates up to 60 and ``c2`` from one below the Bogomolov bound."""
    rng = random.Random(seed)
    drawn = rng.sample(list(box()), 300)
    for _ in range(300):
        surface, rank = rng.choice(P2_AND_F0_TO_F5), rng.randint(1, 12)
        c1 = surface.divisor(*(rng.randint(-60, 60) for _ in surface.basis))
        square = int(c1.self_intersection)
        c2 = -((1 - rank) * square // (2 * rank)) - 1 + rng.randint(0, 40)
        drawn.append(make_character(rank, c1, Fraction(square, 2) - c2))
    return drawn


def _shape_classes(surface: Surface) -> list[tuple[int, ...]]:
    """The shape list's single candidates, and each family's first, second and a far member."""
    if surface.is_plane:
        return [(1,), (2,)]
    e = surface.e
    start = e if e >= 2 else 0
    members = [(1, start + t) for t in (0, 1, 40)]
    if e == 0:
        return members + [(t, 1) for t in (0, 1, 40)]
    return members + [(0, 1), (2, 2) if e == 1 else (1, 0)]


class TestUncheckedPaths:
    """Each int-coordinate path the library takes for its own classes equals the checked
    public function it stands for, which stays the oracle."""

    def test_count_equals_the_dimension_count(self):
        """On the shape list and on every bad member, each family's last among them, of the
        sample and of characters with long families.  ``dimension_count`` is its checks
        around ``_count``, so the oracles' long way (``v(K+D)`` built and read by Hilbert
        polynomial, sections summed) checks both."""
        long = [parse_character(ch, Surface.hirzebruch(e)) for e, ch in LONG_FAMILIES]
        bad = 0
        for v in _sample_and_beyond(31) + long:
            xs = _shape_classes(v.surface)
            try:
                xs += [b.curve.coords for b in enumerate_bad_curves(v)]
            except PreconditionError:
                pass
            bad += len(xs) - len(_shape_classes(v.surface))
            for x in xs:
                d = v.surface.divisor(*x)
                b = dimension_count(v, d)
                assert ampleness._count(v, x) == (b.chi_twist, b.d, b.c), (v, x)
                long_way = (chi_of_twist(v, d), h0_by_sum(d) - 1, int(v.c1.dot(d)) - v.rank + 1)
                assert (b.chi_twist, b.d, b.c) == long_way, (v, x)
        assert bad >= 100

    def test_twist_at_equals_the_twist(self):
        """``twist`` is its checks around ``_twist_at``; the long way is ``ch(v) ch(O(D))``
        through the validating constructor."""
        rng = random.Random(31)
        for v in _sample_and_beyond(31):
            x = tuple(rng.randint(-60, 60) for _ in v.surface.basis)
            d, r = v.surface.divisor(*x), v.rank
            w, ch2 = v._twist_at(x), v.ch2 + v.c1.dot(d) + r * d.self_intersection / 2
            assert w == v.twist(d) == make_character(r, v.c1 + r * d, ch2), (v, x)
            assert w.delta == v.delta

    @pytest.mark.parametrize("direct", [False, True])
    def test_the_dual_twist_chi_is_serre_dual(self, direct):
        certified = 0
        for v in _sample_and_beyond(31):
            try:
                cert = asymptotic_ample_certificate(v, direct=direct)
            except PreconditionError:
                continue
            h_minus_l = v.surface.polarization - v.surface.fiber_class
            assert cert.chi_dual_twist == cert.base.dual().twisted_chi(h_minus_l), v
            certified += 1
        assert certified >= 30


class TestSplittingCodim:
    def test_values(self):
        assert splitting_codim(1, 2, 4) == 3
        assert splitting_codim(2, 2, 4) == 8

    def test_minimized_at_k_equals_one(self):
        for rank in range(2, 6):
            for degree in range(rank, rank + 8):
                values = [splitting_codim(k, rank, degree) for k in range(1, rank + 1)]
                assert min(values) == values[0]

    def test_k_range_checked(self):
        with pytest.raises(ValueError):
            splitting_codim(0, 2, 4)
        with pytest.raises(ValueError):
            splitting_codim(3, 2, 4)

    def test_slope_hypothesis_checked(self):
        with pytest.raises(PreconditionError):
            splitting_codim(1, 3, 2)

    def test_matches_dimension_count_bound(self):
        v = make_character(2, F1.divisor(3, 5), Fraction(5, 2))
        for d in (F1.divisor(0, 1), F1.divisor(1, 0), F1.divisor(2, 2)):
            degree = int(v.c1.dot(d))
            assert dimension_count(v, d).c == splitting_codim(1, v.rank, degree)


class TestAmpleGGVerdict:
    def test_worked_example(self):
        cert = ample_gg_verdict(make_character(2, P2.divisor(4), 0))
        assert cert.ample_general
        assert [b.curve.coords for b in cert.bad_curves] == [(1,)]
        assert cert.gg is not None and cert.gg.case == 2
        assert cert.nonspecial is not None and cert.nonspecial.holds

    def test_intro_character_fails_slope(self):
        cert = ample_gg_verdict(INTRO)
        assert not cert.ample_general
        assert cert.failure_reason.startswith("slope")

    def test_tangent_bundle_cross_reference(self):
        cert = ample_gg_verdict(TANGENT)
        assert not cert.ample_general
        assert cert.failure_reason.startswith("slope")
        assert any("tangent" in note for note in cert.notes)

    def test_rank_one_fails(self):
        cert = ample_gg_verdict(make_character(1, P2.divisor(2), 2))
        assert not cert.ample_general and cert.failure_reason.startswith("rank")

    def test_f1_example(self):
        cert = ample_gg_verdict(make_character(2, F1.divisor(3, 5), Fraction(5, 2)))
        assert cert.ample_general
        assert {b.curve.coords for b in cert.bad_curves} == {(0, 1), (1, 0)}

    def test_deterministic(self):
        v = make_character(2, F2.divisor(3, 8), 2)
        assert ample_gg_verdict(v) == ample_gg_verdict(v)

    def test_failure_reasons_follow_the_positivity_gates(self):
        """The verdict's own rank, delta, slope and gg checks match the gates."""
        seen = set()
        for surface in P2_AND_F0_TO_F5:
            for v in _character_box(surface):
                cert = ample_gg_verdict(v)
                reason = cert.failure_reason or ""
                seen.add(reason.split(":")[0])
                assert cert.slope_conditions == slope_conditions(v)
                assert reason.startswith("rank:") == (v.rank < 2), v
                if v.rank < 2:
                    continue
                delta_fails = _raises(require_nonnegative_delta, v)
                assert reason.startswith("bogomolov:") == delta_fails, v
                if delta_fails:
                    continue
                try:
                    require_slope_hypotheses(v)
                except PreconditionError as exc:
                    assert reason == "slope: " + str(exc).rsplit(": ", 1)[1], v
                    continue
                assert not reason.startswith("slope:"), v
                gg = classify_global_generation(v)
                assert reason.startswith("global-generation:") == (not gg.globally_generated), v
        assert seen >= {"", "rank", "bogomolov", "slope", "global-generation"}

    def test_random_suite_always_passes_dimension_counts(self):
        rng = random.Random(41)
        for surface in ALL_SURFACES:
            for _ in range(6):
                v = random_gg_slope_character(rng, surface)
                cert = ample_gg_verdict(v)
                assert cert.ample_general
                assert all(b.passes for b in cert.bad_curves)


def _raises(check, v) -> bool:
    try:
        check(v)
    except PreconditionError:
        return True
    return False


def _character_box(surface: Surface):
    """Ranks 1-4, small c1, and c2 from below the Bogomolov bound to far past it.

    Only well past the bound does the gg classification start to fail.
    """
    if surface.is_plane:
        c1s = [surface.divisor(n) for n in range(-1, 9)]
    else:
        c1s = [
            surface.divisor(a, b)
            for a in range(-1, 4)
            for b in range(-1, max(a, 0) * surface.e + 6)
        ]
    for rank in range(1, 5):
        for c1 in c1s:
            c1_squared = int(c1.self_intersection)
            c2_min = -((1 - rank) * c1_squared // (2 * rank))
            for c2 in (c2_min - 1, c2_min, c2_min + 1, c2_min + 4, c2_min + 9, c2_min + 15):
                yield make_character(rank, c1, Fraction(c1_squared, 2) - c2)


class TestNormalization:
    def test_plane_large_slope(self):
        v = make_character(2, P2.divisor(20), -142)
        normalized, twist = normalize_character(v)
        assert twist == P2.divisor(8)
        assert normalized.nu == P2.divisor(2)
        assert normalized.delta == v.delta

    def test_already_in_range(self):
        normalized, twist = normalize_character(INTRO)
        assert twist == P2.zero and normalized == INTRO

    def test_hirzebruch_preserves_section_slope(self):
        v = make_character(2, F2.divisor(4, 14), 20)
        normalized, twist = normalize_character(v)
        assert twist == F2.zero
        assert normalized.nu.dot(F2.divisor(1, 0)) == v.nu.dot(F2.divisor(1, 0))

    def test_hirzebruch_twist_direction(self):
        v = make_character(2, F2.divisor(8, 30), 40)  # nu.F = 4
        normalized, twist = normalize_character(v)
        assert twist == F2.divisor(2, 4)  # m*(E + eF) with m = 2
        assert 1 < normalized.nu.dot(F2.fiber_class) <= 2
        assert normalized.nu.dot(F2.divisor(1, 0)) == v.nu.dot(F2.divisor(1, 0))
        assert normalized.delta == v.delta

    def test_rejects_small_slope(self):
        with pytest.raises(PreconditionError):
            normalize_character(make_character(2, P2.divisor(2), 0))


class TestKernelCharacter:
    def test_gieseker_values(self):
        v = gieseker_character(12)
        u2 = kernel_character(v, 2, 2)
        assert u2 == make_character(2, P2.divisor(-34), 287)
        assert u2.delta == 1
        u1 = kernel_character(v, 1, 2)
        assert u1 == make_character(2, P2.divisor(-16), 144)
        assert u1.delta == -40

    def test_rank_is_always_s(self):
        rng = random.Random(3)
        for surface in ALL_SURFACES:
            v = random_slope_character(rng, surface)
            for s in (2, 3, 5):
                for n in (1, 2, 7):
                    assert kernel_character(v, n, s).rank == s

    def test_parameter_validation(self):
        with pytest.raises(PreconditionError):
            kernel_character(INTRO, 1, 1)
        with pytest.raises(PreconditionError):
            kernel_character(INTRO, 0, 2)
        with pytest.raises(PreconditionError):
            multiplier_lower_bound(INTRO, 1)


@pytest.mark.parametrize("s", [2.5, Fraction(3)], ids=["float", "fraction"])
@pytest.mark.parametrize(
    "entry",
    [asymptotic_ample_certificate, multiplier_lower_bound, effective_n_bound,
     lambda v, s: kernel_character(v, 1, s)],
    ids=["certificate", "bound", "n_bound", "kernel"],
)
def test_every_entry_point_rejects_a_kernel_rank_that_is_not_an_int(entry, s):
    """The certificate ended in a bare ``TypeError`` on 2.5 and ``effective_n_bound``
    returned 3 for ``Fraction(3)``, which ``kernel_character`` rejected."""
    with pytest.raises(InvalidCharacterError) as exc:
        entry(gieseker_character(12), s)
    assert str(exc.value) == f"the kernel rank must be a positive integer, got {s}"


class TestEffectiveBound:
    def test_gieseker_direct_bounds(self):
        for d in range(4, 51):
            v = gieseker_character(d)
            expected = 2 * Fraction((d - 1) ** 2, (d - 3) ** 2) - 1
            assert multiplier_lower_bound(v, 2) == expected
            n_min = effective_n_bound(v, 2)
            assert n_min == 2 if d >= 12 else n_min > 2

    def test_zero_discriminant_gives_one(self):
        v = make_character(2, P2.divisor(4), 4)  # delta = 0
        assert effective_n_bound(v) == 1

    def test_closed_form_matches_search(self):
        rng = random.Random(57)
        for surface in ALL_SURFACES:
            for _ in range(10):
                v = random_slope_character(rng, surface)
                base, _ = normalize_character(v)
                for s in (2, 3):
                    assert effective_n_bound(base, s) == brute_min_multiplier(base, s)

    def test_kernel_discriminant_monotone_past_bound(self):
        rng = random.Random(58)
        for surface in ALL_SURFACES:
            v = random_slope_character(rng, surface)
            base, _ = normalize_character(v)
            n_min = effective_n_bound(base)
            for n in range(n_min, n_min + 12):
                assert kernel_character(base, n, 2).delta >= 0

    def test_requires_big_and_nef(self):
        with pytest.raises(PreconditionError):
            multiplier_lower_bound(make_character(2, P2.divisor(2), 0))  # nu = H


class TestAsymptoticCertificate:
    def test_gieseker_direct_mode(self):
        cert = asymptotic_ample_certificate(gieseker_character(12), direct=True)
        assert cert.mode == "direct"
        assert cert.bound == Fraction(161, 81)
        assert cert.n_min == 2
        assert cert.chi_dual_twist == -170
        assert cert.kernel.delta == 1
        assert cert.delta_kernel_prev == -40
        assert cert.kernel == make_character(2, P2.divisor(-34), 287)
        assert cert.b_squared == cert.b.self_intersection == 81

    def test_intro_character_normalized(self):
        cert = asymptotic_ample_certificate(INTRO)
        assert cert.mode == "normalized"
        assert cert.bound == 6 and cert.n_min == 6
        assert cert.chi_dual_twist == -2
        assert cert.kernel.delta == 0
        assert cert.delta_kernel_prev == Fraction(-5, 8)
        assert cert.chi_kernel_dual_twist == 12
        assert cert.kernel_twist_gg
        assert cert.wbn_kernel.applicable

    def test_f1_example(self):
        v = make_character(2, F1.divisor(3, 5), Fraction(5, 2))
        cert = asymptotic_ample_certificate(v)
        assert cert.bound == 10 and cert.n_min == 10
        assert cert.b == F1.divisor(Fraction(1, 2), Fraction(1, 2))
        assert cert.b_squared == cert.b.self_intersection == Fraction(1, 4)
        assert cert.chi_dual_twist == -3

    def test_s_independent_success(self):
        rng = random.Random(71)
        for surface in ALL_SURFACES:
            v = random_slope_character(rng, surface)
            verdicts = set()
            for s in (2, 3, 5):
                cert = asymptotic_ample_certificate(v, s)
                assert cert.kernel.delta >= 0 and cert.chi_kernel_dual_twist >= 0
                assert cert.b_squared == cert.b.self_intersection
                verdicts.add(cert.mode)
            assert verdicts == {"normalized"}

    def test_slope_hypotheses_enforced(self):
        with pytest.raises(PreconditionError):
            asymptotic_ample_certificate(make_character(2, P2.divisor(2), 0))  # nu.H = 1

    def test_bogomolov_enforced(self):
        v = make_character(2, P2.divisor(5), Fraction(15, 2))  # delta < 0
        with pytest.raises(PreconditionError):
            asymptotic_ample_certificate(v)

    def test_s_must_be_at_least_two(self):
        with pytest.raises(PreconditionError):
            asymptotic_ample_certificate(INTRO, 1)

    def test_normalized_certificate_certifies_original_character(self):
        v = make_character(2, P2.divisor(20), -142)
        cert = asymptotic_ample_certificate(v)
        # scaling and twisting commute, so a bundle for the normalized
        # multiple twists back to one for the original multiple
        n = cert.n_min
        assert cert.base.scale(n).twist(cert.twist_used) == v.scale(n)

    def test_deterministic(self):
        v = make_character(2, F2.divisor(3, 8), 2)
        assert asymptotic_ample_certificate(v) == asymptotic_ample_certificate(v)

    @staticmethod
    def _obligation_fails(v, obligation):
        """The certificate of ``INTRO`` raises the text of ``obligation`` failing for ``v``."""
        with pytest.raises(CertificateError) as exc:
            asymptotic_ample_certificate(INTRO)
        assert str(exc.value) == f"certificate obligation fails for {v}: {obligation}"

    # the certificate takes its bound from ampleness._bound, which multiplier_lower_bound shares
    def test_bound_one_unit_low_breaks_the_kernel_delta_obligation(self, monkeypatch):
        base, bound = normalize_character(INTRO)[0], ampleness._bound
        monkeypatch.setattr(ampleness, "_bound", lambda v, s, q: bound(v, s, q) - 1)
        self._obligation_fails(base, "kernel delta >= 0 at n_min")  # n_min 6 -> 5: delta -5/8

    def test_bound_one_unit_high_breaks_the_minimality_obligation(self, monkeypatch):
        base, bound = normalize_character(INTRO)[0], ampleness._bound
        monkeypatch.setattr(ampleness, "_bound", lambda v, s, q: bound(v, s, q) + 1)
        self._obligation_fails(base, "kernel delta < 0 at n_min - 1")

    def test_a_twist_one_h_high_breaks_the_normalization_obligation(self, monkeypatch):
        twist_at, h = ChernCharacter._twist_at, INTRO.surface.polarization.coords
        monkeypatch.setattr(ChernCharacter, "_twist_at",
                            lambda u, x: twist_at(u, tuple(a + b for a, b in zip(x, h))))
        self._obligation_fails(INTRO, "normalization lands at rank < c1.L <= 2*rank")

    def test_a_kernel_twisted_by_l_breaks_the_nu_obligation(self, monkeypatch):
        # a twist keeps delta, so both delta obligations still hold
        base, kernel = normalize_character(INTRO)[0], ampleness._kernel
        monkeypatch.setattr(
            ampleness, "_kernel", lambda v, n, s: kernel(v, n, s).twist(v.surface.fiber_class))
        self._obligation_fails(base, "nu(u*(H)) = (n_min*rank/s)*B")

    def test_a_chi_one_unit_high_breaks_the_chi_obligation(self, monkeypatch):
        base = normalize_character(INTRO)[0]
        monkeypatch.setattr(ChernCharacter, "euler_characteristic", lambda u: u._chi + 1)
        self._obligation_fails(base, "chi(u*(H-L)) = -n_min*chi(v*(H-L))")

    @pytest.mark.parametrize("name, silent", [
        ("gg_quick_criterion", lambda u: False),
        ("wbn_applicable", lambda u: WbnApplicability(False)),
    ])
    def test_a_silent_flag_breaks_the_flags_obligation(self, monkeypatch, name, silent):
        base = normalize_character(INTRO)[0]
        monkeypatch.setattr(ampleness, name, silent)
        self._obligation_fails(
            base, "chi(u*(H-L)) >= 0 with the weak Brill-Noether and gg flags")


class TestGiesekerCharacter:
    def test_values(self):
        assert gieseker_character(12) == make_character(2, P2.divisor(20), -142)
        assert gieseker_character(4) == make_character(2, P2.divisor(4), -14)

    def test_discriminant_closed_form(self):
        for d in range(4, 51):
            assert gieseker_character(d).delta == (d - 1) ** 2

    def test_requires_d_at_least_four(self):
        with pytest.raises(PreconditionError):
            gieseker_character(3)
