"""Acceptance gate: every criterion checked at its stated tolerance.

Each test prints one PASS line when its criterion holds; a failed assert
fails the criterion.  Expected values are exact rationals throughout.
"""

import json
import random
import time
from fractions import Fraction

from amplecheck import (
    ObstructionVerdict,
    Surface,
    ample_gg_verdict,
    effective_n_bound,
    enumerate_bad_curves,
    gieseker_character,
    h0_line_bundle,
    is_nef,
    make_character,
    multiplier_lower_bound,
    necessary_obstructions,
    normalize_character,
    wbn_applicable,
    wbn_cohomology,
)
from conftest import (
    ALL_SURFACES,
    random_divisor,
    random_gg_slope_character,
    random_slope_character,
    random_valid_character,
)
from oracles import (
    brute_force_bad_curves,
    brute_min_multiplier,
    fulton_lazarsfeld_margin,
    hilbert_polynomial,
    line_bundle_character,
    matches_bad_curve_shape,
    naive_family_cutoff,
)
from replay import run_cli

P2 = Surface.projective_plane()
HIRZEBRUCH = [s for s in ALL_SURFACES if not s.is_plane]


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_tangent_bundle_regression():
    tangent = make_character(2, P2.divisor(3), Fraction(3, 2))

    def run():
        delta = tangent.delta
        verdict = necessary_obstructions(tangent).verdict
        return delta, verdict

    run()  # warm up
    best = min(_timed(run) for _ in range(5))
    delta, verdict = run()
    assert delta == Fraction(3, 8)
    assert verdict is ObstructionVerdict.EXCEPTIONAL_TANGENT_BUNDLE
    assert best < 0.001, f"runtime {best * 1000:.3f} ms"
    _report(1, f"delta = 3/8 and tangent-bundle exception in {best * 1e6:.0f} us")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_fulton_lazarsfeld_threshold():
    nu = P2.divisor(Fraction(3, 2))
    eps = Fraction(1, 10**6)
    below = fulton_lazarsfeld_margin(2, nu, Fraction(27, 8) - eps)
    at = fulton_lazarsfeld_margin(2, nu, Fraction(27, 8))
    assert below > 0, "must pass strictly below the threshold"
    assert not at > 0, "must fail at the threshold exactly"
    assert at == 0
    _report(2, "rank-2 slope-3/2 boundary sits at delta = 27/8 exactly")


def test_criterion_3_gieseker_suite():
    start = time.perf_counter()
    for d in range(4, 51):
        v = gieseker_character(d)
        expected = 2 * Fraction((d - 1) ** 2, (d - 3) ** 2) - 1
        assert multiplier_lower_bound(v, 2) == expected
        n_min = effective_n_bound(v, 2)
        if d >= 12:
            assert n_min == 2
        else:
            assert n_min > 2
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"runtime {elapsed * 1000:.1f} ms"
    _report(3, f"bounds exact for d = 4..50 in {elapsed * 1000:.1f} ms")


def test_criterion_4_kernel_character_oracle_equivalence():
    rng = random.Random(2024)
    start = time.perf_counter()
    checked = 0
    while checked < 520:
        surface = ALL_SURFACES[checked % len(ALL_SURFACES)]
        v = random_slope_character(rng, surface)
        base, _ = normalize_character(v)
        assert effective_n_bound(base, 2) == brute_min_multiplier(base, 2)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"runtime {elapsed:.2f} s"
    _report(4, f"closed form = brute force on {checked} characters in {elapsed:.2f} s")


def test_criterion_5_bad_curve_shape_soundness():
    rng = random.Random(31337)
    start = time.perf_counter()
    checked = 0
    while checked < 110:
        surface = ALL_SURFACES[checked % len(ALL_SURFACES)]
        v = random_gg_slope_character(rng, surface)
        bad = {b.curve.coords for b in enumerate_bad_curves(v)}
        assert all(matches_bad_curve_shape(surface, coords) for coords in bad)
        box = naive_family_cutoff(v) + 5
        assert brute_force_bad_curves(v, box) == bad, (surface, str(v))
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"runtime {elapsed:.2f} s"
    _report(5, f"shape list sound and complete on {checked} characters in {elapsed:.2f} s")


def test_criterion_6_dimension_count_reproduction():
    rng = random.Random(606)
    from amplecheck import dimension_count

    samples = {surface.name: [] for surface in ALL_SURFACES}
    for surface in ALL_SURFACES:
        for _ in range(30):
            samples[surface.name].append(random_slope_character(rng, surface))

    for v in samples["P2"]:
        count = dimension_count(v, P2.divisor(1))
        assert count.d == 2 and count.c >= 3 and count.passes
        count = dimension_count(v, P2.divisor(2))
        assert count.d == 5 and count.c >= 6 and count.passes
    for surface in HIRZEBRUCH:
        fiber = surface.divisor(0, 1)
        section = surface.divisor(1, 0)
        for v in samples[surface.name]:
            count = dimension_count(v, fiber)
            assert count.d == 1 and count.c > 1 and count.passes
            if surface.e >= 1:
                count = dimension_count(v, section)
                assert count.d == 0 and count.c >= 1 and count.passes
    f1 = Surface.hirzebruch(1)
    for v in samples["F1"]:
        count = dimension_count(v, f1.divisor(2, 2))
        assert count.d == 5
        assert count.c > 3 * v.rank + 1 and count.c >= 7 and count.passes

    worked = ample_gg_verdict(make_character(2, P2.divisor(4), 0))
    assert worked.ample_general
    assert [b.curve.coords for b in worked.bad_curves] == [(1,)]
    _report(6, "all five case inequalities hold; worked example is ample-general")


def test_criterion_7_invariant_property_suites():
    rng = random.Random(777)
    start = time.perf_counter()
    cases = 0

    # twist composition and twist invariance of (delta, nu)
    for _ in range(2500):
        surface = ALL_SURFACES[rng.randrange(len(ALL_SURFACES))]
        v = random_valid_character(rng, surface)
        d1 = random_divisor(rng, surface, -6, 6)
        d2 = random_divisor(rng, surface, -6, 6)
        assert v.twist(d1).twist(d2) == v.twist(d1 + d2)
        cases += 1
        twisted = v.twist(d1)
        assert twisted.delta == v.delta and twisted.nu == v.nu + d1
        cases += 1

    # logarithmic invariants are scale-invariant
    for _ in range(2000):
        surface = ALL_SURFACES[rng.randrange(len(ALL_SURFACES))]
        v = random_valid_character(rng, surface)
        n = rng.randint(1, 6)
        w = v.scale(n)
        assert (w.mu, w.nu, w.delta) == (v.mu, v.nu, v.delta)
        cases += 1

    # chi is an integer for every valid character
    for _ in range(2000):
        surface = ALL_SURFACES[rng.randrange(len(ALL_SURFACES))]
        v = random_valid_character(rng, surface)
        assert isinstance(v.euler_characteristic(), int)
        cases += 1

    # Serre duality on line bundles: chi(O(D)) = chi(O(K-D))
    for _ in range(2000):
        surface = ALL_SURFACES[rng.randrange(len(ALL_SURFACES))]
        d = random_divisor(rng, surface, -10, 10)
        k = surface.canonical
        chi_d = line_bundle_character(d).euler_characteristic()
        chi_kd = line_bundle_character(k - d).euler_characteristic()
        assert chi_d == chi_kd
        assert hilbert_polynomial(d) == hilbert_polynomial(k - d)
        cases += 1

    # h0 agrees with chi on nef line bundles
    for n in range(0, 41):
        assert h0_line_bundle(P2.divisor(n)) == hilbert_polynomial(P2.divisor(n))
        cases += 1
    for surface in HIRZEBRUCH:
        for a in range(0, 10):
            for b in range(surface.e * a, surface.e * a + 12):
                d = surface.divisor(a, b)
                assert is_nef(d)
                assert h0_line_bundle(d) == hilbert_polynomial(d)
                cases += 1

    elapsed = time.perf_counter() - start
    assert cases >= 10_000
    assert elapsed < 30, f"runtime {elapsed:.2f} s"
    _report(7, f"{cases} property cases, zero failures, in {elapsed:.2f} s")


def test_criterion_8_wbn_split_character_oracle():
    checked = 0
    for e in (0, 1, 2):
        surface = Surface.hirzebruch(e)
        nef_classes = [
            surface.divisor(a, b) for a in range(0, 3) for b in range(a * e, a * e + 4)
        ]
        for d1 in nef_classes:
            for d2 in nef_classes:
                v = line_bundle_character(d1) + line_bundle_character(d2)
                if not wbn_applicable(v):
                    continue
                assert wbn_cohomology(v).h0 == h0_line_bundle(d1) + h0_line_bundle(d2)
                checked += 1
    assert checked > 100
    _report(8, f"split-character cohomology matches section counts on {checked} sums")


CORPUS = [
    ("invariants", "P2", "2:3:3/2"),
    ("invariants", "F3", "3:4,13:3"),
    ("obstructions", "P2", "2:3:1/2"),
    ("obstructions", "F1", "2:2,4:3"),
    ("gg", "P2", "3:0:0"),
    ("gg", "P2", "2:3:3/2"),
    ("gg", "F2", "2:0,3:0"),
    ("gg", "F1", "2:2,2:-2"),
    ("ample-gg", "P2", "2:4:0"),
    ("ample-gg", "P2", "2:3:1/2"),
    ("ample-gg", "F1", "2:3,5:5/2"),
    ("ample-gg", "F2", "2:3,8:2"),
    ("asymptotic", "P2", "2:3:1/2"),
    ("asymptotic", "P2", "2:20:-142"),
    ("asymptotic", "F1", "2:3,5:5/2"),
    ("asymptotic", "F0", "2:3,3:1"),
    ("bad-curves", "P2", "2:4:0"),
    ("bad-curves", "F1", "2:3,5:5/2"),
    ("report", "P2", "2:3:1/2"),
    ("report", "F2", "2:3,8:2"),
]


def test_criterion_9_cli_determinism():
    outputs = []
    for _ in range(2):
        run_outputs = []
        for command, surface, ch in CORPUS:
            code, out, _ = run_cli([command, "--surface", surface, "--ch", ch,
                                    "--format", "structured"])
            assert code == 0
            json.loads(out)  # well-formed
            run_outputs.append(out)
        outputs.append(run_outputs)
    assert outputs[0] == outputs[1]

    # exit-status contract
    assert run_cli(["invariants", "--surface", "F2", "--ch", "2:3,5:1/3"])[0] == 2
    assert run_cli(["asymptotic", "--surface", "P2", "--ch", "2:2:0"])[0] == 3
    assert run_cli(["report", "--surface", "P2", "--ch", "2:4:0"])[0] == 0
    _report(9, "structured output byte-identical on the 20-case corpus; exit codes 0/2/3")
