"""The structured writer against ``json.dumps`` as the reference.

``render_structured`` writes reports in one pass instead of calling
``json.dumps(report, indent=2, ensure_ascii=True)``; the reference stays
here as the oracle, on every golden structured report, on built reports
and on generated JSON trees.  Built reports hold records (``DivisorClass``,
``ChernCharacter``, ``Condition``, ``BadCurve``) and ``Fraction`` leaves,
which the reference writes through ``default=to_json``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from amplecheck import (
    AmpleGGCertificate,
    AsymptoticCertificate,
    BadCurve,
    ChernCharacter,
    CohomologyTriple,
    Condition,
    DivisorClass,
    GGClassification,
    NonspecialTrace,
    ObstructionReport,
    ObstructionVerdict,
    PreconditionError,
    Surface,
    SurfaceMismatchError,
    WbnApplicability,
    ample_gg_verdict,
    asymptotic_ample_certificate,
    classify_global_generation,
    enumerate_bad_curves,
    make_character,
    parse_character,
    parse_surface,
)
from amplecheck import report as rpt
from amplecheck.ampleness import GENERAL_MEMBER_NOTE, STABILITY_NOTE
from amplecheck.report import (
    SECTIONS,
    VERDICT_TAGS,
    GGSection,
    QuickCriterion,
    Report,
    Skipped,
    bad_curves_report,
    gieseker_report,
    parse_structured,
    render_structured,
    render_text,
    run_report,
    to_json,
)
import replay

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "cases.json").read_text())
STRUCTURED = sorted(
    case["name"]
    for case in MANIFEST
    if case["exit"] == 0 and case["name"].endswith("_format_structured")
)


def reference(report) -> bytes:
    text = json.dumps(report, indent=2, ensure_ascii=True, default=to_json)
    return (text + "\n").encode("ascii")


def test_golden_corpus_has_structured_reports():
    assert len(STRUCTURED) >= 60


@pytest.mark.parametrize("name", STRUCTURED)
def test_writer_matches_reference_on_golden_reports(name):
    payload = (GOLDEN / f"{name}.stdout").read_bytes()
    report = parse_structured(payload)
    assert render_structured(report) == reference(report) == payload


def test_writer_matches_reference_on_a_built_report():
    cases = [
        (run_report, Surface.hirzebruch(2), "2:3,8:2", 2),
        (run_report, Surface.hirzebruch(1), "2:3,5:5/2", 2),
        (bad_curves_report, Surface.hirzebruch(0), "2:400,3:-209", 72),
    ]
    for build, surface, ch, n_bad in cases:
        report = build(surface, parse_character(ch, surface))
        classes = report.bad_curves if report.bad_curves is not None else (
            report.ample_gg.bad_curves)  # the certificate record, as ample_gg_verdict made it
        assert type(classes) is tuple and len(classes) == n_bad, ch
        assert render_structured(report) == reference(report), ch


def _f0_report_with_672_bad_curves():
    surface = Surface.hirzebruch(0)
    report = bad_curves_report(surface, parse_character("2:4000,3:-2009", surface))
    assert len(report.bad_curves) == 672
    return report


LAYOUTS = ("to_json", "_layout", "_template")


def _count_layout_calls(monkeypatch) -> tuple[list[str], list[int]]:
    """Calls of each layout function by name, and the fillers compiled."""
    calls: list[str] = []
    for name in LAYOUTS:
        original = getattr(rpt, name)
        monkeypatch.setattr(
            rpt, name, lambda *a, name=name, original=original: calls.append(name) or original(*a)
        )
    compiles: list[int] = []
    monkeypatch.setattr(rpt, "eval", lambda *a: compiles.append(1) or eval(*a), raising=False)
    return calls, compiles


def test_bad_curves_are_written_without_per_member_dicts(monkeypatch):
    report = _f0_report_with_672_bad_curves()
    expected = render_structured(report)
    assert expected == reference(report)
    calls, compiles = _count_layout_calls(monkeypatch)
    assert render_structured(report) == expected
    assert calls == compiles == []
    # a cold cache compiles one filler, the report's: the bad-curve list is the member
    # template in a comprehension, not one layout per member
    monkeypatch.setattr(rpt, "_FILLERS", {})
    assert render_structured(report) == expected
    assert len(compiles) == 1 and set(rpt._FILLERS) == {(Report, "")}


def test_warm_template_cache_renders_reports_without_layout_calls(monkeypatch):
    surface = Surface.hirzebruch(2)
    reports = [run_report(surface, parse_character("2:3,8:2", surface)), gieseker_report(12)]
    expected = [render_structured(r) for r in reports]  # the warm-up
    calls, compiles = _count_layout_calls(monkeypatch)
    assert [render_structured(r) for r in reports] == expected
    assert calls == compiles == []
    # a cold cache compiles each (record type, pad) key once, when first seen, so the F2
    # report and the plane one share every filler they both use
    monkeypatch.setattr(rpt, "_FILLERS", {})
    assert [render_structured(r) for r in reports] == expected
    assert len(compiles) == len(rpt._FILLERS)
    # the report's template inlines its character, invariants and bad curves; a section
    # record of an ANY row has its own, and so has the Fraction of delta_at_previous_n,
    # written by the walk
    sections = {CohomologyTriple, ObstructionReport, GGSection, QuickCriterion,
                AmpleGGCertificate, AsymptoticCertificate}
    assert Counter(cls for cls, _ in rpt._FILLERS) == Counter([Report, Fraction, *sections])


def test_a_filler_does_not_depend_on_values(monkeypatch):
    """Templates are keyed by record type and pad alone: two records of one type that
    differ in which "?" rows are present and in list lengths share one cached filler."""
    F2, F3 = Surface.hirzebruch(2), Surface.hirzebruch(3)
    v = parse_character("2:3,8:2", F2)
    certificates = (ample_gg_verdict(v), ample_gg_verdict(make_character(
        2, F3.divisor(3, 11), Fraction(19, 2))))
    classifications = (classify_global_generation(v),
                       classify_global_generation(parse_character("2:0,3:0", F2)))
    assert [len(c.bad_curves) for c in certificates] == [2, 0]
    assert [(c.case, c.balanced_split is None) for c in classifications] == [(2, True), (1, False)]
    monkeypatch.setattr(rpt, "_FILLERS", {})
    for record in (*certificates, *classifications):
        tree = {"s": record}
        assert render_structured(tree) == reference(tree)
    assert set(rpt._FILLERS) == {(AmpleGGCertificate, "  "), (GGClassification, "  ")}


def _count_validated(monkeypatch) -> Counter:
    """Count calls of the validating constructors of divisors and characters."""
    counts = Counter()
    for cls in (DivisorClass, ChernCharacter):
        def counting(self, *fields, cls=cls, check=cls.__init__):
            counts[cls] += 1
            check(self, *fields)
        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_a_report_validates_few_records(monkeypatch):
    """Twists, duals, kernels and divisor sums are built without re-validation:
    one F2 report made 45 validated divisors and 8 validated characters before."""
    F2 = Surface.hirzebruch(2)
    render_structured(run_report(F2, parse_character("2:3,8:2", F2)))  # warm caches
    counts = _count_validated(monkeypatch)
    render_structured(run_report(F2, parse_character("2:3,8:2", F2)))
    assert counts[DivisorClass] <= 9 and counts[ChernCharacter] <= 3


def _count_fractions(monkeypatch) -> Counter:
    """Count the ``Fraction``s constructed through ``Fraction.__new__``."""
    counts = Counter()
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        counts[Fraction] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return counts


@pytest.mark.parametrize(("e", "text", "most"), [(3, "4:1,-5:-29/2", 15), (2, "2:3,8:2", 31)])
def test_a_report_makes_few_fractions(monkeypatch, e, text, most):
    """Numbers are parsed once, and the Fulton-Lazarsfeld margin and ``B_squared`` come
    from integers: the F3 report (hypotheses-fail) made 26 Fractions and the F2 report
    (certified) 54 before."""
    surface = Surface.hirzebruch(e)
    expected = render_structured(run_report(surface, parse_character(text, surface)))
    counts = _count_fractions(monkeypatch)
    assert render_structured(run_report(surface, parse_character(text, surface))) == expected
    assert counts[Fraction] <= most


def _count_calls(monkeypatch) -> Counter:
    """Count ``Fraction`` order comparisons, ``is_integral`` reads and surface checks."""
    counts = Counter()

    def counting(name, func):
        def wrapper(*args):
            counts[name] += 1
            return func(*args)
        return wrapper

    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, op, counting("compare", getattr(Fraction, op)))
    monkeypatch.setattr(DivisorClass, "is_integral",
                        property(counting("is_integral", DivisorClass.is_integral.fget)))
    monkeypatch.setattr(DivisorClass, "_check_same_surface",
                        counting("same_surface", DivisorClass._check_same_surface))
    return counts


@pytest.mark.parametrize(("surface", "text", "counts"), [
    ("F2", "2:3,8:2", (0, 1, 0)),      # 0, 11 and 8 before
    ("P2", "2:20:-142", (0, 1, 0)),    # 0, 5 and 5 before
    ("F0", "2:3,3:1", (0, 1, 0)),      # 0, 13 and 9 before
])
def test_a_report_decides_no_sign_on_a_fraction(monkeypatch, surface, text, counts):
    """Sign tests read numerators, and the gg ladder's ``-D``, the quick criterion's ``-L``,
    the dimension count's curves and the certificate's twists are int tuples: one warm
    report makes no ``Fraction`` comparison and no surface check, and checks integrality
    once, on the parsed ``c1``."""
    surface = parse_surface(surface)
    expected = render_structured(run_report(surface, parse_character(text, surface)))
    made = _count_calls(monkeypatch)
    assert render_structured(run_report(surface, parse_character(text, surface))) == expected
    assert (made["compare"], made["is_integral"], made["same_surface"]) == counts


def test_a_certificate_makes_few_fractions_and_validates_nothing(monkeypatch):
    """``c1 - rank*H``, ``B``, the kernels, twists and duals are built in ints: one F2
    certificate made 13 Fractions and 4 validated divisors before."""
    F2 = Surface.hirzebruch(2)
    expected = asymptotic_ample_certificate(parse_character("2:3,8:2", F2))  # warm caches
    v = parse_character("2:3,8:2", F2)
    fractions, validated = _count_fractions(monkeypatch), _count_validated(monkeypatch)
    assert asymptotic_ample_certificate(v) == expected
    assert fractions[Fraction] <= 9 and validated[DivisorClass] == validated[ChernCharacter] == 0


def test_b_squared_is_computed_once_per_report(monkeypatch):
    """``B_squared`` is computed once, when the certificate is built, from the ``Q`` the bound
    reads: renders never run its fallback, which a copied certificate reads from ``B``."""
    F2 = Surface.hirzebruch(2)
    v = parse_character("2:3,8:2", F2)
    render_structured(run_report(F2, v))  # warm caches
    lazy_b_squared, calls = AsymptoticCertificate.__dict__["b_squared"], []
    compute = lazy_b_squared.func
    monkeypatch.setattr(lazy_b_squared, "func", lambda cert: calls.append(1) or compute(cert))
    for report in [run_report(F2, v) for _ in range(3)]:
        assert report.asymptotic.__dict__["b_squared"] == Fraction(1, 2)  # set by the builder
        assert render_structured(report) == render_structured(report)
    assert calls == []
    copied = copy.copy(report.asymptotic)  # rebuilt from its fields, without the builder
    assert "b_squared" not in copied.__dict__
    assert copied.b_squared == copied.b.self_intersection == Fraction(1, 2) and calls == [1]


def test_family_members_are_not_validated_one_by_one(monkeypatch):
    F0 = Surface.hirzebruch(0)
    enumerate_bad_curves(parse_character("2:400,3:-209", F0))  # warm caches
    counts = _count_validated(monkeypatch)
    made = []
    for x in (200, 4000):
        counts.clear()
        bad = enumerate_bad_curves(parse_character(f"2:{2 * x},3:-{x + 9}", F0))
        made.append((len(bad), counts[DivisorClass]))
    assert made[0][0] < made[1][0] and made[0][1] == made[1][1] <= 4


def test_text_rendering_of_bad_curve_records_is_unchanged():
    # bytes of render_text on this report before bad curves were held as records
    text = render_text(_f0_report_with_672_bad_curves()).encode("ascii")
    assert len(text) == 152364
    assert hashlib.sha256(text).hexdigest() == (
        "21985dbca38c0e112667aefd2d237479cc3146e9c138b06016139c6e02870f3b"
    )


def test_to_json_lays_out_nested_records():
    """``to_json`` gives the JSON-native layout, nested records and rationals included."""
    F2 = Surface.hirzebruch(2)
    v = parse_character("2:3,8:2", F2)
    for record in (v, v.c1, run_report(F2, v).obstructions):
        assert to_json(record) == parse_structured(render_structured({"r": record}))["r"]


def test_a_report_names_the_surface_of_its_character():
    """A report on one surface of a character on another is refused, not written with
    the first surface's name above the second's character and verdicts."""
    F1, F2 = Surface.hirzebruch(1), Surface.hirzebruch(2)
    v = parse_character("2:3,8:2", F2)
    for build in (run_report, bad_curves_report):
        with pytest.raises(SurfaceMismatchError, match="F1 .* F2"):
            build(F1, v)
        assert to_json(build(F2, v))["surface"] == "F2"
    assert to_json(Report("gg", v, "none"))["surface"] == "F2"


@pytest.mark.parametrize("command, ch, options, name", [
    ("invariants", "2:3:3/2", {}, "invariants_surface_P2_ch_2_3_3_2"),
    ("obstructions", "2:3:1/2", {}, "obstructions_surface_P2_ch_2_3_1_2"),
    ("gg", "3:0:0", {}, "gg_surface_P2_ch_3_0_0"),
    ("ample-gg", "2:4:0", {}, "ample-gg_surface_P2_ch_2_4_0"),
    ("asymptotic", "2:3:1/2", {}, "asymptotic_surface_P2_ch_2_3_1_2"),
    ("bad-curves", "2:4:0", {}, "bad-curves_surface_P2_ch_2_4_0"),
    ("report", "2:3:1/2", {}, "report_surface_P2_ch_2_3_1_2"),
    ("gieseker", None, {"d": 4}, "gieseker_d_4"),
])
def test_command_report_writes_the_golden_report(command, ch, options, name):
    """Each command's report comes from ``command_report`` alone: rendered without the
    CLI, it is the command's golden structured case."""
    v = ch and parse_character(ch, Surface.projective_plane())
    out = render_structured(rpt.command_report(command, v, **options))
    assert out == (GOLDEN / f"{name}_format_structured.stdout").read_bytes()


def test_command_report_raises_the_cli_precondition():
    """A failed precondition leaves ``command_report`` as the error the CLI prints."""
    case = next(c for c in replay.manifest() if c["name"] == "asymptotic_surface_P2_ch_2_2_0_s_1")
    v = parse_character("2:2:0", Surface.projective_plane())
    with pytest.raises(PreconditionError) as raised:
        rpt.command_report("asymptotic", v, s=1)
    assert (case["exit"], f"precondition error: {raised.value}\n") == (3, case["stderr"])


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.text(st.characters(exclude_categories=()))
    | st.sampled_from(["", "\x00\x1f\x7f", "é–\U0001f600", "\ud800", '"\\/\b\f\n\r\t'])
)
JSON_TREES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(st.characters(exclude_categories=())), children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300)
@given(JSON_TREES)
def test_writer_matches_reference_on_generated_trees(tree):
    assert render_structured(tree) == reference(tree)


@pytest.mark.parametrize("tree", [{}, [], {"a": {}}, {"a": []}, [[], {}], {"": [{}]}])
def test_writer_matches_reference_on_empty_containers(tree):
    assert render_structured(tree) == reference(tree)


@pytest.mark.parametrize("tree", [{"x": 0.5}, [1.0], {1: "a"}, {"s": {1, 2}}])
def test_writer_rejects_non_report_values(tree):
    with pytest.raises(TypeError):
        render_structured(tree)


@pytest.mark.parametrize("value, name", [(0.5, "float"), ({1, 2}, "set"), (b"x", "bytes")])
def test_to_json_rejects_what_json_rejects(value, name):
    with pytest.raises(TypeError) as info:
        to_json(value)
    assert str(info.value) == f"Object of type {name} is not JSON serializable"


SURFACES = [Surface.projective_plane()] + [Surface.hirzebruch(e) for e in range(6)]
HUGE = 10**3999  # within the interpreter's default limit of 4300 digits
VALUES = st.integers(min_value=-1000, max_value=1000) | st.integers(min_value=-HUGE, max_value=HUGE)
FRACTIONS = st.fractions(max_denominator=50) | st.builds(Fraction, VALUES, st.integers(1, 10**40))


def divisors(surface: Surface, coord=st.integers(min_value=-50, max_value=10**40)):
    return st.tuples(*[coord] * len(surface.basis)).map(lambda c: surface.divisor(*c))


def characters(surface: Surface):
    """``ChernCharacter``s with any integral ``c1`` and any integer ``c2``."""
    def build(rank, c1, c2):
        return ChernCharacter(rank, c1, Fraction(c1.self_intersection, 2) - c2)

    return st.builds(build, st.integers(1, 10**6), divisors(surface), VALUES)


RECORD_KINDS = [  # each record type a report holds, on a surface, and Fraction leaves
    lambda surface: st.builds(BadCurve, divisors(surface), VALUES, VALUES, VALUES),
    divisors,
    lambda surface: divisors(surface, st.integers(-50, 50) | FRACTIONS),
    characters,
    lambda surface: st.builds(
        Condition, st.text(max_size=8), st.text(), st.booleans(), st.integers() | FRACTIONS
    ),
    lambda surface: FRACTIONS,
]


@st.composite
def records(draw, surfaces=st.sampled_from(SURFACES)):
    return draw(draw(st.sampled_from(RECORD_KINDS))(draw(surfaces)))


@st.composite
def record_sequences(draw):
    """A non-empty tuple or list of records of one type, on one surface or on two."""
    kind = draw(st.sampled_from(RECORD_KINDS))
    surfaces = st.sampled_from(draw(st.lists(st.sampled_from(SURFACES), min_size=1, max_size=2)))
    items = draw(st.lists(surfaces.flatmap(kind), min_size=1, max_size=4))
    return draw(st.sampled_from([tuple, list]))(items)


TREES_WITH_RECORDS = st.recursive(
    SCALARS | records() | record_sequences(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(TREES_WITH_RECORDS)
def test_writer_matches_reference_on_trees_with_records(tree):
    assert render_structured(tree) == reference(tree)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=3), TREES_WITH_RECORDS, max_size=4))
def test_text_of_records_is_the_text_of_their_layouts(tree):
    # the JSON-native form holds every record as its layout and every rational as {num, den}
    assert render_text(tree) == render_text(parse_structured(reference(tree)))


# The five certificate records, the section records of a report and its envelope, each
# optional field drawn present and absent, and a Skipped entry in each section row but
# ``invariants``, which holds the character and is never skipped.  Notes, weak Brill-Noether
# failures and warnings are tuples from the library's fixed sets, as in the library's own
# reports; every other string is drawn freely.
KERNEL_NOTE = "the kernel discriminant is nonnegative for every n >= n_min"
NOTES = st.lists(st.sampled_from([STABILITY_NOTE, GENERAL_MEMBER_NOTE, KERNEL_NOTE]),
                 max_size=3).map(tuple)
TEXTS = st.text(max_size=12)
MAYBE_INT = st.none() | st.integers()
MAYBE_RAT = st.none() | FRACTIONS
SMALL = st.integers(-50, 50) | st.fractions(-50, 50, max_denominator=50)


def conditions():
    return st.lists(RECORD_KINDS[4](None), max_size=7).map(tuple)


def obstruction_reports(surface):
    return st.builds(ObstructionReport, conditions(), st.sampled_from(list(ObstructionVerdict)),
                     st.booleans(), st.none() | TEXTS)


def classifications(surface):
    return st.builds(
        GGClassification, st.booleans(), MAYBE_INT, st.just("") | TEXTS, st.none() | TEXTS,
        MAYBE_INT, MAYBE_INT, MAYBE_INT, st.none() | st.tuples(st.integers(), st.integers()))


def skips(surface):
    return st.builds(Skipped, st.sampled_from(sorted(VERDICT_TAGS)) | TEXTS, TEXTS)


def cohomologies(surface):
    return st.builds(CohomologyTriple, VALUES, VALUES, VALUES)


def quick_criteria(surface):
    return st.builds(QuickCriterion, st.booleans())


def gg_sections(surface):
    return st.builds(GGSection, classifications(surface), quick_criteria(surface) | skips(surface))


def nonspecial_traces(surface):
    return st.builds(NonspecialTrace, FRACTIONS, MAYBE_RAT, MAYBE_RAT, TEXTS)


def ample_certificates(surface):
    return st.builds(
        AmpleGGCertificate, conditions(),
        st.none() | classifications(surface), st.none() | nonspecial_traces(surface),
        st.lists(RECORD_KINDS[0](surface), max_size=3).map(tuple),
        st.none() | st.just("") | TEXTS, NOTES)


def asymptotic_certificates(surface):
    wbn = st.builds(WbnApplicability, st.booleans(), st.booleans(), st.booleans())
    return st.builds(
        AsymptoticCertificate, TEXTS, characters(surface),
        divisors(surface), st.integers(2, 10**6), divisors(surface, SMALL),  # B, squared
        FRACTIONS, st.integers(1, 10**6), characters(surface), MAYBE_RAT,
        VALUES, VALUES, divisors(surface, FRACTIONS), st.booleans(), wbn, conditions(), NOTES)


SECTION_KINDS = [obstruction_reports, gg_sections, classifications, nonspecial_traces,
                 ample_certificates, asymptotic_certificates, skips, characters, cohomologies,
                 quick_criteria]
ROW_KINDS = dict(zip(SECTIONS[1:], [cohomologies, obstruction_reports, gg_sections,
                                    ample_certificates, asymptotic_certificates]))
WARNING = "stability of the input character is assumed, not verified"


@st.composite
def section_trees(draw):
    """A certificate record, at the top of a report or nested in a dict or list."""
    record = draw(draw(st.sampled_from(SECTION_KINDS))(draw(st.sampled_from(SURFACES))))
    return draw(st.sampled_from([{"s": record}, {"s": [record]}, {"a": {"b": record, "c": 1}}]))


@settings(max_examples=300, deadline=None)
@given(section_trees())
def test_section_records_render_as_their_layouts(tree):
    assert render_structured(tree) == reference(tree)
    assert render_text(tree) == render_text(parse_structured(render_structured(tree)))


@st.composite
def reports(draw):
    """A report on one surface: each section row absent, its record or a Skipped entry, and
    ``invariants`` absent or a character, since the library never skips it."""
    surface = draw(st.sampled_from(SURFACES))
    sections = {key: draw(st.none() | kind(surface) | skips(surface))
                for key, kind in ROW_KINDS.items()}
    sections["invariants"] = draw(st.none() | characters(surface))
    bad = st.lists(RECORD_KINDS[0](surface), max_size=3).map(tuple)
    warnings = st.lists(st.just(WARNING), max_size=2).map(tuple)
    return Report(draw(TEXTS), draw(characters(surface)), draw(TEXTS), draw(MAYBE_INT),
                  bad_curves=draw(st.none() | bad), warnings=draw(st.none() | warnings),
                  **sections)


@settings(max_examples=150, deadline=None)
@given(reports())
def test_reports_render_as_their_layouts(report):
    """The envelope is one record: one fill writes the whole report, in the key order of
    ``json.dumps`` on its layout."""
    assert render_structured(report) == reference(report)
    assert render_text(report) == render_text(parse_structured(render_structured(report)))
    d = ["d"] if report.d is not None else []
    sections = [key for key in SECTIONS if getattr(report, key) is not None]
    keys = ["schema_version", "command", *d, "surface", "character", *sections, "verdict"]
    assert list(parse_structured(render_structured(report))) == keys


def test_the_cache_of_written_texts_is_bounded():
    """A caller's own warnings are text tuples outside the library's fixed sets: 1,000
    distinct ones leave at most 128 written texts cached (1,001 when it had no bound)."""
    v = parse_character("2:3:1/2", Surface.projective_plane())
    for i in range(1000):
        render_structured(Report("invariants", v, "computed", warnings=(f"warning {i}",)))
    assert rpt._texts.cache_info().currsize <= 128


def test_a_report_makes_few_walk_calls(monkeypatch):
    """The report is filled from its template; the walk writes only the report itself and
    its one WALK slot, ``delta_at_previous_n``: 2 calls."""
    F2 = Surface.hirzebruch(2)
    report = run_report(F2, parse_character("2:3,8:2", F2))
    expected = render_structured(report)  # warm caches
    calls = []
    original = rpt._walked
    monkeypatch.setattr(rpt, "_walked", lambda *a: calls.append(1) or original(*a))
    monkeypatch.setattr(rpt, "_FILLERS", {})  # fillers compiled now call the counted walk
    assert render_structured(report) == expected
    assert len(calls) <= 10  # 29 when the envelope and 87 when every section were walked


OVERSIZED = {  # one field of 4,301 digits, past the interpreter's default limit
    "bad-curve": lambda: BadCurve(Surface.hirzebruch(0).divisor(1, 0), -(10**4300), 0, 1),
    "fraction": lambda: Fraction(10**4300, 3),
    "character": lambda: characters_with_c2(10**4300),
    "divisor": lambda: Surface.hirzebruch(1).divisor(2, -(10**4300)),
}


def characters_with_c2(c2: int) -> ChernCharacter:
    c1 = Surface.hirzebruch(0).divisor(1, 1)
    return ChernCharacter(2, c1, Fraction(c1.self_intersection, 2) - c2)


def test_oversized_record_field_raises_the_interpreters_value_error(monkeypatch):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no integer-to-string limit")
    monkeypatch.setattr(rpt, "_FILLERS", {})
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for kind, make in OVERSIZED.items():
            tree = {"classes": (make(),)}
            with pytest.raises(ValueError) as want:
                reference(tree)
            for cache in ("cold", "warm"):
                with pytest.raises(ValueError, match="Exceeds the limit") as got:
                    render_structured(tree)
                assert str(got.value) == str(want.value), (kind, cache)
    finally:
        sys.set_int_max_str_digits(saved)
