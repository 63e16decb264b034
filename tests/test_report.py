"""The structured writer against ``json.dumps`` as the reference.

``render_structured`` writes reports in one pass instead of calling
``json.dumps(report, indent=2, ensure_ascii=True)``; the reference stays
here as the oracle, on every golden structured report, on built reports
and on generated JSON trees.  Built reports hold their bad curves as
``BadCurve`` records, which the reference writes through
``default=bad_curve_to_json``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from amplecheck import BadCurve, Surface, parse_character
from amplecheck import report as rpt
from amplecheck.report import (
    bad_curve_to_json,
    bad_curves_report,
    parse_structured,
    render_structured,
    render_text,
    run_report,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "cases.json").read_text())
STRUCTURED = sorted(
    case["name"]
    for case in MANIFEST
    if case["exit"] == 0 and case["name"].endswith("_format_structured")
)


def reference(report) -> bytes:
    text = json.dumps(report, indent=2, ensure_ascii=True, default=bad_curve_to_json)
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
        section = report.get("bad_curves") or report["ample_gg"]["bad_curves"]
        assert type(section["classes"]) is tuple and len(section["classes"]) == n_bad, ch
        assert render_structured(report) == reference(report), ch


def _f0_report_with_672_bad_curves():
    surface = Surface.hirzebruch(0)
    report = bad_curves_report(surface, parse_character("2:4000,3:-2009", surface))
    assert len(report["bad_curves"]["classes"]) == 672
    return report


def test_bad_curves_are_written_without_per_member_dicts(monkeypatch):
    report = _f0_report_with_672_bad_curves()
    expected = render_structured(report)
    calls = []
    for name in ("bad_curve_to_json", "divisor_to_json"):
        original = getattr(rpt, name)
        monkeypatch.setattr(
            rpt, name, lambda x, name=name, original=original: calls.append(name) or original(x)
        )
    assert render_structured(report) == expected
    assert calls == []
    # a cold template cache costs one entry of each, not one per member
    monkeypatch.setattr(rpt, "_BAD_CURVE_TEMPLATES", {})
    assert render_structured(report) == expected
    assert calls == ["bad_curve_to_json", "divisor_to_json"]


def test_text_rendering_of_bad_curve_records_is_unchanged():
    # bytes of render_text on this report before bad curves were held as records
    text = render_text(_f0_report_with_672_bad_curves()).encode("ascii")
    assert len(text) == 152364
    assert hashlib.sha256(text).hexdigest() == (
        "21985dbca38c0e112667aefd2d237479cc3146e9c138b06016139c6e02870f3b"
    )


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


SURFACES = [Surface.projective_plane()] + [Surface.hirzebruch(e) for e in range(6)]
HUGE = 10**3999  # within the interpreter's default limit of 4300 digits
VALUES = st.integers(min_value=-1000, max_value=1000) | st.integers(min_value=-HUGE, max_value=HUGE)


@st.composite
def bad_curve_tuples(draw):
    """A non-empty tuple of ``BadCurve`` records on one surface."""
    surface = draw(st.sampled_from(SURFACES))
    coords = st.tuples(*[st.integers(min_value=-50, max_value=10**40)] * len(surface.basis))
    records = st.builds(BadCurve, coords.map(lambda c: surface.divisor(*c)), VALUES, VALUES, VALUES)
    return tuple(draw(st.lists(records, min_size=1, max_size=4)))


TREES_WITH_RECORDS = st.recursive(
    SCALARS | bad_curve_tuples(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(TREES_WITH_RECORDS)
def test_writer_matches_reference_on_bad_curve_records(tree):
    assert render_structured(tree) == reference(tree)


def test_oversized_record_field_raises_the_interpreters_value_error():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no integer-to-string limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        surface = Surface.hirzebruch(0)
        bad = BadCurve(surface.divisor(1, 0), -(10**4300), 0, 1)
        with pytest.raises(ValueError, match="Exceeds the limit") as got:
            render_structured({"classes": (bad,)})
        with pytest.raises(ValueError) as want:
            reference({"classes": (bad,)})
        assert str(got.value) == str(want.value)
    finally:
        sys.set_int_max_str_digits(saved)
