"""The structured writer against ``json.dumps`` as the reference.

``render_structured`` writes reports in one pass instead of calling
``json.dumps(report, indent=2, ensure_ascii=True)``; the reference stays
here as the oracle, on every golden structured report and on generated
JSON trees.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from amplecheck import Surface, make_character
from amplecheck.report import parse_structured, render_structured, run_report

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "cases.json").read_text())
STRUCTURED = sorted(
    case["name"]
    for case in MANIFEST
    if case["exit"] == 0 and case["name"].endswith("_format_structured")
)


def reference(report) -> bytes:
    return (json.dumps(report, indent=2, ensure_ascii=True) + "\n").encode("ascii")


def test_golden_corpus_has_structured_reports():
    assert len(STRUCTURED) >= 60


@pytest.mark.parametrize("name", STRUCTURED)
def test_writer_matches_reference_on_golden_reports(name):
    payload = (GOLDEN / f"{name}.stdout").read_bytes()
    report = parse_structured(payload)
    assert render_structured(report) == reference(report) == payload


def test_writer_matches_reference_on_a_built_report():
    surface = Surface.hirzebruch(2)
    report = run_report(surface, make_character(2, surface.divisor(3, 8), 2))
    assert render_structured(report) == reference(report)


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
