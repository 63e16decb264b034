"""Value semantics of the library's records: immutable, and copied, pickled and
compared by their fields."""

import copy
import inspect
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given

from amplecheck import (
    ChernCharacter,
    CohomologyTriple,
    Condition,
    Surface,
    WbnApplicability,
    ample_gg_verdict,
    asymptotic_ample_certificate,
    classify_global_generation,
    dimension_count,
    necessary_obstructions,
    nonspecial_all_twists,
    parse_character,
    slope_conditions,
    wbn_applicable,
    wbn_cohomology,
)
from amplecheck.records import Record, lazy
from amplecheck.report import GGSection, QuickCriterion, Report, Skipped, run_report

F2 = Surface.hirzebruch(2)
V = parse_character("2:3,8:2", F2)

# one instance of each of the twelve record classes
RECORDS = (
    F2,
    V.c1,
    V,
    slope_conditions(V)[0],
    necessary_obstructions(V),
    classify_global_generation(V),
    wbn_applicable(V),
    wbn_cohomology(V),
    nonspecial_all_twists(V),
    dimension_count(V, F2.divisor(0, 1)),
    ample_gg_verdict(V),
    asymptotic_ample_certificate(V),
)
IDS = [type(r).__name__ for r in RECORDS]


def test_every_record_class_is_covered():
    assert len(set(IDS)) == 12


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_copies_and_pickles_are_equal(record):
    for again in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(again) is type(record)
        assert again == record and hash(again) == hash(record)


def test_a_report_copies_and_pickles_equal():
    report = run_report(F2, V)
    for again in (copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert type(again) is Report and again == report and hash(again) == hash(report)


def test_records_of_different_classes_are_never_equal():
    condition = Condition(True, True, True, True)
    wbn = WbnApplicability(True, True, True)
    assert condition != wbn and wbn != condition
    assert CohomologyTriple(1, 0, 0) != (1, 0, 0)


def test_round_trips_rebuild_a_character_through_its_checks(monkeypatch):
    rebuilt = []
    check = ChernCharacter.__init__

    def counting_check(self, *fields):
        rebuilt.append(fields)
        check(self, *fields)

    monkeypatch.setattr(ChernCharacter, "__init__", counting_check)
    for again in (copy.copy(V), copy.deepcopy(V), pickle.loads(pickle.dumps(V))):
        assert again == V and "mu" not in again.__dict__  # caches start empty
    assert rebuilt == [(V.rank, V.c1, V.ch2)] * 3


class Counted(Record):
    __slots__ = ("x", "__dict__")
    reads = 0

    @lazy
    def square(self):
        Counted.reads += 1
        return self.x * self.x


def test_lazy_invariants_are_computed_once_past_setattr(monkeypatch):
    monkeypatch.setattr(Record, "__setattr__", lambda *a: pytest.fail("went through setattr"))
    record = Counted(7)
    assert (record.square, record.square, Counted.reads) == (49, 49, 1)
    assert record.__dict__ == {"square": 49}
    assert Counted.square.__get__(None, Counted) is Counted.square


def test_trusted_constructor_sets_the_fields_unchecked():
    assert all(type(r)._of(*r._values(r)) == r for r in RECORDS[3:])  # their __init__ checks nothing
    c1 = V.c1._of(F2, (3, 8))
    assert c1 == V.c1 and type(c1) is type(V.c1)
    assert ChernCharacter._of(V.rank, c1, V.c2) == V


CLASSES = [type(r) for r in RECORDS] + [Counted]
FIELDS = st.sampled_from([0, 1, None, "", V.c1, V])  # few values, so fields often agree


@st.composite
def record_pairs(draw):
    """Two records built unchecked, often of one class, the second's fields often the first's."""
    first = draw(st.sampled_from(CLASSES))
    second = draw(st.just(first) | st.sampled_from(CLASSES))
    mine = [draw(FIELDS) for _ in first._fields]
    theirs = [draw(st.just(mine[i]) | FIELDS) if i < len(mine) else draw(FIELDS)
              for i in range(len(second._fields))]
    return first._of(*mine), second._of(*theirs)


@given(record_pairs())
def test_records_are_equal_exactly_when_class_and_values_agree(pair):
    a, b = pair
    same = type(a) is type(b) and a._values(a) == b._values(b)
    assert (a == b, b == a, a != b) == (same, same, not same)
    if same:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_every_record_compares_through_the_base_class(record):
    assert type(record).__eq__ is Record.__eq__ and type(record).__hash__ is Record.__hash__


# Each record class's constructor: names and defaults of ``__init__`` and, where
# ``__init__`` validates, of the trusted ``_of``.  Written out, so that binding the
# compiled constructors to the fields cannot rename, reorder or drop a keyword.
SIGNATURES = {
    "Surface": ("self, kind, e=0", "kind, e"),
    "DivisorClass": ("self, surface, coords", "surface, coords"),
    "ChernCharacter": ("self, rank, c1, ch2", "rank, c1, c2"),
    "Condition": ("self, id, text, holds, margin", None),
    "ObstructionReport": ("self, conditions, verdict, stability_assumed, note", None),
    "GGClassification": (
        "self, globally_generated, case=None, description='', failed_condition=None, "
        "chi=None, chi_twist=None, chi_twist_second=None, balanced_split=None", None),
    "WbnApplicability": ("self, delta_ok, fiber_ok=True, section_ok=True", None),
    "CohomologyTriple": ("self, h0, h1, h2", None),
    "NonspecialTrace": ("self, delta, fiber_margin=None, section_margin=None, note=''", None),
    "BadCurve": ("self, curve, chi_twist, d, c", None),
    "AmpleGGCertificate": (
        "self, slope_conditions, gg, nonspecial, bad_curves, failure_reason, notes", None),
    "AsymptoticCertificate": (
        "self, mode, base, twist_used, s, b, bound, n_min, kernel, "
        "delta_kernel_prev, chi_dual_twist, chi_kernel_dual_twist, kernel_twist_nu, "
        "kernel_twist_gg, wbn_kernel, slope_conditions, notes", None),
    "GGSection": ("self, classification, quick_criterion", None),
    "Report": (
        "self, command, character, verdict, d=None, invariants=None, general_cohomology=None, "
        "obstructions=None, global_generation=None, ample_gg=None, asymptotic=None, "
        "bad_curves=None, warnings=None", None),
    "Skipped": ("self, tag, skipped", None),
    "QuickCriterion": ("self, sufficient", None),
}
REPORT_RECORDS = (GGSection, Report, Skipped, QuickCriterion)  # report's own


def _parameters(function) -> str:
    return ", ".join(
        p.name if p.default is p.empty else f"{p.name}={p.default!r}"
        for p in inspect.signature(function).parameters.values()
    )


@pytest.mark.parametrize("cls", [*map(type, RECORDS), *REPORT_RECORDS], ids=lambda c: c.__name__)
def test_constructor_signatures_are_pinned(cls):
    init, of = SIGNATURES[cls.__name__]
    assert _parameters(cls.__init__) == init
    assert (None if cls._of is cls else _parameters(cls._of)) == of


def test_every_record_signature_is_pinned():
    assert {cls.__name__ for cls in [*map(type, RECORDS), *REPORT_RECORDS]} == set(SIGNATURES)
