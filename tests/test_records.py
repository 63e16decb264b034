"""Value semantics of the library's records: immutable, and copied, pickled and
compared by their fields."""

import copy
import pickle

import pytest

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


def test_records_of_different_classes_are_never_equal():
    condition = Condition(True, True, True, True)
    wbn = WbnApplicability(True, True, True, True)
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
