"""Verdict census: every procedure's outcome over a whole box, frozen.

The golden corpus pins a few dozen chosen inputs; the census pins every
valid character in a fixed box, so a rewrite of the gates, the slope
arithmetic, the classification or the bad-curve enumeration that moves
any verdict shows up here.  The box is P2 and F0-F3, ranks 1-4, ``c1``
coordinates in ``COORDS`` (the F_e fiber coordinate in ``FIBER``), and
``c2`` from one below to ``C2_ABOVE`` above the Bogomolov bound
``(rank-1) c1^2 / (2 rank)``.  Each character gives one line:

    surface rank:c1:ch2 | ample_gg verdict and failure reason
    | gg case, failed condition or precondition text
    | bad-curve count and passes | n_min or asymptotic skip text
    | obstruction verdict and failed condition ids

The test compares the sha256 of the lines and the count per ``ample_gg``
verdict with ``tests/golden/census.json``.  It also checks, on every
``ample-general`` character, that it is unobstructed, globally generated
and passes the asymptotic preconditions.

A second golden file, ``tests/golden/gg_census.json``, pins the whole
global-generation record over the same box: one line per character with
every ``GGClassification`` field (or the ``PreconditionError`` text), kept
as a count and a sha256.  The census line names only the case and the
failed condition, so this one catches a moved ``chi_twist``, a swapped
``chi_twist_second`` or a wrong balanced split.

A third, ``tests/golden/report_census.json``, pins the bytes of the full
report: for every third character of the box, ``run_report`` rendered by
``render_structured`` and by ``render_text``, kept as a count and one
sha256 per format.  It holds every skip text, tag and field the report
writes, so a change to the report assembly or to either writer that moves
one byte shows up here.

The golden files record behaviour; regenerate them only when a verdict
or report change is intended, from the root of a checkout::

    PYTHONPATH=src python3 tests/test_census.py

which rewrites all three files, and review the diffs before committing them.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import islice

from amplecheck import (
    ChernCharacter,
    PreconditionError,
    Surface,
    ample_gg_verdict,
    asymptotic_ample_certificate,
    classify_global_generation,
    necessary_obstructions,
)
from amplecheck import report as rpt
from amplecheck.rationals import ceil_frac
from amplecheck.report import render_structured, render_text, run_report
import replay

SURFACES = (Surface.projective_plane(),) + tuple(Surface.hirzebruch(e) for e in range(4))
RANKS = range(1, 5)
COORDS = range(-1, 6)
FIBER = range(-1, 9)
C2_ABOVE = 10


def box():
    """Every character of the census box, in a fixed order."""
    for surface in SURFACES:
        c1s = (
            [surface.divisor(a) for a in COORDS]
            if surface.is_plane
            else [surface.divisor(a, b) for a in COORDS for b in FIBER]
        )
        for rank in RANKS:
            for c1 in c1s:
                square = c1.self_intersection
                bound = ceil_frac(Fraction((rank - 1) * square, 2 * rank))
                for c2 in range(bound - 1, bound + C2_ABOVE + 1):
                    yield ChernCharacter(rank, c1, Fraction(square, 2) - c2)


def census_line(v: ChernCharacter) -> tuple[str, str, list[str]]:
    """The census line of ``v``, its ``ample_gg`` verdict and its violations.

    A violation is a procedure that disagrees with an ``ample-general``
    verdict: the obstruction checklist, the classification or the
    asymptotic preconditions.
    """
    cert = ample_gg_verdict(v)
    ample = f"{cert.verdict}:{cert.failure_reason or ''}"
    violations = []
    try:
        gg = classify_global_generation(v)
        gg_text = f"case {gg.case}" if gg.globally_generated else f"no {gg.failed_condition}"
    except PreconditionError as exc:
        gg_text = f"skip {exc}"
    if cert.ample_general and not gg_text.startswith("case"):
        violations.append(f"{v}: ample-general but {gg_text}")
    passes = "".join("1" if b.passes else "0" for b in cert.bad_curves)
    bad = f"{len(cert.bad_curves)}:{passes}"
    try:
        asym = f"n_min={asymptotic_ample_certificate(v).n_min}"
    except PreconditionError as exc:
        asym = f"skip {exc}"
    if cert.ample_general and asym.startswith("skip"):
        violations.append(f"{v}: ample-general but asymptotic {asym}")
    obstructions = necessary_obstructions(v)
    failed = ",".join(c.id for c in obstructions.conditions if not c.holds)
    obs = f"{obstructions.verdict.value}:{failed}"
    if cert.ample_general and obstructions.verdict.value != "unobstructed":
        violations.append(f"{v}: ample-general but {obs}")
    line = f"{v.surface} {v} | {ample} | {gg_text} | {bad} | {asym} | {obs}"
    return line, cert.verdict, violations


def census() -> tuple[dict, list[str]]:
    """The census summary of the box and every violation found on the way."""
    digest = hashlib.sha256()
    verdicts: Counter = Counter()
    violations: list[str] = []
    for v in box():
        line, verdict, wrong = census_line(v)
        digest.update(line.encode() + b"\n")
        verdicts[verdict] += 1
        violations.extend(wrong)
    summary = {
        "characters": sum(verdicts.values()),
        "verdicts": dict(sorted(verdicts.items())),
        "sha256": digest.hexdigest(),
    }
    return summary, violations


def gg_line(v: ChernCharacter) -> str:
    """Every field of the classification record of ``v``, or its precondition text."""
    try:
        gg = classify_global_generation(v)
    except PreconditionError as exc:
        return f"{v.surface} {v} | skip {exc}"
    fields = (getattr(gg, name) for name in gg._fields)
    return f"{v.surface} {v} | " + " | ".join(map(repr, fields))


def gg_census() -> dict:
    """Count and sha256 of the classification lines of the box."""
    digest = hashlib.sha256()
    count = 0
    for v in box():
        digest.update(gg_line(v).encode() + b"\n")
        count += 1
    return {"characters": count, "sha256": digest.hexdigest()}


def report_census() -> dict:
    """Count and per-format sha256 of the full reports of every third character."""
    structured, text = hashlib.sha256(), hashlib.sha256()
    count = 0
    for v in islice(box(), 0, None, 3):
        report = run_report(v.surface, v)
        structured.update(render_structured(report))
        text.update(render_text(report).encode())
        count += 1
    return {
        "characters": count,
        "structured_sha256": structured.hexdigest(),
        "text_sha256": text.hexdigest(),
    }


def test_census_matches_golden():
    summary, violations = census()
    assert violations == []
    assert replay.census_failures("census.json", summary) == []


def test_gg_census_matches_golden():
    assert replay.census_failures("gg_census.json", gg_census()) == []


@cache
def fresh_report_census() -> tuple[dict, dict]:
    """The report census built once from an empty filler cache: its summary and a copy
    of the cache it filled.  The module's own cache is put back afterwards."""
    saved, rpt._FILLERS = rpt._FILLERS, {}
    try:
        return report_census(), dict(rpt._FILLERS)
    finally:
        rpt._FILLERS = saved


def test_report_census_matches_golden():
    assert replay.census_failures("report_census.json", fresh_report_census()[0]) == []


def test_report_census_fills_a_bounded_template_cache(monkeypatch):
    """Fillers are keyed by record type and pad alone, whatever the values: the keys over
    the report census are the report's own, one for each record a section row holds (a
    ``Skipped`` entry also at the deeper pad of the quick criterion inside the
    ``global_generation`` section) and the ``Fraction`` of ``delta_at_previous_n``, written
    by the walk: 10 in all.  A second pass adds none."""
    first, fillers = fresh_report_census()
    keys = set(fillers)
    monkeypatch.setattr(rpt, "_FILLERS", dict(fillers))
    assert report_census() == first
    assert set(rpt._FILLERS) == keys
    assert sorted((cls.__name__, len(pad)) for cls, pad in keys) == [
        ("AmpleGGCertificate", 2), ("AsymptoticCertificate", 2), ("CohomologyTriple", 2),
        ("Fraction", 6), ("GGSection", 2), ("ObstructionReport", 2), ("QuickCriterion", 4),
        ("Report", 0), ("Skipped", 2), ("Skipped", 4)]


if __name__ == "__main__":
    for name, summary in (("census.json", census()[0]), ("gg_census.json", gg_census()),
                          ("report_census.json", report_census())):
        (replay.GOLDEN / name).write_text(json.dumps(summary, indent=1) + "\n")
