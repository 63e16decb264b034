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

The golden files record behaviour; regenerate them only when a verdict
change is intended, from the root of a checkout::

    PYTHONPATH=src python3 tests/test_census.py

which rewrites both files, and review the diffs before committing them.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

from amplecheck import (
    ChernCharacter,
    PreconditionError,
    Surface,
    ample_gg_verdict,
    asymptotic_ample_certificate,
    classify_global_generation,
    necessary_obstructions,
)
from amplecheck.rationals import ceil_frac

GOLDEN = Path(__file__).resolve().parent / "golden" / "census.json"
GG_GOLDEN = GOLDEN.with_name("gg_census.json")

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
    failed = ",".join(c.id for c in obstructions.failed)
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


def test_census_matches_golden():
    summary, violations = census()
    assert violations == []
    assert summary == json.loads(GOLDEN.read_text())


def test_gg_census_matches_golden():
    assert gg_census() == json.loads(GG_GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(census()[0], indent=1) + "\n")
    GG_GOLDEN.write_text(json.dumps(gg_census(), indent=1) + "\n")
