"""Necessary conditions for ampleness and the global-generation classification.

Two kinds of verdict live here.

*Obstructions.*  A stable ample bundle of rank >= 2 must satisfy, besides
the Bogomolov inequality ``delta >= 0`` and the Fulton-Lazarsfeld bound

    nu^2 / 2 > delta / (rank + 1),

sharp slope inequalities coming from restriction to rational curves:
``nu.H > 1 + 1/rank`` on the plane (with the tangent bundle as the unique
exception), and ``nu.F > 1`` together with ``nu.E >= 1`` (``> 1`` on
``F_0``) on Hirzebruch surfaces.  A stable bundle with ``nu.F = 1`` is
forced to be a line bundle, so for rank >= 2 that equality is itself an
obstruction.  Stability of the input character is an assumption recorded in
the report, never a computed fact.  The sharp inequalities gate every
procedure (``require_slope_hypotheses``); ``slope_conditions`` builds them
once per character and stores them in it, like ``delta``, so the verdict,
the nonspecial trace, the obstructions and the asymptotic gate share one
tuple (on the plane, one per threshold).

*Global generation.*  For ``delta >= 0``, rank >= 2 and ``nu`` nef (on the
plane, ``nu.H >= 0``) the general prioritary bundle is globally generated
exactly in one of four cases, tried in order on every surface:

1. ``c1`` is degenerate (zero on the plane, ``c1.E = 0`` or ``c1.F = 0`` on
   ``F_0``, ``c1.F = 0`` on ``F_e``) and ``v`` is a balanced sum of line
   bundles along it;
2. otherwise ``chi(v(-D)) >= 0`` for a twist class D (H on the plane, F or
   E on ``F_0``, F on ``F_e``);
3. otherwise ``chi(v) >= rank + 2``;
4. otherwise ``chi(v) = rank + 1`` and ``v`` is the special character
   ``(rank+1) ch O - ch O(-2H)`` on the plane or
   ``(rank+1) ch O - ch O(-2E-2F)`` on ``F_1``.

A uniform sufficient criterion: if ``nu`` is big and nef and
``chi(v(-L)) >= 0``, the general bundle is globally generated.

*Arithmetic.*  Every slope inequality is decided on integer pairings of
``c1`` against the rank: ``nu.H > 1 + 1/rank`` as ``c1.H > rank + 1``,
``nu.F > 1`` as ``c1.F > rank`` and ``nu.E >= 1`` as ``c1.E >= rank``,
with ``(c1.F, c1.E) = (a, b - e*a)`` for ``c1 = aE + bF``.  Nef and big
are scale-invariant, so they are tested on ``c1`` in place of ``nu``.  A
margin is built once per character, as ``Fraction(pairing - threshold,
rank)``, and equals the slope's distance from its threshold; on ``F_e`` the
obstructions read theirs from the sharp conditions.  The Fulton-Lazarsfeld
margin is ``(c1^2 - c2) / (rank*(rank+1))``: put ``2 rank^2 delta =
(1-rank) c1^2 + 2 rank c2`` into ``nu^2/2 - delta/(rank+1)``.  A sign test
on a ``Fraction`` (``delta``, a margin) reads its numerator, as denominators
are positive; the twists ``-D`` and ``-L`` below are int coordinate tuples.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .characters import ChernCharacter
from .errors import PreconditionError
from .records import Record
from .surfaces import is_nef, ruling_degrees


def is_tangent_bundle(v: ChernCharacter) -> bool:
    """Whether ``v`` is the plane's tangent bundle character ``(2, 3H, 3/2)``, without building
    it (``tests/oracles.py``'s ``tangent_bundle_character`` builds it)."""
    return v.surface.is_plane and (v.rank, v.c1.coords, v.c2) == (2, (3,), 3)


class Condition(Record):
    """One checked inequality with its exact margin (negative = violated)."""

    __slots__ = ("id", "text", "holds", "margin")


class ObstructionVerdict(Enum):
    UNOBSTRUCTED = "unobstructed"
    OBSTRUCTED = "obstructed"
    EXCEPTIONAL_TANGENT_BUNDLE = "exceptional-tangent-bundle"


class ObstructionReport(Record):
    __slots__ = ("conditions", "verdict", "stability_assumed", "note")


def _slope_condition(
    id: str, text: str, pairing: int, threshold: int, rank: int, strict: bool = True
) -> Condition:
    """``c1.C > threshold`` (``>=`` unless strict) for ``pairing = c1.C``: ``nu.C`` against
    ``threshold/rank``, with margin ``(pairing - threshold)/rank``."""
    holds = pairing > threshold if strict else pairing >= threshold
    return Condition(id, text, holds, Fraction(pairing - threshold, rank))


def slope_conditions(v: ChernCharacter, *, asymptotic: bool = False) -> tuple[Condition, ...]:
    """The sharp per-surface slope inequalities for ampleness verdicts.

    ``asymptotic=True`` selects the plane threshold ``nu.H > 1`` used when
    the character may be scaled; the default is the fixed-rank threshold
    ``nu.H > 1 + 1/rank``.  The Hirzebruch conditions do not depend on the
    mode: ``nu.F > 1`` and ``nu.E > 1`` on ``F_0``, ``nu.E >= 1`` for
    ``e >= 1``.  Each is tested as ``c1.H``, ``c1.F`` or ``c1.E`` against a
    multiple of the rank.  The tuple is stored in ``v.__dict__``, one per
    mode on the plane; a twist, dual, multiple or kernel builds its own.
    """
    key = "_asymptotic_slopes" if asymptotic and v.surface.is_plane else "_slopes"
    facts = v.__dict__  # stored past Record.__setattr__, as a twist's delta is
    conditions = facts.get(key)
    if conditions is None:
        conditions = facts[key] = _sharp_slopes(v, asymptotic)
    return conditions


def _sharp_slopes(v: ChernCharacter, asymptotic: bool) -> tuple[Condition, ...]:
    r = v.rank
    if v.surface.is_plane:
        slope = v.c1.coords[0]
        if asymptotic:
            return (_slope_condition("slope-exceeds-one", "nu.H > 1", slope, r, r),)
        text = "nu.H > 1 + 1/rank"
        return (_slope_condition("slope-exceeds-one-plus-inverse-rank", text, slope, r + 1, r),)
    fiber, section = ruling_degrees(v.c1)
    fiber_condition = _slope_condition("fiber-slope-exceeds-one", "nu.F > 1", fiber, r, r)
    if v.surface.e == 0:
        return fiber_condition, _slope_condition(
            "section-slope-exceeds-one", "nu.E > 1", section, r, r
        )
    return fiber_condition, _slope_condition(
        "section-slope-at-least-one", "nu.E >= 1", section, r, r, strict=False
    )


def require_nonnegative_delta(v: ChernCharacter) -> None:
    """The Bogomolov gate: semistability forces ``delta >= 0``."""
    if v.delta.numerator < 0:
        raise PreconditionError(f"delta = {v.delta} < 0: no semistable bundle exists")


def require_slope_hypotheses(
    v: ChernCharacter, *, asymptotic: bool = False
) -> tuple[Condition, ...]:
    """The gate of the certificates: ``delta >= 0``, then the sharp slopes."""
    require_nonnegative_delta(v)
    conditions = slope_conditions(v, asymptotic=asymptotic)
    failed = [c.id for c in conditions if not c.holds]
    if failed:
        raise PreconditionError(f"slope hypotheses fail for {v}: {', '.join(failed)}")
    return conditions


def necessary_obstructions(v: ChernCharacter) -> ObstructionReport:
    """Checklist of every known numerical obstruction to ampleness.

    The verdict concerns stable bundles: OBSTRUCTED means no stable ample
    bundle of this character exists.  The one exception on the plane is the
    tangent bundle, flagged separately.
    """
    surface = v.surface
    r = v.rank
    delta = v.delta
    # fulton_lazarsfeld_margin of tests/oracles.py, in ints
    fl_margin = Fraction(v._c1_squared - v.c2, r * (r + 1))
    conditions: list[Condition] = [
        Condition("bogomolov", "delta >= 0", delta.numerator >= 0, delta),
        Condition(
            "fulton-lazarsfeld", "nu^2/2 > delta/(rank+1)", fl_margin.numerator > 0, fl_margin
        ),
    ]
    if surface.is_plane:
        slope = v.c1.coords[0]
        conditions.append(
            _slope_condition("slope-at-least-one", "mu >= 1", slope, r, r, strict=False)
        )
    else:  # margins (c1.F - rank)/rank and (c1.E - rank)/rank, read from the sharp conditions
        fiber, section = slope_conditions(v)
        conditions.append(Condition("fiber-slope-at-least-one", "nu.F >= 1",
                                    fiber.margin.numerator >= 0, fiber.margin))
        conditions.append(section if surface.e else Condition(
            "section-slope-at-least-one", "nu.E >= 1", section.margin.numerator >= 0,
            section.margin))
    if r >= 2:
        conditions.extend(slope_conditions(v))
        if not surface.is_plane:
            text = "nu.F != 1 (a stable bundle with nu.F = 1 is a line bundle)"
            conditions.append(Condition("line-bundle-forcing", text, fiber.margin.numerator != 0,
                                        fiber.margin))

    note = None
    if is_tangent_bundle(v):
        verdict = ObstructionVerdict.EXCEPTIONAL_TANGENT_BUNDLE
        note = (
            "the tangent bundle of the plane: the unique stable ample bundle "
            "with slope at most 1 + 1/rank; it is globally generated and ample"
        )
    elif all(c.holds for c in conditions):
        verdict = ObstructionVerdict.UNOBSTRUCTED
    else:
        verdict = ObstructionVerdict.OBSTRUCTED
    return ObstructionReport(tuple(conditions), verdict, stability_assumed=True, note=note)


class GGClassification(Record):
    """Outcome of the global-generation case dispatch for the general bundle."""

    __slots__ = (
        "globally_generated", "case", "description", "failed_condition",
        "chi", "chi_twist", "chi_twist_second", "balanced_split",  # the split is (a, m)
    )
    _defaults = (None, "", None, None, None, None, None)


def _require_gg_hypotheses(v: ChernCharacter) -> None:
    if v.rank < 2:
        raise PreconditionError(f"global generation is classified for rank >= 2, got {v.rank}")
    require_nonnegative_delta(v)
    if not v.surface.is_plane and not is_nef(v.c1):
        raise PreconditionError(f"nu = {v.nu} is not nef on {v.surface}")


def classify_global_generation(v: ChernCharacter) -> GGClassification:
    """The four-case ladder of the module docstring, run once for every surface.

    Requires ``delta >= 0`` and rank >= 2 (and ``nu`` nef on Hirzebruch
    surfaces).  The branch on the surface picks the ladder's data: the
    degeneracy test, the coordinates of the twists ``-D`` (the first is
    reported as ``chi_twist``), the ``c1`` of the special character
    ``(rank, c1, -2)`` and the texts.
    """
    _require_gg_hypotheses(v)
    surface = v.surface
    r = v.rank
    chi = v.euler_characteristic()
    coords = v.c1.coords
    special = near_miss = None
    if surface.is_plane:
        if coords[0] < 0:
            return GGClassification(False, failed_condition="negative slope", chi=chi)
        degenerate = coords[0] == 0
        twists = ((-1,),)  # -H
        special = ((2,), "chi(v) = rank + 1 and v = (rank+1) ch O - ch O(-2H)")
        near_miss = "chi(v) = rank + 1 but v is not the special character"
        balanced, unbalanced, twisted, neither = (
            "trivial character: rank * ch O",
            "slope zero but not rank * ch O",
            "chi(v(-H)) >= 0",
            "chi(v(-H)) < 0 and chi(v) <= rank + 1",
        )
    else:
        fiber_degree, section_degree = ruling_degrees(v.c1)
        if surface.e == 0:
            degenerate = fiber_degree == 0 or section_degree == 0
            twists = ((0, -1), (-1, 0))  # -F, -E
            balanced, unbalanced, twisted, neither = (
                "balanced sum of line bundles along a ruling",
                "degenerate slope but not a balanced sum along a ruling",
                "chi(v(-E)) >= 0 or chi(v(-F)) >= 0",
                "both ruling twists have chi < 0 and chi(v) <= rank + 1",
            )
        else:
            degenerate = fiber_degree == 0
            twists = ((0, -1),)  # -F
            if surface.e == 1:
                special = ((2, 2), "chi(v) = rank + 1 and v = (rank+1) ch O - ch O(-2E-2F)")
            balanced, unbalanced, twisted, neither = (
                "balanced sum of line bundles pulled back from the base",
                "fiber degree zero but not a balanced sum of fiber twists",
                "chi(v(-F)) >= 0",
                "chi(v(-F)) < 0 and chi(v) <= rank + 1",
            )

    if degenerate:
        # c1 = cD with c >= 0 (the slope test, or the nef gate) for D = 0 or a
        # ruling, D^2 = 0: v = (rank-m) ch O(aD) + m ch O((a+1)D) iff ch2 = 0
        if v.ch2 == 0:
            split = divmod(sum(coords), r)
            return GGClassification(True, 1, balanced, chi=chi, balanced_split=split)
        return GGClassification(False, failed_condition=unbalanced, chi=chi)
    chis = [v._chi_at(x) for x in twists]
    measured = dict(zip(("chi_twist", "chi_twist_second"), chis), chi=chi)
    if max(chis) >= 0:
        return GGClassification(True, 2, twisted, **measured)
    if chi >= r + 2:
        return GGClassification(True, 3, "chi(v) >= rank + 2", **measured)
    if chi == r + 1:
        if special and coords == special[0] and v.ch2 == -2:
            return GGClassification(True, 4, special[1], **measured)
        neither = near_miss or neither
    return GGClassification(False, failed_condition=neither, **measured)


def gg_quick_criterion(v: ChernCharacter) -> bool:
    """Sufficient criterion: ``chi(v(-L)) >= 0`` forces global generation.

    One-sided: False means the criterion is silent, not that the general
    bundle fails to be globally generated.  Requires the classification's
    hypotheses and ``nu`` big and nef.
    """
    _require_gg_hypotheses(v)  # which tests nefness on F_e, not on the plane
    if v._c1_squared <= 0 or v.surface.is_plane and not is_nef(v.c1):
        raise PreconditionError(f"nu = {v.nu} is not big and nef")
    return v._chi_at((-1,) if v.surface.is_plane else (0, -1)) >= 0  # chi(v(-L))
