"""Cohomology of the general bundle via weak Brill-Noether.

For a character with ``delta >= 0`` on the plane, or with ``delta >= 0``,
``nu.F >= -1`` and ``nu.E >= -1`` on a Hirzebruch surface, the general
prioritary bundle has at most one nonzero cohomology group (and no ``h^2``
on the Hirzebruch side).  Its cohomology is therefore read off from the
Euler characteristic:

    (h0, h1, h2) = (max(chi, 0), max(-chi, 0), 0).

All statements concern the general member of the (irreducible) stack of
prioritary sheaves; nothing is claimed about an individual sheaf.

``nonspecial_all_twists`` packages the slope bookkeeping used by the
ampleness certificate: under the sharp slope hypotheses, for *every*
irreducible curve class D the twist ``v(K+D)`` satisfies the bounds above,
because ``D.F >= 0`` and ``D.E >= -e`` give

    nu(v(K+D)).F = nu.F - 2 + D.F  > 1 - 2 + 0  = -1,
    nu(v(K+D)).E = nu.E + (e-2) + D.E >= 1 + (e-2) - e = -1,

with ``delta`` unchanged by twisting.  The trace records the worst-case
margins of these estimates.
"""

from __future__ import annotations

from .characters import ChernCharacter
from .errors import PreconditionError
from .positivity import require_slope_hypotheses
from .records import Record
from .surfaces import ruling_degrees


class WbnApplicability(Record):
    """Whether the weak Brill-Noether hypotheses hold, with reasons."""

    __slots__ = ("applicable", "delta_ok", "fiber_ok", "section_ok")
    _defaults = (True, True)

    def __bool__(self) -> bool:
        return self.applicable

    @property
    def failures(self) -> tuple[str, ...]:
        out = []
        if not self.delta_ok:
            out.append("delta < 0")
        if not self.fiber_ok:
            out.append("nu.F < -1")
        if not self.section_ok:
            out.append("nu.E < -1")
        return tuple(out)


class CohomologyTriple(Record):
    __slots__ = ("h0", "h1", "h2")


def wbn_applicable(v: ChernCharacter) -> WbnApplicability:
    """Check the weak Brill-Noether hypotheses for the character ``v``."""
    delta_ok = v.delta >= 0
    if v.surface.is_plane:
        return WbnApplicability(delta_ok, delta_ok)
    fiber, section = ruling_degrees(v.c1)
    fiber_ok = fiber >= -v.rank
    section_ok = section >= -v.rank
    return WbnApplicability(delta_ok and fiber_ok and section_ok, delta_ok, fiber_ok, section_ok)


def wbn_cohomology(v: ChernCharacter) -> CohomologyTriple:
    """Cohomology of the general prioritary bundle, chi-determined.

    Raises ``PreconditionError`` when the weak Brill-Noether hypotheses do
    not hold for ``v``.
    """
    applicability = wbn_applicable(v)
    if not applicability:
        raise PreconditionError(
            f"weak Brill-Noether hypotheses fail for {v}: "
            + ", ".join(applicability.failures)
        )
    chi = v.euler_characteristic()
    return CohomologyTriple(max(chi, 0), max(-chi, 0), 0)


class NonspecialTrace(Record):
    """Symbolic certificate that every twist v(K+D) is weak-Brill-Noether.

    Margins are distances from the worst case to the failure threshold; a
    trace is only produced when they are all nonnegative (strictly positive
    where the estimate is strict).
    """

    # fiber_margin = (nu.F - 2) - (-1) = nu.F - 1, section_margin = nu.E - 1, or None
    __slots__ = ("surface", "delta", "fiber_margin", "section_margin", "note")
    _defaults = (None, None, "")

    @property
    def holds(self) -> bool:
        if self.delta < 0:
            return False
        if self.fiber_margin is not None and self.fiber_margin <= 0:
            return False
        if self.section_margin is not None and self.section_margin < 0:
            return False
        return True


def nonspecial_all_twists(v: ChernCharacter) -> NonspecialTrace:
    """Verify symbolically that v(K+D) is nonspecial for all irreducible D.

    Requires the sharp slope hypotheses (and ``delta >= 0``); the general
    member then has chi-determined cohomology after twisting by ``K + D``
    for every irreducible curve class D at once.  The conclusion for the
    general member (a single bundle good for all D simultaneously) rests on
    the finiteness of the curve classes with negative twisted chi.
    """
    conditions = require_slope_hypotheses(v)
    if v.surface.is_plane:
        return NonspecialTrace(
            v.surface,
            v.delta,
            note="plane case: delta >= 0 is twist-invariant, nothing else is needed",
        )
    fiber, section = conditions  # margins nu.F - 1 and nu.E - 1
    return NonspecialTrace(
        v.surface,
        v.delta,
        fiber_margin=fiber.margin,
        section_margin=section.margin,
        note=(
            "worst case over irreducible D: D.F >= 0 and D.E >= -e, so the "
            "twisted slopes stay above the -1 thresholds by the recorded margins"
        ),
    )
