"""Ampleness decision procedures with verifiable certificates.

Two procedures are implemented, both exact.

*Ampleness of the general globally generated bundle.*  Under the sharp
slope hypotheses, the only curve classes that can obstruct ampleness of a
general globally generated bundle are the finitely many irreducible D with
``chi(v(K+D)) < 0`` ("bad curves"); their possible shapes per surface are

    plane:        H, 2H
    F_0:          bE + F  or  E + bF          (b >= 0)
    F_1:          F, 2E + 2F, or E + bF       (b >= 0)
    F_e, e >= 2:  F, E, or E + bF             (b >= e)

since an irreducible D with ``K + D`` effective always has
``chi(v(K+D)) >= 0`` for globally generated characters.  That fact is not
re-checked at runtime; the test oracle ``effective_shortcut_violations``
in ``tests/oracles.py`` scans a box of such D for counterexamples.  Along
each family ``D0 + bF`` (``F^2 = 0``; on F_0 also ``bE + F``) the twisted
chi and the ``d`` and ``c`` below are affine in b, and chi strictly
increases (the fiber slope exceeds 1), so the enumeration is exact and
finite: two members are counted, the rest are extended by differences, and
the last of a longer family is re-counted and checked.
For each bad curve the obstruction is ruled out by a dimension count:
the locus of bundles with a trivial quotient on a fixed curve of class D
has codimension at least ``c = rank * nu.D - rank + 1`` (the k = 1 value
of the splitting stratification ``k(rank*slope - rank + k)``), while the
curves move in a linear system of dimension ``d = h^0(O(D)) - 1``; the
verdict needs ``d < c`` for every bad curve.  The single candidates and the
family ends are int tuples, counted by ``_count`` without the public checks,
and a ``BadCurve`` record carrying both numbers is built only for a bad
class; ``dimension_count`` is the checked public entry to the same count.

*Asymptotic ampleness.*  When ``nu - H`` is big and nef, all large
multiples ``n*v`` carry ample general bundles: a candidate quotient of
``O(H)^(n*rank + s)`` exists as soon as the hypothetical kernel character

    u = (n*rank + s) * ch O(H) - n * v

has ``delta(u) >= 0``.  Writing ``B = nu - H``, exact expansion gives

    2 s^2 delta(u) = n * rank * ((n*rank + s) * B^2 - 2 s * delta),

so the least admissible n is the ceiling of ``s(2*delta - B^2)/(rank*B^2)``
(for s = 2: ``4*delta/(rank*B^2) - 2/rank``), and the certificate also
verifies the section-count obstruction ``chi(v*(H-L)) <= 0``, computed as
``chi(v*(H-L)) = chi(v(K-H+L))`` (Serre duality) without building the dual,
and the weak Brill-Noether bookkeeping for ``u*(H-L)``.  The default mode
first normalizes ``v`` by a nef twist so that ``1 < nu.L <= 2``; the direct
mode runs the same algebra on the character as given (the classical
rank-two cokernel example is reproduced this way).

Both procedures raise ``PreconditionError`` through the one gate in
``positivity``, ``require_slope_hypotheses`` (``delta >= 0``, then the
sharp slopes), so a failed hypothesis reads the same from every entry
point; ``ample_gg_verdict`` records failures in its certificate instead.
The asymptotic certificate checks each proof obligation on int coordinates
and on the characters it reports (the kernel at ``n_min`` and ``n_min - 1``,
its dual twists, built by ``_twist_at`` from int tuples) and raises
``CertificateError`` naming the one that fails; the checks are explicit
raises, so ``python -O`` keeps them.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .characters import ChernCharacter
from .cohomology import nonspecial_all_twists, wbn_applicable
from .errors import (CertificateError, EnumerationLimitError, InvalidCharacterError,
                     PreconditionError)
from .positivity import (
    classify_global_generation,
    gg_quick_criterion,
    is_tangent_bundle,
    require_slope_hypotheses,
    slope_conditions,
)
from .rationals import ceil_frac, quotient
from .records import Record, lazy
from .surfaces import DivisorClass, Surface, _h0_at, is_big_and_nef, is_irreducible_curve_class

BAD_CURVE_CAP = 100_000

STABILITY_NOTE = (
    "stability of the input character is an assumption asserted by the "
    "caller, not a verified fact"
)
GENERAL_MEMBER_NOTE = (
    "verdicts concern the general semistable bundle: the moduli space is an "
    "open dense substack of the irreducible stack of prioritary sheaves, so "
    "openness arguments for the general prioritary bundle transfer to it"
)


class BadCurve(Record):
    """An irreducible class with negative twisted chi, plus its dimension count."""

    # chi_twist = chi(v(K+D)), < 0 for a bad curve; d = dim |D| = h^0(O(D)) - 1;
    # c = codimension lower bound c1.D - rank + 1 = rank*nu.D - rank + 1
    __slots__ = ("curve", "chi_twist", "d", "c")

    @property
    def passes(self) -> bool:
        return self.d < self.c


def dimension_count(v: ChernCharacter, curve: DivisorClass) -> BadCurve:
    """Compare dim |D| against the trivial-quotient codimension bound.

    The result is the ``BadCurve`` record of ``curve``; the curve is bad
    only when its ``chi_twist`` is negative.
    """
    if not is_irreducible_curve_class(curve):
        raise PreconditionError(f"{curve} is not an irreducible curve class")
    v.c1._check_same_surface(curve)
    return BadCurve(curve, *_count(v, curve.coords))


def _count(v: ChernCharacter, x: tuple[int, ...]) -> tuple[int, int, int]:
    """``(chi_twist, d, c)`` of the class with int coordinates x on ``v.surface``, unchecked."""
    surface = v.surface
    chi = v._chi_at(tuple(k + a for k, a in zip(surface.canonical.coords, x)))  # chi(v(K+D))
    return chi, _h0_at(surface, x) - 1, surface.pair(v.c1.coords, x) - v.rank + 1


def _family_bad_members(
    v: ChernCharacter, member: Callable[[int], tuple[int, ...]], b_start: int, name: str
) -> list[BadCurve]:
    """Bad members of one family b -> D(b), extended by differences.

    ``chi_twist``, ``d`` and ``c`` are affine in b, so the first two members
    go through ``_count``, the cutoff is exact, and member t is
    first + t * (second - first); the last of three or more is re-checked.
    """
    chi0, d0, c0 = _count(v, member(b_start))
    if chi0 >= 0:
        return []
    chi1, d1, c1 = _count(v, member(b_start + 1))
    step, dd, dc = chi1 - chi0, d1 - d0, c1 - c0
    # step is c1.F (c1.E along bE + F), past the rank by the slope gate
    _obligation(step > 0, f"twisted chi increases along family {name}", v)
    count = -(chi0 // step)  # ceil(-chi0 / step), chi0 < 0 < step
    if count > BAD_CURVE_CAP:
        raise EnumerationLimitError(
            f"{count} bad members in one family exceeds the cap {BAD_CURVE_CAP}"
        )
    surface, of = v.surface, DivisorClass._of  # family members have int coordinates
    bad = [
        BadCurve(of(surface, member(b_start + t)), chi0 + t * step, d0 + t * dd, c0 + t * dc)
        for t in range(count)
    ]
    if count >= 3:
        t = count - 1
        last = (chi0 + t * step, d0 + t * dd, c0 + t * dc) == _count(v, member(b_start + t))
        _obligation(last, f"family {name} is affine up to its last bad member", v)
    return bad


def _bad_curves(v: ChernCharacter) -> tuple[BadCurve, ...]:
    """The bad curves in the shape list, families cut at the exact cutoff.

    Sorted by coordinates, each with its dimension count; the caller has
    checked the hypotheses.
    """
    surface = v.surface
    e = surface.e
    candidates: list[tuple[int, ...]] = []
    families: list[tuple] = []
    if surface.is_plane:
        candidates = [(1,), (2,)]    # H, 2H
    elif e == 0:
        families.append((lambda b: (1, b), 0, "E + bF"))  # b=0 is E
        families.append((lambda b: (b, 1), 0, "bE + F"))  # b=0 is F
    elif e == 1:
        candidates = [(0, 1), (2, 2)]  # F, 2E+2F
        families.append((lambda b: (1, b), 0, "E + bF"))  # b=0 is E
    else:
        candidates = [(0, 1), (1, 0)]  # F, E
        families.append((lambda b: (1, b), e, "E + bF"))  # b >= e

    counted = [(x, _count(v, x)) for x in candidates]  # (chi_twist, d, c): bad if chi_twist < 0
    bad = [BadCurve(DivisorClass._of(surface, x), *n) for x, n in counted if n[0] < 0]
    for member, b_start, name in families:
        bad.extend(_family_bad_members(v, member, b_start, name))
    classes = {b.curve.coords: b for b in bad}  # E + F lies in both F_0 families
    return tuple(classes[coords] for coords in sorted(classes))


def enumerate_bad_curves(v: ChernCharacter) -> tuple[BadCurve, ...]:
    """All irreducible curve classes D with ``chi(v(K+D)) < 0``, exactly.

    Requires the full hypotheses: sharp slopes and a globally generated
    general bundle (checked through the classification).  The result is
    finite and every class matches the per-surface shape list.
    """
    require_slope_hypotheses(v)
    gg = classify_global_generation(v)
    if not gg.globally_generated:
        raise PreconditionError(
            f"the general bundle of {v} is not globally generated: {gg.failed_condition}"
        )
    return _bad_curves(v)


class AmpleGGCertificate(Record):
    """Verdict on ampleness of the general globally generated bundle."""

    __slots__ = ("slope_conditions", "gg", "nonspecial", "bad_curves", "failure_reason", "notes")

    @property
    def ample_general(self) -> bool:
        return self.failure_reason is None

    @property
    def verdict(self) -> str:
        return "ample-general" if self.ample_general else "hypotheses-fail"


def ample_gg_verdict(v: ChernCharacter) -> AmpleGGCertificate:
    """Decide whether the general bundle of character ``v`` is ample.

    Never raises on hypothesis failure: every failed check becomes part of
    the certificate, with the reason named.
    """
    notes = [STABILITY_NOTE, GENERAL_MEMBER_NOTE]
    conditions = slope_conditions(v)

    def fail(reason: str, gg=None, nonspecial=None, bad=()) -> AmpleGGCertificate:
        return AmpleGGCertificate(conditions, gg, nonspecial, tuple(bad), reason, tuple(notes))

    if v.rank < 2:
        return fail("rank: the verdict is for bundles of rank at least 2")
    if v.delta.numerator < 0:
        return fail("bogomolov: delta < 0 admits no semistable bundle")
    if not all(c.holds for c in conditions):
        if is_tangent_bundle(v):
            notes.append(
                "the character is the plane's tangent bundle, which is "
                "globally generated and ample despite failing the slope bound"
            )
        failed = ", ".join(c.id for c in conditions if not c.holds)
        return fail(f"slope: {failed}")
    gg = classify_global_generation(v)
    if not gg.globally_generated:
        return fail(f"global-generation: {gg.failed_condition}", gg=gg)
    trace = nonspecial_all_twists(v)
    bad = _bad_curves(v)
    reason = None if all(b.passes for b in bad) else "dimension-count: some bad curve has d >= c"
    return AmpleGGCertificate(conditions, gg, trace, bad, reason, tuple(notes))


def _obligation(holds: bool, obligation: str, v: ChernCharacter) -> None:
    """Raise ``CertificateError`` naming ``obligation`` unless it holds for ``v``."""
    if not holds:
        raise CertificateError(f"certificate obligation fails for {v}: {obligation}")


def normalize_character(v: ChernCharacter) -> tuple[ChernCharacter, DivisorClass]:
    """Twist down by a nef class N so that ``1 < nu.L <= 2``.

    N is ``m*H`` on the plane and ``m*(E + eF)`` on ``F_e`` with
    ``m = ceil(c1.L / rank) - 2``; the latter pairs to zero with E, so
    ``nu.E`` and ``delta`` are unchanged.  Requires ``nu.L > 1``.  Raises
    ``CertificateError`` unless the twist lands at ``rank < c1.L <= 2*rank``.
    """
    surface = v.surface
    r = v.rank
    slope = v.c1.coords[0]  # c1.L: the H coordinate, resp. the E coordinate
    if slope <= r:
        raise PreconditionError(f"normalization needs nu.L > 1, got {Fraction(slope, r)}")
    m = -(-slope // r) - 2
    x = (m,) if surface.is_plane else (m, m * surface.e)
    normalized = v._twist_at(tuple(-a for a in x))
    landed = r < normalized.c1.coords[0] <= 2 * r
    _obligation(landed, "normalization lands at rank < c1.L <= 2*rank", v)
    return normalized, DivisorClass._of(surface, x)


def _require_kernel_rank(s: int) -> None:
    if not isinstance(s, int):
        raise InvalidCharacterError(f"the kernel rank must be a positive integer, got {s}")
    if s < 2:
        raise PreconditionError(f"the kernel construction needs s >= 2, got {s}")


def kernel_character(v: ChernCharacter, n: int, s: int = 2) -> ChernCharacter:
    """Character ``(n*rank + s) * ch O(H) - n * v`` of the hypothetical kernel."""
    _require_kernel_rank(s)
    if not isinstance(n, int):
        raise InvalidCharacterError(f"the multiplier must be a positive integer, got {n}")
    if n < 1:
        raise PreconditionError(f"the multiplier must be positive, got {n}")
    return _kernel(v, int(n), int(s))  # an int subclass (bool) becomes an int, as ranks do


def _kernel(v: ChernCharacter, n: int, s: int) -> ChernCharacter:
    """``kernel_character`` without its checks, for ints ``n >= 1`` and ``s >= 2``."""
    surface, copies = v.surface, n * v.rank + s
    h, c1, pair = surface.polarization.coords, v.c1.coords, surface.pair
    # c(u) = c(O(H))^copies / c(v)^n: c2 = C(copies, 2) H^2 - copies*n c1.H + C(n+1, 2) c1^2 - n c2
    c2 = (copies * (copies - 1) // 2 * pair(h, h) - copies * n * pair(c1, h)
          + n * (n + 1) // 2 * v._c1_squared - n * v.c2)
    return ChernCharacter._of(s, v.c1._with(tuple(copies * x - n * a for x, a in zip(h, c1))), c2)


def _bound(v: ChernCharacter, s: int, q: int) -> Fraction:
    """``s*(2 rank^2 delta - Q) / (rank*Q)`` for ``Q = (c1 - rank*H)^2 > 0``, in ints."""
    r = v.rank
    return Fraction(s * ((1 - r) * v._c1_squared + 2 * r * v.c2 - q), r * q)


def multiplier_lower_bound(v: ChernCharacter, s: int = 2) -> Fraction:
    """Exact rational bound: ``delta(kernel) >= 0`` iff n is at least this.

    Equals ``s*(2*delta - B^2) / (rank*B^2)`` with ``B = nu - H``; for
    s = 2 this is ``4*delta/(rank*B^2) - 2/rank``.  Requires B big and nef.
    Computed as ``s*(2 rank^2 delta - Q) / (rank*Q)`` from the integers
    ``Q = (c1 - rank*H)^2`` and ``2 rank^2 delta = (1-rank) c1^2 + 2 rank c2``.
    """
    _require_kernel_rank(s)
    r, h, surface = v.rank, v.surface.polarization, v.surface
    c = tuple(a - r * x for a, x in zip(v.c1.coords, h.coords))
    if not is_big_and_nef(DivisorClass._of(surface, c)):
        raise PreconditionError(f"nu - H = {v.nu - h} is not big and nef")
    return _bound(v, s, surface.pair(c, c))


def effective_n_bound(v: ChernCharacter, s: int = 2) -> int:
    """Smallest multiplier n >= 1 with ``delta(kernel_character(v, n, s)) >= 0``."""
    return max(1, ceil_frac(multiplier_lower_bound(v, s)))


class AsymptoticCertificate(Record):
    """Certificate that all large multiples of ``v`` carry ample general bundles."""

    __slots__ = (
        "mode",                   # "normalized" or "direct"
        "base",                   # the character the algebra ran on
        "twist_used",             # N with base = v(-N); zero in direct mode
        "s",
        "b",                      # nu(base) - H, big and nef
        "bound",                  # exact rational multiplier bound
        "n_min",
        "kernel",                 # u at n = n_min, delta >= 0
        "delta_kernel_prev",      # < 0 when n_min > 1, else None
        "chi_dual_twist",         # chi(base*(H-L)) <= 0
        "chi_kernel_dual_twist",  # chi(u*(H-L)) = -n_min * chi_dual_twist >= 0
        "kernel_twist_nu",        # nu(u*(H)) = (n_min*rank/s) * B, nef
        "kernel_twist_gg",        # sufficient criterion on u*(H)
        "wbn_kernel",             # for u*(H-L)
        "slope_conditions",
        "notes",
        "__dict__",
    )

    @property
    def verdict(self) -> str:
        return f"asymptotically-ample(n_min={self.n_min})"

    @lazy
    def b_squared(self) -> Fraction:
        """``B^2``: the builder sets it from ``(c1 - rank*H)^2``, as a character's constructor
        sets ``ch2``; a certificate built otherwise reads it from ``B``."""
        return self.b.self_intersection


def asymptotic_ample_certificate(
    v: ChernCharacter, s: int = 2, *, direct: bool = False
) -> AsymptoticCertificate:
    """Produce the asymptotic ampleness certificate with minimal multiplier.

    Requires the asymptotic slope hypotheses (equivalently: ``nu - H`` big
    and nef) and ``delta >= 0``.  In direct mode the quotient algebra runs
    on ``v`` itself, which additionally needs ``chi(v*(H-L)) <= 0`` to hold
    as given; the default normalizes first, after which that inequality is
    automatic.
    """
    _require_kernel_rank(s)
    conditions = require_slope_hypotheses(v, asymptotic=True)
    surface = v.surface
    if direct:
        base, twist_used = v, surface.zero
    else:
        base, twist_used = normalize_character(v)
    h, r = surface.polarization.coords, base.rank
    h_minus_l = tuple(a - x for a, x in zip(h, surface.fiber_class.coords))
    # rank*B, big and nef: the slope hypotheses hold for v and so for base
    c = tuple(a - r * x for a, x in zip(base.c1.coords, h))
    q = surface.pair(c, c)
    b = DivisorClass._of(surface, tuple(quotient(x, r) for x in c))

    # chi(v*(H-L)) = chi(v(K-H+L)) by Serre duality
    chi_dual_twist = base._chi_at(tuple(k - x for k, x in zip(surface.canonical.coords, h_minus_l)))
    if chi_dual_twist > 0:
        raise PreconditionError(
            f"chi(v*(H-L)) = {chi_dual_twist} > 0 for {base}: the quotient "
            "construction does not apply un-normalized; use the normalized mode"
        )

    bound = _bound(base, s, q)
    n_min = max(1, ceil_frac(bound))
    kernel = _kernel(base, n_min, s)
    _obligation(kernel.delta.numerator >= 0, "kernel delta >= 0 at n_min", base)
    delta_prev = None
    if n_min > 1:
        delta_prev = _kernel(base, n_min - 1, s).delta
        _obligation(delta_prev.numerator < 0, "kernel delta < 0 at n_min - 1", base)

    kernel_dual = kernel.dual()
    kernel_dual_polarized = kernel_dual._twist_at(h)
    # nu(u*(H)) = (n_min*rank/s)*B, multiplied through by s
    same_nu = kernel_dual_polarized.c1.coords == tuple(n_min * x for x in c)
    _obligation(same_nu, "nu(u*(H)) = (n_min*rank/s)*B", base)
    kernel_twist_gg = gg_quick_criterion(kernel_dual_polarized)
    kernel_dual_twist = kernel_dual._twist_at(h_minus_l)
    wbn_kernel = wbn_applicable(kernel_dual_twist)
    chi_kernel_dual_twist = kernel_dual_twist.euler_characteristic()
    same_chi = chi_kernel_dual_twist == -n_min * chi_dual_twist
    _obligation(same_chi, "chi(u*(H-L)) = -n_min*chi(v*(H-L))", base)
    flags = chi_kernel_dual_twist >= 0 and wbn_kernel.applicable and kernel_twist_gg
    _obligation(flags, "chi(u*(H-L)) >= 0 with the weak Brill-Noether and gg flags", base)

    notes = [
        STABILITY_NOTE,
        "the kernel discriminant is nonnegative for every n >= n_min",
    ]
    if not direct:
        notes.append(
            "an ample bundle for the normalized character twists back to an "
            "ample bundle for the character as given"
        )
    certificate = AsymptoticCertificate(
        "direct" if direct else "normalized",
        base,
        twist_used,
        s,
        b,
        bound,
        n_min,
        kernel,
        delta_prev,
        chi_dual_twist,
        chi_kernel_dual_twist,
        kernel_dual_polarized.nu,
        kernel_twist_gg,
        wbn_kernel,
        conditions,
        tuple(notes),
    )
    certificate.__dict__["b_squared"] = Fraction(q, r * r)
    return certificate


def gieseker_character(d: int) -> ChernCharacter:
    """The rank-two cokernel character ``(2, (2d-4)H, 2-d^2)`` on the plane.

    Defined for d >= 4; its discriminant is ``(d-1)^2`` and the direct-mode
    multiplier bound works out to ``2(d-1)^2/(d-3)^2 - 1``, so the minimal
    multiplier is 2 exactly when d >= 12.
    """
    if d < 4:
        raise PreconditionError(f"the cokernel character needs d >= 4, got {d}")
    surface = Surface.projective_plane()
    return ChernCharacter(2, surface.divisor(2 * d - 4), Fraction(2 - d * d))
