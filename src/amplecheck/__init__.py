"""Exact positivity verdicts for Chern characters on rational surfaces.

The package decides, by exact rational arithmetic, every effective
positivity question this theory answers for a Chern character on the
projective plane or a Hirzebruch surface: numerical invariants and Euler
characteristics, necessary obstructions to ampleness, global generation of
the general bundle, ampleness of the general globally generated bundle
(with a bad-curve certificate), and asymptotic ampleness with an explicit
minimal multiplier.
"""

from .ampleness import (
    AmpleGGCertificate,
    AsymptoticCertificate,
    BadCurve,
    ample_gg_verdict,
    asymptotic_ample_certificate,
    dimension_count,
    effective_n_bound,
    enumerate_bad_curves,
    gieseker_character,
    kernel_character,
    multiplier_lower_bound,
    normalize_character,
)
from .characters import (
    ChernCharacter,
    from_log_invariants,
    make_character,
    parse_character,
)
from .cohomology import (
    CohomologyTriple,
    NonspecialTrace,
    WbnApplicability,
    nonspecial_all_twists,
    wbn_applicable,
    wbn_cohomology,
)
from .errors import (
    AmplecheckError,
    CertificateError,
    EnumerationLimitError,
    InvalidCharacterError,
    InvalidDivisorError,
    PreconditionError,
    SurfaceMismatchError,
)
from .positivity import (
    Condition,
    GGClassification,
    ObstructionReport,
    ObstructionVerdict,
    classify_global_generation,
    gg_quick_criterion,
    necessary_obstructions,
    slope_conditions,
)
from .surfaces import (
    DivisorClass,
    Surface,
    SurfaceKind,
    h0_line_bundle,
    is_big_and_nef,
    is_irreducible_curve_class,
    is_nef,
    parse_surface,
)

__version__ = "0.1.0"

__all__ = sorted(
    name for name, value in globals().items()
    if getattr(value, "__module__", "").startswith("amplecheck.")
)
