"""Exception hierarchy.

Construction problems (bad lattice data, non-integral Chern classes) are
``ValueError`` subclasses so that callers doing plain input validation can
catch them uniformly.  ``PreconditionError`` is different in kind: the input
is a perfectly good character, but the hypotheses of the decision procedure
being invoked do not hold for it.  An ``EnumerationLimitError`` is a
``PreconditionError`` whose failing hypothesis is an enumeration's safety cap.
"""


class AmplecheckError(Exception):
    """Base class for all errors raised by this package."""


class SurfaceMismatchError(AmplecheckError, ValueError):
    """Two lattice elements living on different surfaces were combined."""


class InvalidDivisorError(AmplecheckError, ValueError):
    """A surface or divisor class violates a constraint (e.g. integrality)."""


class InvalidCharacterError(AmplecheckError, ValueError):
    """A Chern character fails validation (rank, integrality of c1 or c2)."""


class PreconditionError(AmplecheckError):
    """The hypotheses of the requested decision procedure are not satisfied."""


class EnumerationLimitError(PreconditionError):
    """An exact enumeration would exceed the safety cap; nothing was truncated."""


class CertificateError(AmplecheckError):
    """A certificate's proof obligation fails on the objects it was built from."""
