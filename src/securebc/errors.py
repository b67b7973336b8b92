"""Exception types raised across the package."""


class SecureBcError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveDefinite(SecureBcError):
    """A matrix required to be positive definite has a (near-)zero or negative eigenvalue."""


class SingularMatrix(SecureBcError):
    """A matrix inversion or inverse square root hit a numerically singular input."""


class DimensionMismatch(SecureBcError):
    """Matrix or vector shapes are inconsistent with the channel dimensions."""


class ParseError(SecureBcError):
    """Channel data is malformed: a file off the documented schema, or a
    NaN or Inf channel entry."""


class InvalidPower(SecureBcError):
    """The power budget is not a positive real number."""


class LengthMismatch(SecureBcError):
    """Two per-user sequences have different lengths."""


class TooManyUsers(SecureBcError):
    """Permutation enumeration requested beyond the supported user count."""


class UnsupportedK(SecureBcError):
    """Region sweeps are only supported for small user counts."""


class InnerNotImproved(SecureBcError):
    """A block update's line search found no ascent although the ascent gap
    (the directional derivative toward the step's water-fill target) is
    above round-off.

    This indicates an inconsistency between the objective and its gradient,
    i.e. a bug, not a numerical corner case.
    """
