"""Exception types raised across the package, and the two argument rules."""

import numbers
import sys


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


def positive_number(value, what: str, error: type = ValueError) -> float:
    """``value`` as a float if it is a real number, not a bool, in
    (0, ``sys.float_info.max``]; else ``error`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not 0 < value <= sys.float_info.max:  # a NaN fails too
        raise error(f"{what} must be a finite and positive number, got {value!r}")
    return float(value)


def integer_at_least(value, low: int, what: str, error: type = ValueError) -> int:
    """``value`` as an int if it is an integer, not a bool, of at least ``low``;
    else ``error`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise error(f"{what} must be an integer of at least {low}, got {value!r}")
    return int(value)
