"""Exception hierarchy for lhdopt.

Every error raised by the library derives from :class:`LhdError`, so callers
can catch one type at the boundary (the CLI maps them to exit codes).
``as_int`` and ``as_real`` check an integer and a real argument, and
``as_exponents`` the phi_p and distance exponents, built on ``as_int``.
"""

import math
import numbers


class LhdError(Exception):
    """Base class for all lhdopt errors."""


class InvalidDimensionError(LhdError, ValueError):
    """Run or factor count outside the supported range."""


class IndexOutOfRangeError(LhdError, IndexError):
    """Row or column index outside the design."""


class UnsupportedExponentError(LhdError, ValueError):
    """Distance exponent other than 1 or 2."""


class IndivisibleRunsError(LhdError, ValueError):
    """Run count not divisible by the slice count."""


class DegenerateCoordinateError(LhdError, ValueError):
    """Two rows share a level in some column (non-LHD input)."""


class TooFewColumnsError(LhdError, ValueError):
    """Correlation summaries need at least two columns."""


class InvalidWeightError(LhdError, ValueError):
    """Combination weight outside [0, 1]."""


class InvalidConfigError(LhdError, ValueError):
    """Optimizer configuration violates the algorithm's requirements."""


class InvalidOAError(LhdError, ValueError):
    """Array is not a valid symmetric orthogonal array of its declared strength."""


class InvalidParameterError(LhdError, ValueError):
    """Construction parameter outside its documented range."""


class DimensionMismatchError(LhdError, ValueError):
    """Coupled inputs have incompatible shapes."""


class UnknownNameError(LhdError, KeyError):
    """Name not present in the bundled catalog."""

    def __str__(self) -> str:
        # KeyError.__str__ would repr() the message, quotes included
        return Exception.__str__(self)


class InvalidDesignError(LhdError, ValueError):
    """A matrix failed Latin hypercube validation."""


def as_int(value, name: str, error: type[LhdError] = InvalidConfigError) -> int:
    """``value`` as an int: a Python or NumPy integer that is not a bool.  A
    float, even an integral one, raises ``error`` instead of being truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(value, name: str, error: type[LhdError] = InvalidConfigError) -> float:
    """``value`` as a float: a finite Python or NumPy real that is not a bool.
    A string, even a numeric one, raises ``error`` instead of being parsed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise error(f"{name} must be a finite number, got {value!r}")
    return float(value)


def as_exponents(p, q) -> tuple[int, int]:
    """(p, q) as ints: the phi_p exponent p >= 1 and the distance exponent q,
    1 or 2.  Neither may be a bool or a float."""
    p = as_int(p, "p")
    if p < 1:
        raise InvalidConfigError(f"p must be a positive integer, got {p!r}")
    q = as_int(q, "q", UnsupportedExponentError)
    if q not in (1, 2):
        raise UnsupportedExponentError(f"q must be 1 or 2, got {q!r}")
    return p, q
