"""Exception types shared across the package."""

from __future__ import annotations


class UltraherzError(Exception):
    """Base class for every error raised by this package."""


class DomainError(UltraherzError):
    """A mathematical precondition was violated (non-integrable tail, bad prime, ...)."""


class NumericOverflowError(UltraherzError):
    """A finite quantity left the float range while it was being computed.

    Not a divergence: the exact value is finite, but it or an intermediate
    term is larger than the largest float.
    """


class NumericUnderflowError(UltraherzError):
    """A nonzero quantity fell below the float range while it was being computed.

    Not a zero: the exact value is positive, but every term it is built from
    rounded to 0.0, or the result lies below the smallest normal float.
    """


class TailCombinationError(UltraherzError):
    """Two tails with different power-law rates cannot be added exactly.

    The message names the side and both rates. The usual fix is to widen the
    explicit windows until the offending region is materialized as plain
    shell coefficients.
    """


class ClassClosureError(UltraherzError):
    """An operator output would leave the radial-step-with-power-tails class."""


class HypothesisViolationError(UltraherzError):
    """A theorem-harness hypothesis failed. Carries the full check report."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class SerializationError(UltraherzError):
    """A JSON document could not be parsed into a package object."""

    def __init__(self, message: str, path: str | None = None, field: str | None = None):
        self.path = path
        self.field = field
        loc = ""
        if path:
            loc += f" in {path}"
        if field:
            loc += f" at field '{field}'"
        super().__init__(message + loc)
