"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class,
so tests and the CLI can distinguish "the input is outside the supported
fragment" from "an internal certificate did not hold".
"""


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class ContextError(AlgebraError):
    """Operands live in different polynomial contexts."""


class BudgetExceeded(AlgebraError):
    """Completion gave up after the configured number of S-polynomial steps."""


class DivisionByZero(AlgebraError, ZeroDivisionError):
    """Denominator reduced to zero."""


class IncompatibleDerivation(AlgebraError):
    """A declared relation is not stable under the declared derivation."""


class EmptyInput(AlgebraError):
    """An operation received an empty list where at least one item is needed."""


class UnsupportedEquation(AlgebraError):
    """The equation does not match the declared construction class."""


class NotPV(AlgebraError):
    """A Picard-Vessiot certificate failed; carries the certificate report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class BadIdeal(AlgebraError):
    """A claimed relation does not vanish on the solution tuple."""


class NotInGroup(AlgebraError):
    """Matrix fails the group membership test."""


class WitnessNotFound(AlgebraError):
    """Bounded search exhausted without finding the requested witness."""


class Unsupported(AlgebraError):
    """Requested operation is outside the implemented fragment."""


class DegreeLimitExceeded(Unsupported):
    """A monomial degree is past `poly.MAX_DEGREE`."""


class BadField(AlgebraError):
    """Claimed intermediate field is not one (element outside the extension,
    or generators not closed under the derivation)."""


class ScenarioError(AlgebraError):
    """Scenario file failed validation; carries a location string."""

    def __init__(self, message, location=""):
        super().__init__(message)
        self.location = location
