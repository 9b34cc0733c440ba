"""Exception types shared across the package."""


class ContactBoundsError(Exception):
    """Base class for all package errors."""


class InvalidParameters(ContactBoundsError):
    """Family or model parameters violate their admissibility conditions."""


class NonPositiveJacobian(ContactBoundsError):
    """Deformation gradient with det F <= 0."""


class ConstraintViolated(ContactBoundsError):
    """Incompressibility constraint violated beyond tolerance."""


class FamilyMismatch(ContactBoundsError):
    """Operation requires both bodies to deform in the same family."""


class NonFiniteIntegrand(ContactBoundsError):
    """An integrand at a quadrature point, or an exact energy, is NaN or infinite."""


class InadmissibleTrial(ContactBoundsError):
    """Trial state failed an admissibility check required by the caller."""


class InfeasibleProblem(ContactBoundsError):
    """No feasible load found in the search bracket."""


class ParseError(ContactBoundsError):
    """Config text could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class ValidationError(ContactBoundsError):
    """Config parsed but violates a value constraint."""
