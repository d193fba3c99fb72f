"""Exception types shared across the library.

Every precondition failure raises one of these, so the CLI can surface
the failing check by name.
"""


class MaslovError(Exception):
    """Base class for all library errors."""


class ParseError(MaslovError):
    pass


class ValidationError(MaslovError):
    pass


class ZeroScalar(MaslovError):
    pass


class ZeroInput(MaslovError):
    pass


class DimensionMismatch(MaslovError):
    pass


class SingularInput(MaslovError):
    pass


class WrongSymmetry(MaslovError):
    pass


class NotHermitian(MaslovError):
    pass


class DegenerateInput(MaslovError):
    pass


class ContextMismatch(MaslovError):
    pass


class WrongContext(MaslovError):
    pass


class SpaceMismatch(MaslovError):
    pass


class NotPairwiseOpposite(MaslovError):
    pass


class NotFound(MaslovError):
    pass


class TooLarge(MaslovError):
    pass


class ConstraintViolated(MaslovError):
    pass


class NonGeneric(MaslovError):
    """Signals the caller to resample; the requested value is only
    defined on generic configurations."""
