"""Exception types shared across the toolkit.

Validation errors (bad input) and resource errors (computation refused
because it would exceed a configured cap) are kept in separate branches
so the CLI can map them to distinct exit codes.
"""


class AlgenError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(AlgenError):
    """Invalid parameters or malformed input."""


class ResourceError(AlgenError):
    """Computation refused: it would exceed a configured cap."""


class NonPrime(ValidationError):
    pass


class BadDegree(ValidationError):
    pass


class BadParams(ValidationError):
    pass


class DivisionByZero(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class UnsupportedSize(ValidationError):
    pass


class DivergentTail(ValidationError):
    pass


class DivisionInexact(AlgenError):
    """Exact polynomial division left a nonzero remainder."""


class TooLarge(ResourceError):
    pass


class FactorizationIncomplete(ResourceError):
    """An index had a cofactor that is neither 1 nor provably prime."""


class CertificationFailed(AlgenError):
    """A constructive witness failed its own verification step."""


class InvalidJSON(ValidationError):
    pass
