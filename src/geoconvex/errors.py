"""Exception types shared across the package."""


class GeoconvexError(Exception):
    """Base class for all package-specific errors."""


class InvalidPointError(GeoconvexError):
    """A coordinate vector is not a valid point of the manifold."""


class AntipodalPointsError(GeoconvexError):
    """Sphere endpoints are antipodal; the minimal geodesic is not unique."""


class ParamOutOfRangeError(GeoconvexError):
    """A curve parameter lies outside [0, 1]."""


class ExprSyntaxError(GeoconvexError):
    """Source text does not conform to the expression grammar."""

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} at offset {position}")
        self.position = position
        self.expected = frozenset(expected)


class ExprDepthError(GeoconvexError, ValueError):
    """An expression tree, parsed or built by composition, is too deep."""


class UnknownIdentifierError(GeoconvexError):
    """An identifier is neither a declared variable nor a builtin."""


class ArityMismatchError(GeoconvexError):
    """A builtin call has the wrong number of arguments."""


class EvalDomainError(GeoconvexError):
    """Evaluation left the domain (log of nonpositive, 0^negative, x/0, ...)."""


class EmptySequenceError(GeoconvexError):
    """A sequence argument was empty."""


class InverseSearchFailedError(GeoconvexError):
    """No preimage under E was found within the sampling budget."""


class SamplingError(GeoconvexError):
    """Rejection sampling exhausted its draw budget without a member."""


class ConfigError(GeoconvexError):
    """A job configuration file is malformed."""
