"""Exception hierarchy shared by all hessgeo modules."""


class HessgeoError(Exception):
    """Base class for every error raised by this package."""


class ExpressionError(HessgeoError):
    """Base class for parse/evaluation errors of scalar expressions."""


class ExprSyntaxError(ExpressionError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExpressionError):
    def __init__(self, name, offset):
        super().__init__(f"unknown identifier {name!r} (at offset {offset})")
        self.name = name
        self.offset = offset


class ArityError(ExpressionError):
    def __init__(self, name, expected, got, offset):
        super().__init__(
            f"function {name!r} takes {expected} argument(s), got {got} (at offset {offset})"
        )
        self.offset = offset


class DomainError(HessgeoError):
    """Evaluation left the domain of a function node (ln of nonpositive, pole, ...)."""


class Overflow(HessgeoError):
    """Evaluation produced a non-finite value."""


class NotPositiveDefinite(HessgeoError):
    def __init__(self, point, message="metric not positive definite"):
        super().__init__(f"{message} at {point}")
        self.point = point


class EmptyDomainSample(HessgeoError):
    """Rejection sampling found no points of the domain inside the bounding box."""


class NonpositiveNorm(HessgeoError):
    """g(xi, xi) <= 0 where a positive conformal factor is required."""


class NotAnIsometry(HessgeoError):
    """A map passed as an automorphism does not preserve the base metric (or
    a stated endomorphism field such as I)."""


class NewtonDivergence(HessgeoError):
    def __init__(self, point):
        super().__init__(f"Newton iteration failed to converge at {point}")
        self.point = point


class SingularMetric(HessgeoError):
    """Metric block is numerically singular."""


class TranslationUnsupported(HessgeoError):
    """Affine homothetic fields with a translation part are not supported on T*M."""


class UnknownPreset(HessgeoError):
    def __init__(self, name):
        super().__init__(f"unknown preset {name!r}")
        self.name = name


class ConfigError(HessgeoError):
    """Malformed geometry configuration."""
