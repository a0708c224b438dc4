"""Exception types shared across the package."""

__all__ = [
    "DualRKError",
    "ConnectivityFailure",
    "DimensionMismatch",
    "SingularSystem",
    "NonFiniteState",
    "NonPositiveTime",
    "DegenerateError",
    "InsufficientData",
    "NonPositiveMetric",
    "ConfigError",
    "InvalidArgument",
]


class DualRKError(Exception):
    """Base class for all errors raised by this package."""


class ConnectivityFailure(DualRKError):
    """Random graph sampling exhausted its retry budget without connectivity."""


class DimensionMismatch(DualRKError):
    """An input does not match the expected stacked dimensions."""


class SingularSystem(DualRKError):
    """A matrix required to be positive definite is singular or indefinite."""


class NonFiniteState(DualRKError):
    """A state or stage derivative contains NaN/Inf, usually a too-large step.

    ``parts`` indexes the diverged parts of a disjoint-union graph (None: unknown).
    """

    def __init__(self, message: str, iteration: int | None = None, parts: tuple[int, ...] | None = None):
        super().__init__(message)
        self.iteration = iteration
        self.parts = parts


class NonPositiveTime(DualRKError):
    """The internal time coordinate must stay strictly positive."""


class DegenerateError(DualRKError):
    """One-step errors too close to machine precision to estimate an order."""


class InsufficientData(DualRKError):
    """Not enough trace points in the requested fit window."""


class NonPositiveMetric(DualRKError):
    """Metric is nonpositive where a log-log fit was requested."""


class ConfigError(DualRKError):
    """Experiment configuration is missing keys or holds invalid values."""


class InvalidArgument(DualRKError, ValueError):
    """An argument lies outside its valid range: a method's step or mixing weight, or a trace column or its name."""
