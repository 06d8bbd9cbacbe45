"""Exception types shared across the package."""


class DivalohaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(DivalohaError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class ConfigError(DivalohaError, ValueError):
    """A system configuration is inconsistent or unsupported by the model."""


class InsufficientSupportError(DivalohaError):
    """A truncated distribution does not cover the range a query needs."""


class PlacementImpossibleError(DivalohaError):
    """A packet's earlier copies leave a later copy no admissible start."""


class WorkBoundError(DivalohaError):
    """A run would exceed one of the package's documented work bounds."""
