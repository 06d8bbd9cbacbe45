"""Exception types shared across the package, how their messages show an
int or a long piece of text, and the one rule for an integer argument."""

import operator


def short_int(n: int) -> str:
    """``n`` as a refusal message shows it: exactly up to 15 digits, and
    past that as its leading digits and magnitude (``1.00000e+300``), so a
    huge parsed value cannot stretch a one-line message."""
    digits = str(abs(n))
    if len(digits) <= 15:
        return str(n)
    return f"{'-' if n < 0 else ''}{digits[0]}.{digits[1:6]}e+{len(digits) - 1}"


def short_text(token: str) -> str:
    """``token``, one whitespace-free word of a refusal message, as the
    message shows it: whole up to 100 characters, and past that as its
    first 40 and last 12 characters around its length, so a long value
    the user gave cannot stretch a one-line message."""
    if len(token) <= 100:
        return token
    return f"{token[:40]}...({len(token)} characters)...{token[-12:]}"


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


def as_int(
    value, name: str, error: type = InvalidParameterError, expected: str = "an int"
) -> int:
    """``value`` as the int it equals, or ``error`` naming ``name``. ints and
    numpy integers have ``__index__``; floats and str do not, and a bool,
    which has, is not a count."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise error(f"{name} must be {expected}, got {value!r}")
    return operator.index(value)
