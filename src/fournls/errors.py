"""Exception types shared across the package, and the one test of a scalar
argument: a number is a finite real and a count an integer, neither a bool
(JSON's ``true`` is an int subclass).  The checks convert no value."""

from math import isfinite
from numbers import Integral, Real


class ConfigError(ValueError):
    """A parameter violates an operation's precondition."""


class ResolutionError(RuntimeError):
    """Requested data cannot be represented faithfully on the grid."""


class NumericDomainError(ArithmeticError):
    """A symbol or multiplier was evaluated outside its numeric domain."""


class TermBudgetError(RuntimeError):
    """A direct multilinear sum would exceed the allowed term count."""


class QuadratureError(RuntimeError):
    """An oscillatory quadrature failed to converge; carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class InconclusiveFitError(RuntimeError):
    """Measured increments sit at the round-off floor; fit is meaningless."""


class AbortedRunError(RuntimeError):
    """An evolution tripped a runtime guard; carries the partial record."""

    def __init__(self, message: str, record=None):
        super().__init__(message)
        self.record = record


def is_real(v) -> bool:
    """A finite real (numpy scalars and Fractions too) that is not a bool."""
    try:
        return isinstance(v, Real) and not isinstance(v, bool) and isfinite(v)
    except OverflowError:  # an int that no float can hold
        return False


def is_integer(v) -> bool:
    """An integer (numpy integers too) that is not a bool."""
    return isinstance(v, Integral) and not isinstance(v, bool)


def check_real(name: str, v, positive: bool = False) -> None:
    """:class:`ConfigError` unless ``v`` is a finite real, and > 0 when ``positive``."""
    if not (is_real(v) and (v > 0 or not positive)):
        sign = "positive " if positive else ""
        raise ConfigError(f"{name} must be a {sign}finite number, got {v!r}")


def check_integer(name: str, v, floor: int | None = None) -> None:
    """:class:`ConfigError` unless ``v`` is an integer, and >= ``floor`` when given."""
    if not (is_integer(v) and (floor is None or v >= floor)):
        bound = "" if floor is None else f" >= {floor}"
        raise ConfigError(f"{name} must be an integer{bound}, got {v!r}")
