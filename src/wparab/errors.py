"""Exception types shared across the toolkit, and the number checks that
raise them for input values."""

import math

import numpy as np


class WparabError(Exception):
    """Base class for toolkit failures."""


class DomainError(WparabError, ValueError):
    """Input outside the mathematical domain of an operation."""


class QuadratureError(WparabError):
    """Non-finite integrand value encountered at an interior node."""


class IntegrandSignError(WparabError):
    """A supposedly positive integrand was sampled negative."""


class BracketError(WparabError):
    """Root bracketing or root finding failed: no sign change, a NaN value
    or no convergence."""


class NotAttainedError(WparabError):
    """The target value is never attained by the curvature function;
    ``radius`` is the last radius a search reached, when it gave up there."""

    def __init__(self, message, radius=None):
        super().__init__(message)
        self.radius = radius


class NonMonotoneTailError(WparabError):
    """The tail scan after a root found a counterexample point."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class DegenerateMetricError(WparabError):
    """Induced metric numerically degenerate at a parameter point."""


class SupportError(WparabError):
    """Test function does not vanish on the declared support boundary."""


class ComparisonRefusal(WparabError):
    """The requested Monte Carlo comparison is not predicted by the theory."""


class CatalogError(WparabError, KeyError):
    """Unknown catalog name, or a catalog entry missing a parameter."""

    def __str__(self):
        # KeyError would quote the message
        return str(self.args[0]) if self.args else ""


class ScenarioError(WparabError):
    """Scenario-level configuration problem."""


# ---------------------------------------------------------------------------
# Input numbers


def is_number(x):
    """A real number; bools, strings and containers are not."""
    return (isinstance(x, (int, float, np.integer, np.floating))
            and not isinstance(x, bool))


def whole_number(name, value, positive=True):
    """``value`` as an int; a DomainError naming ``name`` unless it is an
    integer-valued real number, positive or else non-negative."""
    if not (is_number(value) and float(value).is_integer()
            and value >= (1 if positive else 0)):
        kind = "positive" if positive else "non-negative"
        raise DomainError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


def finite_number(name, value, positive=False):
    """``value`` as a float; a DomainError naming ``name`` unless it is a
    finite real number, and positive if asked."""
    if not (is_number(value) and math.isfinite(value)
            and (value > 0 or not positive)):
        kind = "positive finite" if positive else "finite"
        raise DomainError(f"{name} must be a {kind} number, got {value!r}")
    return float(value)


def number_list(name, value, length=None):
    """The entries of ``value`` as floats; a DomainError naming ``name``
    unless it is a list (of ``length`` entries if given) of finite numbers."""
    if not isinstance(value, (list, tuple)) or (length is not None
                                                 and len(value) != length):
        shape = "a list of numbers" if length is None else f"a list of {length} numbers"
        raise DomainError(f"{name} must be {shape}, got {value!r}")
    return [finite_number(name, x) for x in value]


def json_object(name, value):
    """``value``; a DomainError naming ``name`` unless it is a JSON object."""
    if not isinstance(value, dict):
        raise DomainError(f"{name} must be an object, got {value!r}")
    return value
