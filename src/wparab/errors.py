"""Exception types shared across the toolkit."""


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


class ScenarioError(DomainError):
    """Scenario-level configuration problem, such as an input that its
    declared field does not accept."""
