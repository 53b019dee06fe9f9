"""Classification outcomes with structured evidence."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Outcome(str, Enum):
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    INCONCLUSIVE = "inconclusive"


HOLDS = "holds"
FAILS = "fails"
WINDOW_ONLY = "window_only"


@dataclass
class HypothesisCheck:
    """Result of sampling one hypothesis of a criterion.

    ``fails`` always carries a concrete witness; ``window_only`` means the
    inequality held on the sampled window but cannot be certified beyond it.
    """

    name: str
    status: str
    margin: float | None = None
    witness: object = None
    window: tuple | None = None
    samples: int = 0
    note: str = ""

    @property
    def holds(self):
        return self.status == HOLDS

    def to_dict(self):
        return {
            "name": self.name,
            "status": self.status,
            "margin": self.margin,
            "witness": self.witness,
            "window": list(self.window) if self.window else None,
            "samples": self.samples,
            "note": self.note,
        }


@dataclass
class Verdict:
    """Parabolic / hyperbolic / inconclusive, plus the evidence trail.

    A decisive outcome requires every check to hold and the integral
    evidence to be decisive; anything weaker is inconclusive.
    """

    outcome: Outcome
    criterion: str
    checks: list = field(default_factory=list)
    integral_evidence: object = None
    capacity_bound: object = None   # optional callable rho -> bound
    notes: str = ""

    def assert_sound(self):
        if self.outcome is not Outcome.INCONCLUSIVE:
            assert all(c.holds for c in self.checks), \
                f"decisive verdict with non-holding check: {self.checks}"
            if self.integral_evidence is not None:
                assert self.integral_evidence.is_decisive
        return True

    def to_dict(self):
        return {
            "outcome": self.outcome.value,
            "criterion": self.criterion,
            "checks": [c.to_dict() for c in self.checks],
            "integral_evidence": (self.integral_evidence.to_dict()
                                  if self.integral_evidence is not None else None),
            "notes": self.notes,
        }


def one_sided(target, needs_divergent, checks, integral, criterion,
              capacity_bound=None, notes=""):
    """Assemble a one-sided verdict: the criterion either fires or is silent.

    ``target`` is reached only when every check holds and the integral
    evidence is decisive in the required direction; otherwise the outcome
    is inconclusive (the criterion gives no information the other way).
    """
    fires = (all(c.holds for c in checks) and integral.is_decisive
             and integral.is_divergent == needs_divergent)
    outcome = target if fires else Outcome.INCONCLUSIVE
    return Verdict(outcome, criterion, checks, integral, capacity_bound, notes)

