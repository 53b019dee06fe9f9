"""Classification outcomes with structured evidence, and the one rule that
turns every result record into its report entry."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cache

# field metadata of a record field that stays out of its report entry
INTERNAL = {"internal": True}
_PLAIN = frozenset((float, int, str, bool, type(None)))


@cache
def _reported(cls):
    return tuple(f.name for f in fields(cls) if not f.metadata.get("internal"))


def report_entry(value):
    """The report form of ``value``: a record becomes the dict of its
    fields in declaration order, less the internal ones; lists and tuples
    become lists; an Enum becomes its value.  Anything else is kept."""
    kind = type(value)
    if kind in _PLAIN:
        return value
    if isinstance(value, Record):
        return {name: report_entry(getattr(value, name)) for name in _reported(kind)}
    if isinstance(value, (list, tuple)):
        return [v if type(v) in _PLAIN else report_entry(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    return value


class Record:
    """Base of the result dataclasses that reach a report."""

    def to_dict(self):
        return report_entry(self)


class Outcome(str, Enum):
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    INCONCLUSIVE = "inconclusive"


HOLDS = "holds"
FAILS = "fails"
WINDOW_ONLY = "window_only"


@dataclass
class HypothesisCheck(Record):
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


@dataclass
class Verdict(Record):
    """Parabolic / hyperbolic / inconclusive, plus the evidence trail.

    A decisive outcome requires every check to hold and the integral
    evidence to be decisive; anything weaker is inconclusive.
    """

    outcome: Outcome
    criterion: str
    checks: list = field(default_factory=list)
    integral_evidence: object = None
    capacity_bound: object = field(default=None, metadata=INTERNAL)  # rho -> bound
    notes: str = ""

    def assert_sound(self):
        if self.outcome is not Outcome.INCONCLUSIVE:
            assert all(c.holds for c in self.checks), \
                f"decisive verdict with non-holding check: {self.checks}"
            if self.integral_evidence is not None:
                assert self.integral_evidence.is_decisive
        return True


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

