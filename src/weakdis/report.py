"""Inequality-check records."""

import math
from dataclasses import dataclass, field

# Relative slack used by every pass/fail decision: an inequality "lhs <= rhs"
# passes iff rhs - lhs >= -PASS_SLACK * max(1, |rhs|).
PASS_SLACK = 1e-12


def holds(lhs, rhs, slack=0.0) -> bool:
    """Whether lhs <= rhs up to slack * max(1, |rhs|), decided on finite
    evidence only: a NaN, an infinity or a missing value fails."""
    finite = all(v is not None and math.isfinite(v) for v in (lhs, rhs))
    return finite and rhs - lhs >= -slack * max(1.0, abs(rhs))


@dataclass(frozen=True)
class BoundReport:
    """Outcome of a single inequality verification.

    Parameters
    ----------
    name : str
        Identifier of the inequality being checked.
    lhs, rhs : float
        The two sides of ``lhs <= rhs``.
    context : dict
        Parameter values, worst points, and any measured diagnostics.
    notes : str
        Free-form remarks (e.g. whether a constant is a labeled surrogate).
    """

    name: str
    lhs: float
    rhs: float
    context: dict = field(default_factory=dict)
    notes: str = ""

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return holds(self.lhs, self.rhs, PASS_SLACK)

