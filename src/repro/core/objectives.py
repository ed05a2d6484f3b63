"""Platform-centric objective functions for batch deployment (§2.3).

*Throughput* counts satisfied requests (every request contributes 1);
*pay-off* sums what satisfied requesters are willing to spend (``d.cost``
unless overridden).  Both are set functions evaluated over the satisfied
subset, subject to the workforce capacity ``Σ ~w_i <= W``.

Extension beyond the paper (DESIGN.md §7): :class:`MultiGoalObjective`
combines both goals as ``w_t · 1 + w_p · payoff`` per satisfied request.
Because the combined value is still a fixed non-negative number per
request, the knapsack structure — and BatchStrat's 1/2-approximation —
carry over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.core.request import DeploymentRequest

OBJECTIVES = ("throughput", "payoff")


@dataclass(frozen=True)
class MultiGoalObjective:
    """Weighted blend of throughput and pay-off."""

    throughput_weight: float = 1.0
    payoff_weight: float = 1.0

    def __post_init__(self):
        if self.throughput_weight < 0 or self.payoff_weight < 0:
            raise ValueError("objective weights must be >= 0")
        if self.throughput_weight == 0 and self.payoff_weight == 0:
            raise ValueError("at least one objective weight must be positive")

    @property
    def name(self) -> str:
        return (
            f"multi(throughput={self.throughput_weight}, "
            f"payoff={self.payoff_weight})"
        )


ObjectiveSpec = Union[str, MultiGoalObjective]


def validate_objective(objective: ObjectiveSpec) -> ObjectiveSpec:
    """Check an objective spec; returns it unchanged if valid."""
    if isinstance(objective, MultiGoalObjective):
        return objective
    if objective in OBJECTIVES:
        return objective
    raise ValueError(
        f"objective must be one of {OBJECTIVES} or a MultiGoalObjective, "
        f"got {objective!r}"
    )


def objective_name(objective: ObjectiveSpec) -> str:
    """Display name of an objective spec."""
    if isinstance(objective, MultiGoalObjective):
        return objective.name
    return str(objective)


def request_value(request: DeploymentRequest, objective: ObjectiveSpec) -> float:
    """The objective value ``f_i`` one satisfied request contributes."""
    if isinstance(objective, MultiGoalObjective):
        return (
            objective.throughput_weight
            + objective.payoff_weight * request.effective_payoff()
        )
    if objective == "throughput":
        return 1.0
    if objective == "payoff":
        return request.effective_payoff()
    raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
