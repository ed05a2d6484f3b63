"""Deployment requests.

A requester asks for ``k`` strategies meeting quality/cost/latency
thresholds for a batch of tasks of some type (§2.1).  The pay-off a
satisfied request contributes to the platform objective defaults to its
cost threshold ``d.cost`` (§3.3.2) but can be overridden.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.params import TriParams
from repro.utils.validation import check_non_negative, check_positive_int


@dataclass(frozen=True, slots=True)
class DeploymentRequest:
    """One requester's deployment request ``d``."""

    request_id: str
    params: TriParams
    k: int = 1
    task_type: str = "generic"
    payoff: "float | None" = None

    def __post_init__(self):
        if not self.request_id:
            raise ValueError("request_id must be non-empty")
        check_positive_int("k", self.k)
        if self.payoff is not None:
            check_non_negative("payoff", self.payoff)

    @property
    def quality(self) -> float:
        """Lower bound on crowd-contribution quality."""
        return self.params.quality

    @property
    def cost(self) -> float:
        """Upper bound on spend (normalized)."""
        return self.params.cost

    @property
    def latency(self) -> float:
        """Upper bound on completion time (normalized)."""
        return self.params.latency

    def effective_payoff(self) -> float:
        """Pay-off used by BatchStrat-PayOff; defaults to ``d.cost`` (§3.3.2)."""
        return self.params.cost if self.payoff is None else self.payoff

    def with_params(self, params: TriParams) -> "DeploymentRequest":
        """Copy of this request with alternative parameters (ADPaR output)."""
        return DeploymentRequest(
            request_id=self.request_id,
            params=params,
            k=self.k,
            task_type=self.task_type,
            payoff=self.payoff,
        )


def make_requests(
    triples: "list[tuple[float, float, float]]",
    k: int = 1,
    task_type: str = "generic",
    prefix: str = "d",
) -> list[DeploymentRequest]:
    """Convenience builder: one request per (quality, cost, latency) triple,
    ids ``d1, d2, …`` matching the paper's numbering."""
    return [
        DeploymentRequest(
            request_id=f"{prefix}{i + 1}",
            params=TriParams(*triple),
            k=k,
            task_type=task_type,
        )
        for i, triple in enumerate(triples)
    ]
