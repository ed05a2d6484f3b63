"""The Aggregator — StratRec's batching front end (Figure 1, §2.2).

The Aggregator receives a batch of deployment requests, estimates worker
availability from the pool, runs BatchStrat under a platform objective,
and routes every request BatchStrat could not serve to ADPaR one by one,
attaching the alternative parameters (and their k strategies) to the
response.

This module owns the *data model* of a resolved batch
(:class:`ResolutionStatus`, :class:`RequestResolution`,
:class:`AggregatorReport`); the orchestration itself is
:meth:`repro.engine.RecommendationEngine.resolve`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.adpar import ADPaRResult
from repro.core.batchstrat import BatchOutcome
from repro.core.params import TriParams
from repro.core.request import DeploymentRequest


class ResolutionStatus(enum.Enum):
    """How a request left the middle layer."""

    SATISFIED = "satisfied"
    ALTERNATIVE = "alternative"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True, slots=True)
class RequestResolution:
    """Final answer for one request: strategies, or alternative parameters."""

    request: DeploymentRequest
    status: ResolutionStatus
    strategy_names: tuple[str, ...]
    params: TriParams
    distance: float = 0.0
    adpar: "ADPaRResult | None" = None

    @property
    def request_id(self) -> str:
        return self.request.request_id


@dataclass(frozen=True)
class AggregatorReport:
    """Everything the middle layer returns for one batch."""

    availability: float
    objective: str
    batch: BatchOutcome
    resolutions: tuple[RequestResolution, ...]

    def resolution_for(self, request_id: str) -> RequestResolution:
        for resolution in self.resolutions:
            if resolution.request_id == request_id:
                return resolution
        raise KeyError(request_id)

    @property
    def satisfied_count(self) -> int:
        return sum(
            1 for r in self.resolutions if r.status is ResolutionStatus.SATISFIED
        )

    @property
    def alternative_count(self) -> int:
        return sum(
            1 for r in self.resolutions if r.status is ResolutionStatus.ALTERNATIVE
        )

