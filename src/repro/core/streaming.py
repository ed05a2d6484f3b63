"""Streaming deployment admission (the paper's §7 open problem).

"How to design StratRec for a fully dynamic stream-like setting of
incoming deployment requests, where the deployment requests could be
revoked, remains an important open problem."  This module defines the
stream decision data model (:class:`StreamStatus`,
:class:`StreamDecision`).  The ledger that produces the decisions is
:class:`repro.engine.EngineSession` (``engine.open_session()``):
requests arrive one at a time, a workforce ledger tracks the remaining
availability, admitted requests hold a reservation until completed or
revoked, requests that do not fit are answered with ADPaR alternatives
instead of a bare rejection, and deferred requests are retried once
capacity frees.

Online greedy admission has no competitive guarantee for pay-off (the
adversary can always burn the budget) — this is an engineering extension,
not a theorem from the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.adpar import ADPaRResult
from repro.core.request import DeploymentRequest


class StreamStatus(enum.Enum):
    """Outcome of one stream submission."""

    ADMITTED = "admitted"
    ALTERNATIVE = "alternative"  # does not fit as stated; ADPaR params attached
    DEFERRED = "deferred"  # feasible but no workforce left right now
    INFEASIBLE = "infeasible"  # fewer than k strategies exist at all


@dataclass(frozen=True)
class StreamDecision:
    """Answer to one submitted request."""

    request: DeploymentRequest
    status: StreamStatus
    strategy_names: tuple[str, ...] = ()
    workforce_reserved: float = 0.0
    alternative: "ADPaRResult | None" = None

    def comparison_key(self) -> tuple:
        """Every decision-relevant field, for exact equality checks.

        The one canonical key used by the differential property tests,
        the fig15 streaming panel, and ``benchmarks/bench_streaming.py``
        to pin the vectorized paths to the scalar ones — including the
        ADPaR alternative's parameters, distance, and strategy choice,
        so a drift in any of them fails the comparison.
        """
        alternative = (
            None
            if self.alternative is None
            else (
                self.alternative.alternative,
                self.alternative.distance,
                self.alternative.strategy_indices,
            )
        )
        return (
            self.request.request_id,
            self.status,
            self.strategy_names,
            self.workforce_reserved,
            alternative,
        )

