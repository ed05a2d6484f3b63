"""StratRec core: the paper's primary contribution.

Data model (requests, strategies, the 3-parameter space), workforce
requirement computation, the BatchStrat optimizer, ADPaR-Exact, the
resolved-batch and stream-decision data models, and the StratRec
per-task-type facade.  The middle layer's orchestration lives in
:class:`repro.engine.RecommendationEngine`.
"""

from repro.core.params import TriParams
from repro.core.request import DeploymentRequest, make_requests
from repro.core.strategy import (
    Organization,
    Strategy,
    StrategyEnsemble,
    StrategyProfile,
    Structure,
    Style,
    full_catalog,
    paper_catalog,
)
from repro.core.relaxation import RelaxationSpace
from repro.core.workforce import RequestWorkforce, WorkforceComputer
from repro.core.batchstrat import BatchOutcome, BatchStrat, StrategyRecommendation
from repro.core.adpar import ADPaRExact, ADPaRResult, ADPaRTrace
from repro.core.aggregator import (
    AggregatorReport,
    RequestResolution,
    ResolutionStatus,
)
from repro.core.stratrec import StratRec, StrategyAdvice
from repro.core.objectives import MultiGoalObjective
from repro.core.payoff_dp import payoff_dynamic_program
from repro.core.streaming import StreamDecision, StreamStatus
from repro.core.adpar_variants import (
    RelaxationPenalty,
    WeightedADPaR,
    weighted_adpar_brute_force,
)
from repro.core.workflow import (
    WorkflowStrategy,
    enumerate_workflows,
    workflow_ensemble,
)

__all__ = [
    "TriParams",
    "DeploymentRequest",
    "make_requests",
    "Structure",
    "Organization",
    "Style",
    "Strategy",
    "StrategyProfile",
    "StrategyEnsemble",
    "full_catalog",
    "paper_catalog",
    "WorkforceComputer",
    "RequestWorkforce",
    "BatchStrat",
    "BatchOutcome",
    "StrategyRecommendation",
    "ADPaRExact",
    "ADPaRResult",
    "ADPaRTrace",
    "RelaxationSpace",
    "AggregatorReport",
    "RequestResolution",
    "ResolutionStatus",
    "StratRec",
    "StrategyAdvice",
    "MultiGoalObjective",
    "payoff_dynamic_program",
    "StreamDecision",
    "StreamStatus",
    "RelaxationPenalty",
    "WeightedADPaR",
    "weighted_adpar_brute_force",
    "WorkflowStrategy",
    "enumerate_workflows",
    "workflow_ensemble",
]
