"""repro — reproduction of "Recommending Deployment Strategies for
Collaborative Tasks" (Wei, Basu Roy, Amer-Yahia; SIGMOD 2020).

Public API highlights:

* :class:`repro.TriParams`, :class:`repro.DeploymentRequest` — the
  3-parameter deployment space.
* :class:`repro.StrategyEnsemble` — candidate strategies with linear
  parameter models (Equation 4).
* :class:`repro.RecommendationEngine` — the unified service layer all
  traffic flows through: pluggable planner backends, pluggable ADPaR
  solver backends (scalar and batch —
  :meth:`~repro.RecommendationEngine.recommend_alternatives`), a shared
  workforce/ADPaR cache, batch resolution, and streaming sessions
  (:meth:`~repro.RecommendationEngine.open_session`).
* :class:`repro.EngineService` / :mod:`repro.api` — the versioned
  service API over the engine: wire-format DTOs with lossless JSON
  round-trip, pooled engines, opaque-id streaming sessions, typed error
  envelopes, and a stdlib HTTP transport (``repro serve``).
* :class:`repro.BatchStrat` — batch deployment recommendation
  (throughput exact, pay-off 1/2-approximate); the ``batch-greedy``
  backend.
* :class:`repro.ADPaRExact` — exact alternative-parameter recommendation.
* :class:`repro.StratRec` — the per-task-type facade over the engine:
  a calibrated model bank plus availability distributions.
* :mod:`repro.platform` / :mod:`repro.execution` — the simulated crowd
  platform and strategy execution engine standing in for AMT.
* :mod:`repro.experiments` — regenerates every table and figure of §5.
"""

from repro.core import (
    ADPaRExact,
    ADPaRResult,
    RelaxationSpace,
    AggregatorReport,
    BatchOutcome,
    BatchStrat,
    DeploymentRequest,
    RequestResolution,
    ResolutionStatus,
    StratRec,
    Strategy,
    StrategyEnsemble,
    StrategyProfile,
    TriParams,
    full_catalog,
    make_requests,
    paper_catalog,
)
from repro.engine import (
    AdparSolver,
    EngineCache,
    EngineSession,
    PlannerRegistry,
    RecommendationEngine,
    SolverContext,
    SolverRegistry,
    default_registry,
    default_solver_registry,
)
from repro.api import EngineService, EngineSpec, EnsembleRef
from repro.exceptions import (
    ApiError,
    InfeasibleRequestError,
    ModelNotFittedError,
    ReproError,
    UnknownPlannerError,
    UnknownSolverError,
    UnknownStrategyError,
)
from repro.modeling import AvailabilityDistribution, LinearModel, ModelBank, ParamModels

__version__ = "1.1.0"

__all__ = [
    "TriParams",
    "DeploymentRequest",
    "make_requests",
    "Strategy",
    "StrategyProfile",
    "StrategyEnsemble",
    "full_catalog",
    "paper_catalog",
    "BatchStrat",
    "BatchOutcome",
    "ADPaRExact",
    "ADPaRResult",
    "RelaxationSpace",
    "AggregatorReport",
    "RequestResolution",
    "ResolutionStatus",
    "StratRec",
    "RecommendationEngine",
    "EngineService",
    "EngineSpec",
    "EnsembleRef",
    "EngineSession",
    "EngineCache",
    "PlannerRegistry",
    "default_registry",
    "UnknownPlannerError",
    "AdparSolver",
    "SolverContext",
    "SolverRegistry",
    "default_solver_registry",
    "UnknownSolverError",
    "LinearModel",
    "ParamModels",
    "ModelBank",
    "AvailabilityDistribution",
    "ReproError",
    "ApiError",
    "InfeasibleRequestError",
    "ModelNotFittedError",
    "UnknownStrategyError",
    "__version__",
]
