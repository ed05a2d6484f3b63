"""The unified recommendation engine layer.

All deployment traffic — batch, streaming, CLI, simulator, experiment
runners — flows through :class:`RecommendationEngine`:

* planner backends are pluggable via :class:`PlannerRegistry`
  (``batch-greedy``, ``payoff-dp``, ``baseline-greedy``,
  ``batch-bruteforce``),
* ADPaR solver backends are pluggable via :class:`SolverRegistry`
  (``adpar-exact`` and its alias ``adpar-incremental``,
  ``adpar-weighted``, ``onedim``, ``rtree``, ``bruteforce``), all
  sharing one :class:`~repro.core.relaxation.RelaxationSpace` per
  (ensemble, availability),
* :class:`EngineCache` memoizes workforce aggregates, ADPaR results and
  the relaxation geometry across calls and engines,
* :class:`EngineSession` carries the streaming ledger (admission,
  revocation, deferred-retry) with a vectorized burst path
  (:meth:`~EngineSession.submit_many`) and an O(1)-retry deferred queue
  whose entries carry their precomputed aggregates
  (:class:`DeferredEntry`), and :func:`drive_stream` runs the
  burst/complete/retry admission loop over one session.
"""

from repro.engine.cache import (
    CacheStats,
    CachingWorkforceComputer,
    EngineCache,
    ensemble_fingerprint,
)
from repro.engine.engine import RecommendationEngine
from repro.engine.registry import (
    Planner,
    PlannerContext,
    PlannerRegistry,
    default_registry,
)
from repro.engine.session import DeferredEntry, EngineSession, drive_stream
from repro.engine.solvers import (
    AdparSolver,
    SolverContext,
    SolverRegistry,
    default_solver_registry,
    solver_options_key,
)
from repro.exceptions import UnknownPlannerError, UnknownSolverError

__all__ = [
    "RecommendationEngine",
    "EngineSession",
    "DeferredEntry",
    "drive_stream",
    "EngineCache",
    "CacheStats",
    "CachingWorkforceComputer",
    "ensemble_fingerprint",
    "Planner",
    "PlannerContext",
    "PlannerRegistry",
    "default_registry",
    "UnknownPlannerError",
    "AdparSolver",
    "SolverContext",
    "SolverRegistry",
    "default_solver_registry",
    "solver_options_key",
    "UnknownSolverError",
]
