"""StratRec — the end-to-end middle layer (Figure 1).

Ties the pieces together for applications: a model bank calibrated per
(task type, strategy), availability distributions estimated from platform
history, and one :class:`~repro.engine.RecommendationEngine` per task
type running the BatchStrat/ADPaR pipeline.  The execution-level
experiments (Figure 13) use :meth:`StratRec.recommend_strategy` to pick
the deployment strategy an actual (simulated) campaign should run with.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.aggregator import AggregatorReport
from repro.core.request import DeploymentRequest
from repro.core.strategy import Strategy, StrategyEnsemble, StrategyProfile
from repro.exceptions import UnknownStrategyError
from repro.modeling.availability import AvailabilityDistribution
from repro.modeling.modelbank import ModelBank


@dataclass(frozen=True)
class StrategyAdvice:
    """Outcome of a single-request consultation."""

    request: DeploymentRequest
    satisfied: bool
    strategy_names: tuple[str, ...]
    params_used: "tuple[float, float, float]"
    distance: float

    @property
    def best_strategy(self) -> "str | None":
        """First recommended strategy (smallest workforce requirement)."""
        return self.strategy_names[0] if self.strategy_names else None


class StratRec:
    """Optimization-driven middle layer between requesters and a platform.

    Parameters
    ----------
    model_bank:
        Calibrated linear models per (task type, strategy name).
    availability:
        Either a single distribution used for all task types or a mapping
        ``task_type -> AvailabilityDistribution``.
    objective:
        Platform goal used when triaging batches.
    planner:
        Planner backend name used by the per-task-type engines.
    cache:
        Shared :class:`repro.engine.EngineCache`; one private cache is
        created (and shared across all task types) when omitted, so
        repeated consultations with the same thresholds are served from
        memory.
    """

    def __init__(
        self,
        model_bank: ModelBank,
        availability: "AvailabilityDistribution | dict[str, AvailabilityDistribution]",
        objective: str = "throughput",
        aggregation: str = "sum",
        workforce_mode: str = "paper",
        eligibility: str = "pool",
        planner: str = "batch-greedy",
        cache: "object | None" = None,
    ):
        from repro.engine import EngineCache

        self.model_bank = model_bank
        self._availability = availability
        self.objective = objective
        self.aggregation = aggregation
        self.workforce_mode = workforce_mode
        self.eligibility = eligibility
        self.planner = planner
        self.cache = cache if cache is not None else EngineCache()
        self._engines: dict = {}

    # ----------------------------------------------------------------- lookup
    def availability_for(self, task_type: str) -> AvailabilityDistribution:
        """Availability distribution applicable to ``task_type``."""
        if isinstance(self._availability, AvailabilityDistribution):
            return self._availability
        try:
            return self._availability[task_type]
        except KeyError:
            raise UnknownStrategyError(
                f"no availability distribution for task type {task_type!r}"
            ) from None

    def ensemble_for(self, task_type: str) -> StrategyEnsemble:
        """Build the candidate ensemble for one task type from the bank."""
        names = self.model_bank.strategies_for(task_type)
        if not names:
            raise UnknownStrategyError(f"no strategies calibrated for {task_type!r}")
        profiles = [
            StrategyProfile(
                strategy=Strategy.from_name(name),
                models=self.model_bank.get(task_type, name),
            )
            for name in names
        ]
        return StrategyEnsemble(profiles)

    def engine_for(self, task_type: str):
        """The recommendation engine serving one task type.

        The ensemble is rebuilt from the (possibly re-calibrated) model
        bank on every call — the seed built it afresh per call too — and
        the engine is memoized by its content fingerprint, so a bank
        update transparently yields a fresh engine while unchanged banks
        reuse the old one.  Engines share :attr:`cache`, so workforce
        aggregates and ADPaR results persist across consultations.
        """
        from repro.engine import RecommendationEngine, ensemble_fingerprint

        ensemble = self.ensemble_for(task_type)
        key = (task_type, ensemble_fingerprint(ensemble))
        if key not in self._engines:
            self._engines[key] = RecommendationEngine(
                ensemble,
                self.availability_for(task_type),
                objective=self.objective,
                aggregation=self.aggregation,
                workforce_mode=self.workforce_mode,
                eligibility=self.eligibility,
                planner=self.planner,
                cache=self.cache,
            )
        return self._engines[key]

    # ------------------------------------------------------------------ batch
    def deploy_batch(self, requests: "list[DeploymentRequest]") -> AggregatorReport:
        """Serve a batch of same-task-type requests through the engine."""
        if not requests:
            raise ValueError("batch must contain at least one request")
        task_types = {r.task_type for r in requests}
        if len(task_types) != 1:
            raise ValueError(
                f"a batch must share one task type, got {sorted(task_types)}"
            )
        return self.engine_for(requests[0].task_type).resolve(requests)

    # ----------------------------------------------------------------- single
    def recommend_strategy(self, request: DeploymentRequest) -> StrategyAdvice:
        """Consult StratRec for one deployment (the Figure 13 usage).

        Returns the recommended strategies (original parameters if
        satisfiable, else ADPaR's closest alternative).
        """
        report = self.deploy_batch([request])
        resolution = report.resolutions[0]
        return StrategyAdvice(
            request=request,
            satisfied=resolution.status.value == "satisfied",
            strategy_names=resolution.strategy_names,
            params_used=resolution.params.as_tuple(),
            distance=resolution.distance,
        )
