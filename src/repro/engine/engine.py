"""The unified recommendation engine — every entry point's one seam.

The seed wired ``BatchStrat`` + ``ADPaRExact`` + ``WorkforceComputer``
separately in its batch front end, its streaming ledger, the CLI, the
platform simulator and each experiment runner.
:class:`RecommendationEngine` is the single service layer they all route
through instead:

* a pluggable planner backend (:mod:`repro.engine.registry`) decides
  which requests to satisfy,
* a pluggable ADPaR solver backend (:mod:`repro.engine.solvers`) answers
  the rest with alternative parameters — scalar or batch
  (:meth:`~RecommendationEngine.recommend_alternatives`),
* a shared :class:`~repro.engine.cache.EngineCache` memoizes per-request
  workforce aggregates, ADPaR fallbacks, and the relaxation geometry
  across calls and engines,
* :meth:`resolve` is the paper's Aggregator (Figure 1): it reproduces
  the seed's hand-wired BatchStrat + ADPaR pipeline decision-for-decision
  (differential-tested), and
* :meth:`open_session` subsumes the streaming ledger: admission,
  revocation and deferred-retry live in one place.
"""

from __future__ import annotations

from repro.core.aggregator import (
    AggregatorReport,
    RequestResolution,
    ResolutionStatus,
)
from repro.core.adpar import ADPaRResult
from repro.core.batchstrat import BatchOutcome
from repro.core.objectives import ObjectiveSpec, validate_objective
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.core.params import TriParams
from repro.engine.cache import CacheStats, CachingWorkforceComputer, EngineCache
from repro.engine.registry import (
    Planner,
    PlannerContext,
    PlannerRegistry,
    default_registry,
)
from repro.engine.session import EngineSession
from repro.engine.solvers import (
    AdparSolver,
    SolverRegistry,
    default_solver_registry,
)
from repro.exceptions import InfeasibleRequestError
from repro.modeling.availability import AvailabilityDistribution
from repro.utils.validation import check_fraction


def check_unique_ids(requests: "list[DeploymentRequest]") -> None:
    """One batch's rule: its request ids are unique (else ``ValueError``).

    :meth:`RecommendationEngine.resolve_many` applies it to every batch,
    and the request coalescer to every call before merging it.
    """
    ids = [r.request_id for r in requests]
    if len(set(ids)) != len(ids):
        raise ValueError("request ids within a batch must be unique")


class RecommendationEngine:
    """Facade over planning, workforce estimation, and ADPaR fallback.

    Parameters
    ----------
    ensemble:
        Candidate strategy profiles.
    availability:
        Expected workforce fraction in ``[0, 1]``, or an
        :class:`AvailabilityDistribution` (its expectation is used,
        matching §2.1's "StratRec works with expected values").
    objective:
        Default platform objective for :meth:`plan`/:meth:`resolve`.
    aggregation, workforce_mode, eligibility:
        Forwarded to the workforce computer (§3.2).
    planner:
        Default planner backend name (see :func:`default_registry`).
    planner_options:
        Backend-specific options (e.g. ``{"resolution": 8192}`` for
        ``payoff-dp``); passed to every backend this engine instantiates,
        including per-call ``plan(planner=...)`` overrides — backends
        ignore keys they do not understand.
    solver:
        Default ADPaR solver backend name answering requests the planner
        could not satisfy (see
        :func:`~repro.engine.solvers.default_solver_registry`):
        ``adpar-exact`` (default), ``adpar-weighted``, ``onedim``,
        ``rtree``, ``bruteforce``.
    solver_options:
        Solver-backend options (e.g. ``{"norm": "l1", "weights":
        (2, 1, 1)}`` for ``adpar-weighted``); part of the cache key, so
        engines with different options never share ADPaR results.
    cache:
        A shared :class:`EngineCache`; a private one is created when
        omitted.  Pass one cache to many engines to share work.
    registry:
        Planner registry; the process-wide default when omitted.
    solver_registry:
        ADPaR solver registry; the process-wide default when omitted.
    """

    def __init__(
        self,
        ensemble: StrategyEnsemble,
        availability: "float | AvailabilityDistribution",
        objective: ObjectiveSpec = "throughput",
        aggregation: str = "sum",
        workforce_mode: str = "paper",
        eligibility: str = "pool",
        planner: str = "batch-greedy",
        planner_options: "dict | None" = None,
        solver: str = "adpar-exact",
        solver_options: "dict | None" = None,
        cache: "EngineCache | None" = None,
        registry: "PlannerRegistry | None" = None,
        solver_registry: "SolverRegistry | None" = None,
    ):
        if isinstance(availability, AvailabilityDistribution):
            availability = availability.expectation()
        validate_objective(objective)
        self.ensemble = ensemble
        self.availability = check_fraction("availability", float(availability))
        self.objective = objective
        self.aggregation = aggregation
        self.workforce_mode = workforce_mode
        self.eligibility = eligibility
        self.cache = cache if cache is not None else EngineCache()
        self.registry = registry if registry is not None else default_registry()
        self.solver_registry = (
            solver_registry
            if solver_registry is not None
            else default_solver_registry()
        )
        self.planner_name = planner
        self._planner_options = dict(planner_options or {})
        self.solver_name = solver
        self._solver_options = dict(solver_options or {})
        self._computer = CachingWorkforceComputer(
            ensemble,
            self.cache,
            mode=workforce_mode,
            aggregation=aggregation,
            eligibility=eligibility,
            availability=self.availability,
        )
        self._context = PlannerContext(
            ensemble=ensemble,
            availability=self.availability,
            aggregation=aggregation,
            workforce_mode=workforce_mode,
            eligibility=eligibility,
            computer=self._computer,
        )
        self._planners: "dict[str, Planner]" = {}
        # Fail fast on unknown default backends (and, for the solver,
        # invalid options such as a bad norm or negative weights).
        self._planner_for(planner)
        self._solver_for(solver)

    # ------------------------------------------------------------- accessors
    @property
    def computer(self) -> CachingWorkforceComputer:
        """The engine's (caching) workforce computer."""
        return self._computer

    @property
    def stats(self) -> CacheStats:
        """Cache hit/miss counters for this engine's shared cache."""
        return self.cache.stats

    def _planner_for(self, name: "str | None" = None) -> Planner:
        name = name if name is not None else self.planner_name
        if name not in self._planners:
            # Options reach every backend (per-call overrides included);
            # backends ignore keys they do not understand.
            self._planners[name] = self.registry.create(
                name, self._context, self._planner_options
            )
        return self._planners[name]

    def _solver_for(self, name: "str | None" = None) -> AdparSolver:
        """The (cache-held) ADPaR solver backend for this engine."""
        name = name if name is not None else self.solver_name
        return self.cache.adpar_solver(
            self.ensemble,
            self.availability,
            solver=name,
            options=self._solver_options,
            registry=self.solver_registry,
        )

    # ------------------------------------------------------------------ plan
    def plan(
        self,
        requests: "list[DeploymentRequest]",
        objective: "ObjectiveSpec | None" = None,
        planner: "str | None" = None,
    ) -> BatchOutcome:
        """Run one planner backend over a batch (no ADPaR routing).

        ``planner`` overrides the engine default per call; all backends
        share this engine's workforce cache, so comparing several over the
        same batch pays for model inversion once.
        """
        objective = self.objective if objective is None else objective
        return self._planner_for(planner).plan(requests, objective=objective)

    # --------------------------------------------------------------- resolve
    def resolve(
        self,
        requests: "list[DeploymentRequest]",
        objective: "ObjectiveSpec | None" = None,
        planner: "str | None" = None,
        solver: "str | None" = None,
    ) -> AggregatorReport:
        """Serve a batch end-to-end: plan, then ADPaR for the rest.

        The paper's Aggregator (Figure 1, §2.2): every request
        resolves to SATISFIED (with its k strategies), ALTERNATIVE (with
        ADPaR's closest parameters), or INFEASIBLE.  The unsatisfied
        remainder is solved through the solver backend's batch path, so
        the relaxation geometry is paid for once per batch.
        """
        return self.resolve_many(
            [requests], objective=objective, planner=planner, solver=solver
        )[0]

    def resolve_many(
        self,
        batches: "list[list[DeploymentRequest]]",
        objective: "ObjectiveSpec | None" = None,
        planner: "str | None" = None,
        solver: "str | None" = None,
    ) -> list[AggregatorReport]:
        """Resolve several *independent* batches in one merged ADPaR pass.

        Report-for-report identical to ``[resolve(b) for b in batches]``
        (property-pinned): planning stays per batch — a planner decides
        against each batch's own availability budget, so merging there
        would change decisions — but every batch's unsatisfied remainder
        is solved through **one** :meth:`~repro.engine.cache.EngineCache
        .adpar_solve_batch` call, amortizing the relaxation geometry
        across all batches.  This is the vectorized pass the cross-client
        request coalescer (:mod:`repro.api.coalescer`) fans concurrent
        ``resolve`` calls into.  Request ids must be unique *within* each
        batch only; different batches may reuse ids freely (ADPaR is
        keyed by parameters, not identity).
        """
        for requests in batches:
            check_unique_ids(requests)
        objective = self.objective if objective is None else objective
        outcomes = [
            self.plan(list(requests), objective=objective, planner=planner)
            for requests in batches
        ]
        satisfied_maps = [
            {rec.request_id: rec for rec in batch.satisfied}
            for batch in outcomes
        ]
        unsatisfied_per_batch = [
            [r for r in requests if r.request_id not in satisfied]
            for requests, satisfied in zip(batches, satisfied_maps)
        ]
        merged = [r for group in unsatisfied_per_batch for r in group]
        solved = iter(self._alternatives_for(merged, solver=solver))
        reports: list[AggregatorReport] = []
        for requests, batch, satisfied_by_id, unsatisfied in zip(
            batches, outcomes, satisfied_maps, unsatisfied_per_batch
        ):
            alternatives = {
                r.request_id: next(solved) for r in unsatisfied
            }
            reports.append(
                self._assemble_report(
                    requests, objective, batch, satisfied_by_id, alternatives
                )
            )
        return reports

    def _assemble_report(
        self, requests, objective, batch, satisfied_by_id, alternatives
    ) -> AggregatorReport:
        resolutions: list[RequestResolution] = []
        for request in requests:
            if request.request_id in satisfied_by_id:
                rec = satisfied_by_id[request.request_id]
                resolutions.append(
                    RequestResolution(
                        request=request,
                        status=ResolutionStatus.SATISFIED,
                        strategy_names=rec.strategy_names,
                        params=request.params,
                    )
                )
                continue
            result = alternatives[request.request_id]
            if isinstance(result, str):
                resolutions.append(
                    RequestResolution(
                        request=request,
                        status=ResolutionStatus.INFEASIBLE,
                        strategy_names=(),
                        params=request.params,
                    )
                )
                continue
            resolutions.append(
                RequestResolution(
                    request=request,
                    status=ResolutionStatus.ALTERNATIVE,
                    strategy_names=result.strategy_names,
                    params=result.alternative,
                    distance=result.distance,
                    adpar=result,
                )
            )
        return AggregatorReport(
            availability=self.availability,
            objective=objective,
            batch=batch,
            resolutions=tuple(resolutions),
        )

    # ----------------------------------------------------------------- adpar
    def _as_adpar_request(
        self, request: "DeploymentRequest | TriParams", k: "int | None"
    ) -> DeploymentRequest:
        if not isinstance(request, DeploymentRequest):
            # Bare TriParams: wrap so the cache key carries (params, k).
            if k is None:
                raise ValueError("k is required when passing bare TriParams")
            return DeploymentRequest("adhoc", request, k=int(k))
        if k is not None and k != request.k:
            return DeploymentRequest(
                request.request_id,
                request.params,
                k=int(k),
                task_type=request.task_type,
                payoff=request.payoff,
            )
        return request

    def _alternatives_for(
        self,
        requests: "list[DeploymentRequest]",
        solver: "str | None" = None,
    ) -> "list[ADPaRResult | str]":
        """Cached batch ADPaR; an infeasible request's entry is its
        verdict's text."""
        return self.cache.adpar_solve_batch(
            self.ensemble,
            self.availability,
            requests,
            solver=solver if solver is not None else self.solver_name,
            options=self._solver_options,
            registry=self.solver_registry,
        )

    def recommend_alternative(
        self,
        request: "DeploymentRequest | TriParams",
        k: "int | None" = None,
        solver: "str | None" = None,
    ) -> ADPaRResult:
        """Closest alternative parameters admitting ``k`` strategies (§4).

        ``solver`` overrides the engine's default backend per call.
        Results are cached by (ensemble, availability, params, k, solver,
        options).  A one-request :meth:`recommend_alternatives`.
        """
        return self.recommend_alternatives([request], k, solver)[0]

    def recommend_alternatives(
        self,
        requests: "list[DeploymentRequest | TriParams]",
        k: "int | None" = None,
        solver: "str | None" = None,
    ) -> list[ADPaRResult]:
        """Closest alternative parameters for many requests over shared
        geometry (§4).

        Cache misses are routed through the backend's
        :meth:`~repro.engine.solvers.AdparSolver.solve_batch`, which
        amortizes the relaxation geometry across the whole batch (a
        5-60x speedup for ``adpar-exact`` on Figure-18-scale ensembles;
        ``benchmarks/bench_adpar_solvers.py`` pins it).  ``k``, when
        given, overrides every request's own ``k``.  Raises
        :class:`InfeasibleRequestError` with the first infeasible
        request's verdict; callers that want per-request verdicts should
        resolve through :meth:`resolve`.
        """
        prepared = [self._as_adpar_request(r, k) for r in requests]
        results = self._alternatives_for(prepared, solver=solver)
        self._check_admitted(results)
        return results  # type: ignore[return-value]

    @staticmethod
    def _check_admitted(results: "list[ADPaRResult | str]") -> None:
        """Raise :class:`InfeasibleRequestError` with the verdict of the
        first request the batch ADPaR found infeasible."""
        for result in results:
            if isinstance(result, str):
                raise InfeasibleRequestError(result)

    # --------------------------------------------------------------- session
    def open_session(self) -> EngineSession:
        """Open a streaming session over this engine's workforce ledger.

        The session admits requests one at a time (or per arrival burst
        through :meth:`EngineSession.submit_many`, which runs the model
        inversions and ADPaR fallbacks as two vectorized batch passes)
        against the remaining availability, answers non-fitting requests
        with ADPaR alternatives, and handles revocation and
        deferred-retry in one place (the paper's §7 open problem).
        Repeated request shapes are served from this engine's shared
        workforce cache, so resubmissions skip model inversion entirely.
        """
        return EngineSession(self)
