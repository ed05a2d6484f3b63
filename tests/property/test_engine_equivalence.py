"""Differential tests: the engine must match the legacy wiring exactly.

The refactor is gated AWDIT-style: the seed's batch front end and
streaming ledger (BatchStrat + ADPaRExact wired by hand) are
re-implemented here verbatim as reference oracles, and the engine's
resolutions and session decisions must be decision-for-decision
identical — statuses, strategy names, alternative parameters, and
distances — across random workloads, with the cache cold *and* warm.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adpar import ADPaRExact
from repro.core.aggregator import RequestResolution, ResolutionStatus
from repro.core.batchstrat import BatchStrat
from repro.core.params import TriParams
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.core.streaming import StreamStatus
from repro.core.workforce import WorkforceComputer
from repro.engine import EngineCache, RecommendationEngine
from repro.exceptions import InfeasibleRequestError

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)

_EPS = 1e-9


@st.composite
def engine_instances(draw):
    """Random worlds exercising satisfied/alternative/infeasible paths."""
    n_strategies = draw(st.integers(min_value=1, max_value=5))
    alpha = np.zeros((n_strategies, 3))
    beta = np.zeros((n_strategies, 3))
    for j in range(n_strategies):
        alpha[j] = [0.0, draw(st.sampled_from([0.0, 0.5, 1.0])), 0.0]
        beta[j] = [draw(unit), draw(st.sampled_from([0.0, 0.2])), draw(unit)]
    ensemble = StrategyEnsemble.from_arrays(alpha, beta)
    m = draw(st.integers(min_value=1, max_value=8))
    requests = [
        DeploymentRequest(
            f"d{i}",
            TriParams(draw(unit), draw(unit), draw(unit)),
            k=draw(st.integers(min_value=1, max_value=n_strategies + 1)),
        )
        for i in range(m)
    ]
    availability = draw(unit)
    objective = draw(st.sampled_from(["throughput", "payoff"]))
    mode = draw(st.sampled_from(["paper", "strict"]))
    aggregation = draw(st.sampled_from(["sum", "max"]))
    return ensemble, requests, availability, objective, mode, aggregation


def legacy_aggregator_process(
    ensemble, availability, objective, aggregation, workforce_mode, requests
):
    """The seed's Aggregator.process, wired by hand (the reference oracle)."""
    batchstrat = BatchStrat(
        ensemble, availability, aggregation=aggregation, workforce_mode=workforce_mode
    )
    adpar = ADPaRExact(ensemble, availability=availability)
    batch = batchstrat.run(requests, objective=objective)
    satisfied_by_id = {rec.request_id: rec for rec in batch.satisfied}
    resolutions = []
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
        try:
            result = adpar.solve(request)
        except InfeasibleRequestError:
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
    return batch, resolutions


class LegacyStreaming:
    """The seed's streaming ledger, reproduced as a reference oracle."""

    def __init__(self, ensemble, availability, aggregation, workforce_mode):
        self.ensemble = ensemble
        self.availability = availability
        self._computer = WorkforceComputer(
            ensemble,
            mode=workforce_mode,
            aggregation=aggregation,
            availability=availability,
        )
        self._adpar = ADPaRExact(ensemble, availability=availability)
        self._reserved = {}
        self._used = 0.0

    @property
    def remaining(self):
        return max(self.availability - self._used, 0.0)

    def submit(self, request):
        need = self._computer.aggregate(request)
        if not need.feasible:
            return self._answer_infeasible(request)
        if need.requirement <= self.remaining + _EPS:
            names = tuple(self.ensemble.names[i] for i in need.strategy_indices)
            self._reserved[request.request_id] = need.requirement
            self._used += need.requirement
            return ("admitted", names, need.requirement)
        if need.requirement <= self.availability + _EPS:
            return ("deferred", (), 0.0)
        return self._answer_infeasible(request)

    def _answer_infeasible(self, request):
        try:
            alternative = self._adpar.solve(request)
        except InfeasibleRequestError:
            return ("infeasible", (), 0.0)
        return (
            "alternative",
            alternative.strategy_names,
            alternative.alternative,
            alternative.distance,
        )

    def release(self, request_id):
        self._used = max(self._used - self._reserved.pop(request_id), 0.0)


def _resolution_key(resolution):
    return (
        resolution.request_id,
        resolution.status,
        resolution.strategy_names,
        resolution.params,
        resolution.distance,
    )


@settings(max_examples=80, deadline=None)
@given(engine_instances())
def test_engine_resolutions_match_legacy_aggregator(instance):
    ensemble, requests, availability, objective, mode, aggregation = instance
    legacy_batch, legacy_resolutions = legacy_aggregator_process(
        ensemble, availability, objective, aggregation, mode, requests
    )
    engine = RecommendationEngine(
        ensemble,
        availability,
        objective=objective,
        aggregation=aggregation,
        workforce_mode=mode,
    )
    for attempt in ("cold", "warm"):
        report = engine.resolve(requests)
        assert report.batch.objective_value == legacy_batch.objective_value, attempt
        assert report.batch.workforce_used == legacy_batch.workforce_used, attempt
        assert [r.request_id for r in report.batch.satisfied] == [
            r.request_id for r in legacy_batch.satisfied
        ], attempt
        assert list(map(_resolution_key, report.resolutions)) == list(
            map(_resolution_key, legacy_resolutions)
        ), attempt


@settings(max_examples=60, deadline=None)
@given(engine_instances(), st.lists(st.booleans(), min_size=0, max_size=8))
def test_engine_session_matches_legacy_streaming(instance, release_plan):
    """Random submit/release schedules produce identical stream decisions."""
    ensemble, requests, availability, _objective, mode, aggregation = instance
    legacy = LegacyStreaming(ensemble, availability, aggregation, mode)
    engine = RecommendationEngine(
        ensemble, availability, aggregation=aggregation, workforce_mode=mode
    )
    session = engine.open_session()
    releases = iter(release_plan + [False] * len(requests))
    for request in requests:
        expected = legacy.submit(request)
        decision = session.submit(request)
        assert decision.status.value == expected[0]
        assert decision.strategy_names == tuple(expected[1])
        if expected[0] == "admitted":
            assert decision.workforce_reserved == expected[2]
            if next(releases):
                legacy.release(request.request_id)
                session.complete(request.request_id)
        elif expected[0] == "alternative":
            assert decision.alternative.alternative == expected[2]
            assert decision.alternative.distance == expected[3]
        assert session.remaining == legacy.remaining


@settings(max_examples=40, deadline=None)
@given(engine_instances())
def test_shared_cache_across_engines_is_transparent(instance):
    """A cache shared by many engines never changes any engine's answers."""
    ensemble, requests, availability, objective, mode, aggregation = instance
    shared = EngineCache()
    reports = []
    for _ in range(2):
        engine = RecommendationEngine(
            ensemble,
            availability,
            objective=objective,
            aggregation=aggregation,
            workforce_mode=mode,
            cache=shared,
        )
        reports.append(engine.resolve(requests))
    first, second = reports
    assert list(map(_resolution_key, first.resolutions)) == list(
        map(_resolution_key, second.resolutions)
    )


@settings(max_examples=40, deadline=None)
@given(engine_instances())
def test_planner_backends_agree_where_theory_says_so(instance):
    """batch-bruteforce >= batch-greedy == throughput optimum (Theorem 2)."""
    ensemble, requests, availability, _objective, mode, aggregation = instance
    engine = RecommendationEngine(
        ensemble, availability, aggregation=aggregation, workforce_mode=mode
    )
    greedy = engine.plan(requests, "throughput")
    brute = engine.plan(requests, "throughput", planner="batch-bruteforce")
    assert greedy.objective_value == brute.objective_value
    baseline = engine.plan(requests, "throughput", planner="baseline-greedy")
    assert baseline.objective_value <= greedy.objective_value + 1e-9


@settings(max_examples=40, deadline=None)
@given(engine_instances(), st.integers(min_value=1, max_value=3))
def test_resolve_many_matches_per_batch_resolve(instance, n_batches):
    """One merged ADPaR pass == resolving every batch alone.

    resolve_many is the vectorized primitive the cross-client request
    coalescer fans concurrent serve calls into, so its reports must be
    identical — object for object — to per-batch resolve on a fresh
    engine (planning per batch, ADPaR merged)."""
    ensemble, requests, availability, objective, mode, aggregation = instance
    batches = [requests[i::n_batches] for i in range(n_batches)]
    merged = RecommendationEngine(
        ensemble,
        availability,
        objective=objective,
        aggregation=aggregation,
        workforce_mode=mode,
    ).resolve_many(batches)
    fresh = RecommendationEngine(
        ensemble,
        availability,
        objective=objective,
        aggregation=aggregation,
        workforce_mode=mode,
    )
    expected = [fresh.resolve(list(batch)) for batch in batches]
    assert merged == expected
