"""Unit tests for the recommendation engine layer: registry, cache, session."""

import pytest

from repro.api import (
    API_VERSION,
    EngineService,
    EngineSpec,
    EnsembleRef,
    encode,
)
from repro.core.aggregator import ResolutionStatus
from repro.core.batchstrat import BatchOutcome
from repro.core.params import TriParams
from repro.core.request import DeploymentRequest, make_requests
from repro.core.streaming import StreamStatus
from repro.engine import (
    EngineCache,
    PlannerContext,
    PlannerRegistry,
    RecommendationEngine,
    SolverRegistry,
    default_registry,
    ensemble_fingerprint,
)
from repro.core.strategy import StrategyEnsemble
from repro.exceptions import InfeasibleRequestError, UnknownPlannerError


REFUSAL = "sweep found no covering relaxation"


def _refusing_registry() -> SolverRegistry:
    """A solver registry whose ``refuses`` backend rejects every request."""

    class Refuses:
        name = "refuses"
        solves = 0  # every request this backend was asked to solve

        def __init__(self, context, options):
            self.space = context.space

        def solve(self, request, k=None):
            Refuses.solves += 1
            raise InfeasibleRequestError(REFUSAL)

        def solve_batch(self, requests, k=None):
            return [self.solve(r, k) for r in requests]

    registry = SolverRegistry()
    registry.register("refuses", Refuses)
    return registry


@pytest.fixture
def engine(table1_ensemble):
    return RecommendationEngine(table1_ensemble, availability=0.8)


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = default_registry().names()
        for expected in (
            "batch-greedy",
            "payoff-dp",
            "baseline-greedy",
            "batch-bruteforce",
        ):
            assert expected in names

    def test_unknown_backend_raises_typed_error(self, table1_ensemble):
        context = PlannerContext(ensemble=table1_ensemble, availability=0.8)
        with pytest.raises(UnknownPlannerError, match="quantum-annealer"):
            default_registry().create("quantum-annealer", context)

    def test_unknown_backend_at_engine_construction(self, table1_ensemble):
        with pytest.raises(UnknownPlannerError):
            RecommendationEngine(table1_ensemble, 0.8, planner="nope")

    def test_duplicate_registration_rejected_unless_replace(self):
        registry = PlannerRegistry()
        registry.register("custom", lambda ctx, opts: None, "first")
        with pytest.raises(ValueError):
            registry.register("custom", lambda ctx, opts: None, "second")
        registry.register("custom", lambda ctx, opts: None, "second", replace=True)
        assert registry.describe("custom") == "second"

    def test_describe_unknown_raises(self):
        with pytest.raises(UnknownPlannerError):
            PlannerRegistry().describe("ghost")

    def test_custom_backend_usable_by_engine(self, table1_ensemble, table1_requests):
        class RejectEverything:
            name = "reject-all"

            def __init__(self, context, options):
                self._context = context

            def plan(self, requests, objective="throughput"):
                return BatchOutcome(
                    objective="throughput",
                    objective_value=0.0,
                    workforce_available=self._context.availability,
                    workforce_used=0.0,
                    satisfied=(),
                    unsatisfied=tuple(requests),
                )

        registry = PlannerRegistry()
        registry.register("reject-all", RejectEverything)
        engine = RecommendationEngine(
            table1_ensemble, 0.8, planner="reject-all", registry=registry
        )
        report = engine.resolve(table1_requests)
        assert report.satisfied_count == 0
        # Everything routed to ADPaR instead.
        assert all(
            r.status in (ResolutionStatus.ALTERNATIVE, ResolutionStatus.INFEASIBLE)
            for r in report.resolutions
        )


class TestCache:
    def test_warm_resolve_hits_cache(self, engine, table1_requests):
        engine.resolve(table1_requests)
        cold = engine.stats
        assert cold.workforce_misses == len(table1_requests)
        assert cold.workforce_hits == 0
        engine.resolve(table1_requests)
        assert engine.stats.workforce_hits == len(table1_requests)
        assert engine.stats.adpar_hits == engine.stats.adpar_misses
        assert 0.0 < engine.stats.hit_rate() <= 1.0

    def test_duplicate_params_within_batch_computed_once(self, table1_ensemble):
        engine = RecommendationEngine(table1_ensemble, 0.8)
        params = TriParams(0.7, 0.83, 0.28)
        requests = [
            DeploymentRequest(f"d{i}", params, k=3) for i in range(5)
        ]
        report = engine.resolve(requests)
        statuses = {r.status for r in report.resolutions}
        assert len(statuses) == 1  # identical params -> identical answers
        resolved_ids = [r.request_id for r in report.resolutions]
        assert resolved_ids == [f"d{i}" for i in range(5)]

    def test_fingerprint_shared_across_equal_ensembles(self, table1_strategies):
        first = StrategyEnsemble.from_params(table1_strategies)
        second = StrategyEnsemble.from_params(table1_strategies)
        assert first is not second
        assert ensemble_fingerprint(first) == ensemble_fingerprint(second)

    def test_fingerprint_distinguishes_different_models(self, table1_strategies):
        first = StrategyEnsemble.from_params(table1_strategies)
        second = StrategyEnsemble.from_params(list(reversed(table1_strategies)))
        assert ensemble_fingerprint(first) != ensemble_fingerprint(second)

    def test_lru_eviction_bounds_entries(self, table1_ensemble):
        cache = EngineCache(max_workforce_entries=4)
        engine = RecommendationEngine(table1_ensemble, 0.8, cache=cache)
        requests = make_requests(
            [(0.1 * i, 0.5, 0.5) for i in range(1, 9)], k=1
        )
        engine.plan(requests)
        assert len(cache) <= 4


class TestEngineAPI:
    def test_recommend_alternative_accepts_bare_params(self, engine):
        result = engine.recommend_alternative(TriParams(0.9, 0.1, 0.1), k=2)
        assert len(result.strategy_names) == 2

    def test_recommend_alternative_requires_k_for_bare_params(self, engine):
        with pytest.raises(ValueError):
            engine.recommend_alternative(TriParams(0.9, 0.1, 0.1))

    def test_infeasible_verdict_reads_the_same_from_the_cache(self):
        """A cached infeasible verdict answers the miss's words, scalar
        and batch alike."""
        ensemble = StrategyEnsemble.from_params(
            [TriParams(0.8, 0.2, 0.2), TriParams(0.6, 0.4, 0.4)]
        )
        engine = RecommendationEngine(ensemble, 0.8)
        request = DeploymentRequest("d", TriParams(0.9, 0.1, 0.1), k=5)
        message = "cannot admit k=5 strategies: only 2 exist"
        for _ in range(2):
            with pytest.raises(InfeasibleRequestError) as scalar:
                engine.recommend_alternative(request)
            assert str(scalar.value) == message
            with pytest.raises(InfeasibleRequestError) as batch:
                engine.recommend_alternatives([request])
            assert str(batch.value) == message
        assert engine.stats.adpar_hits == 3

    def test_cached_infeasible_verdict_keeps_the_backends_words(
        self, table1_ensemble
    ):
        """A backend's own refusal (k <= |S|) is cached with its text,
        whether the scalar or the batch door decided it."""
        engine = RecommendationEngine(
            table1_ensemble,
            0.8,
            solver="refuses",
            solver_registry=_refusing_registry(),
        )
        scalar = DeploymentRequest("a", TriParams(0.9, 0.1, 0.1), k=2)
        batched = DeploymentRequest("b", TriParams(0.95, 0.1, 0.1), k=2)
        (resolution,) = engine.resolve([batched]).resolutions
        assert resolution.status is ResolutionStatus.INFEASIBLE
        for request in (scalar, scalar, batched):
            with pytest.raises(InfeasibleRequestError) as caught:
                engine.recommend_alternative(request)
            assert str(caught.value) == REFUSAL
        assert engine.stats.adpar_hits == 2

    def test_batch_doors_raise_the_backends_words(self, table1_ensemble):
        """The batch door and the service's ``alternatives`` envelope
        report a backend's refusal in its words, as the scalar door
        does, not as ``k > |S|``."""
        registry = _refusing_registry()
        engine = RecommendationEngine(
            table1_ensemble, 0.5, solver="refuses", solver_registry=registry
        )
        request = DeploymentRequest("a", TriParams(0.9, 0.1, 0.1), k=2)
        for door in (
            engine.recommend_alternative,
            lambda r: engine.recommend_alternatives([r]),
        ):
            for _ in range(2):  # the miss, then the cached verdict
                with pytest.raises(InfeasibleRequestError) as caught:
                    door(request)
                assert str(caught.value) == REFUSAL
        service = EngineService(solver_registry=registry)
        answer = service.handle_dict(
            {
                "api_version": API_VERSION,
                "type": "alternatives",
                "ensemble": encode(EnsembleRef.of(table1_ensemble)),
                "spec": encode(EngineSpec(availability=0.5, solver="refuses")),
                "requests": [
                    {
                        "request_id": "a",
                        "params": {"quality": 0.9, "cost": 0.1, "latency": 0.1},
                        "k": 2,
                    }
                ],
            }
        )
        assert (answer["code"], answer["message"]) == (
            "infeasible_request",
            REFUSAL,
        )

    def test_a_lone_refused_request_is_solved_once(self, table1_ensemble):
        """A one-request batch takes the backend's refusal as its
        verdict instead of solving the request a second time."""
        registry = _refusing_registry()
        engine = RecommendationEngine(
            table1_ensemble, 0.8, solver="refuses", solver_registry=registry
        )
        refuses = registry.get("refuses")
        for i, door in enumerate(
            (
                engine.recommend_alternative,
                lambda r: engine.recommend_alternatives([r]),
            )
        ):
            request = DeploymentRequest("a", TriParams(0.9, 0.1 * (i + 1), 0.1), k=2)
            with pytest.raises(InfeasibleRequestError, match=REFUSAL):
                door(request)
            assert refuses.solves == i + 1
        session = engine.open_session()
        decision = session.submit(
            DeploymentRequest("s", TriParams(0.99, 0.01, 0.01), k=2)
        )
        assert decision.status is StreamStatus.INFEASIBLE
        assert refuses.solves == 3

    def test_duplicate_request_ids_rejected(self, engine):
        request = DeploymentRequest("dup", TriParams(0.5, 0.5, 0.5), k=1)
        with pytest.raises(ValueError):
            engine.resolve([request, request])

    def test_planner_options_reach_overridden_backends(self, table1_ensemble, table1_requests):
        engine = RecommendationEngine(
            table1_ensemble, 0.8, planner_options={"resolution": 7}
        )
        engine.plan(table1_requests, "payoff", planner="payoff-dp")
        assert engine._planners["payoff-dp"]._resolution == 7

    def test_stratrec_sees_model_bank_updates(self):
        from repro.core.stratrec import StratRec
        from repro.experiments.fig13_effectiveness import build_model_bank
        from repro.modeling.availability import AvailabilityDistribution
        from repro.modeling.linear import LinearModel
        from repro.modeling.modelbank import ParamModels

        bank = build_model_bank(("translation",))
        stratrec = StratRec(bank, AvailabilityDistribution.point(0.7))
        first = stratrec.engine_for("translation")
        assert stratrec.engine_for("translation") is first  # unchanged bank
        bank.register(
            "translation",
            "SEQ-IND-CRO",
            ParamModels(
                quality=LinearModel(0.0, 0.99),
                cost=LinearModel(0.0, 0.01),
                latency=LinearModel(0.0, 0.01),
            ),
        )
        second = stratrec.engine_for("translation")
        assert second is not first  # re-calibration yields a fresh engine

    def test_plan_with_planner_override_shares_cache(self, engine, table1_requests):
        engine.plan(table1_requests)
        misses = engine.stats.workforce_misses
        engine.plan(table1_requests, planner="baseline-greedy")
        assert engine.stats.workforce_misses == misses  # second backend: all hits
        assert engine.stats.workforce_hits >= len(table1_requests)


class TestSession:
    @pytest.fixture
    def small_engine(self):
        import numpy as np

        alpha = np.array([[0.0, 1.0, 0.0]])
        beta = np.array([[0.9, 0.0, 0.2]])
        ensemble = StrategyEnsemble.from_arrays(alpha, beta)
        return RecommendationEngine(ensemble, availability=1.0)

    @staticmethod
    def request(rid, cost=0.4, quality=0.5):
        return DeploymentRequest(rid, TriParams(quality, cost, 0.9), k=1)

    def test_deferred_requests_retry_after_release(self, small_engine):
        session = small_engine.open_session()
        assert session.submit(self.request("a", 0.6)).status is StreamStatus.ADMITTED
        deferred = session.submit(self.request("b", 0.6))
        assert deferred.status is StreamStatus.DEFERRED
        assert [r.request_id for r in session.deferred] == ["b"]
        # Nothing freed yet: the min-requirement early exit skips the
        # drain outright and the queue is untouched.
        assert session.retry_deferred() == []
        assert [r.request_id for r in session.deferred] == ["b"]
        session.complete("a")
        decisions = session.retry_deferred()
        assert [d.status for d in decisions] == [StreamStatus.ADMITTED]
        assert session.deferred == []
        assert session.admitted_count == 2

    def test_resubmitting_deferred_request_replaces_queue_entry(self, small_engine):
        session = small_engine.open_session()
        session.submit(self.request("a", 0.6))
        assert session.submit(self.request("b", 0.6)).status is StreamStatus.DEFERRED
        revised = self.request("b", 0.5)
        assert session.submit(revised).status is StreamStatus.DEFERRED
        assert [r.params for r in session.deferred] == [revised.params]

    def test_revoke_returns_workforce(self, small_engine):
        session = small_engine.open_session()
        session.submit(self.request("a", 0.4))
        released = session.revoke("a")
        assert released == pytest.approx(0.4)
        assert session.revoked_count == 1
        assert session.remaining == pytest.approx(1.0)

    def test_release_unknown_id_raises(self, small_engine):
        session = small_engine.open_session()
        with pytest.raises(KeyError):
            session.complete("ghost")

    def test_sessions_share_engine_cache(self, small_engine):
        first = small_engine.open_session()
        first.submit(self.request("a"))
        misses = small_engine.stats.workforce_misses
        second = small_engine.open_session()
        second.submit(self.request("a"))
        assert small_engine.stats.workforce_misses == misses

    def test_retry_uses_carried_aggregate(self, small_engine):
        """A retry is pure ledger arithmetic: no model inversion at all."""
        session = small_engine.open_session()
        session.submit(self.request("a", 0.6))
        session.submit(self.request("b", 0.6))
        assert [e.need.requirement for e in session.deferred_entries] == [
            pytest.approx(0.6)
        ]

        session._computer = None  # any aggregate call would explode
        session.complete("a")
        decisions = session.retry_deferred()
        assert [d.status for d in decisions] == [StreamStatus.ADMITTED]
        assert decisions[0].workforce_reserved == pytest.approx(0.6)

    def test_retry_early_exit_is_a_no_op(self, small_engine):
        session = small_engine.open_session()
        session.submit(self.request("a", 0.6))
        session.submit(self.request("b", 0.5))
        session.submit(self.request("c", 0.6))
        before = [r.request_id for r in session.deferred]
        session._computer = None  # early exit must not touch the model either
        assert session.retry_deferred() == []
        assert [r.request_id for r in session.deferred] == before

    def test_stale_params_resubmit_recomputes_aggregate(self, small_engine):
        session = small_engine.open_session()
        session.submit(self.request("a", 0.6))
        assert session.submit(self.request("b", 0.7)).status is StreamStatus.DEFERRED
        # Revised params replace the queue entry *and* its aggregate.
        assert session.submit(self.request("b", 0.3)).status is StreamStatus.ADMITTED
        assert session.deferred == []
        assert session.active["b"].workforce_reserved == pytest.approx(0.3)

    def test_submit_many_empty_burst(self, small_engine):
        assert small_engine.open_session().submit_many([]) == []

    def test_submit_many_counts_and_statuses_match_loop(self, small_engine):
        requests = [
            self.request("a", 0.4),
            self.request("b", 0.5),
            self.request("c", 0.4),  # exceeds remaining -> deferred
            self.request("huge", cost=0.5, quality=0.95),  # ADPaR fallback
            DeploymentRequest("k9", TriParams(0.5, 0.4, 0.9), k=9),  # infeasible
        ]
        loop = small_engine.open_session()
        expected = [loop.submit(r) for r in requests]
        batch = small_engine.open_session()
        got = batch.submit_many(requests)
        assert [d.status for d in got] == [d.status for d in expected]
        assert batch.admitted_count == loop.admitted_count == 2
        assert [r.request_id for r in batch.deferred] == ["c"]

    def test_submit_many_duplicate_active_id_raises_mid_burst(self, small_engine):
        session = small_engine.open_session()
        with pytest.raises(ValueError, match="already active"):
            session.submit_many(
                [self.request("a", 0.3), self.request("b", 0.3), self.request("a", 0.2)]
            )
        # The walk is sequential: everything before the duplicate stuck.
        assert sorted(session.active) == ["a", "b"]
