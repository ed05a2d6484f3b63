"""Unit tests for streaming admission: an engine session's ledger (online
admission, revocation, deferred retry)."""

import numpy as np
import pytest

from repro.core.params import TriParams
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.core.streaming import StreamStatus
from repro.engine import RecommendationEngine


@pytest.fixture
def modeled():
    alpha = np.array([[0.0, 1.0, 0.0]])
    beta = np.array([[0.9, 0.0, 0.2]])
    return StrategyEnsemble.from_arrays(alpha, beta)


def request(rid, cost=0.4, quality=0.5):
    return DeploymentRequest(rid, TriParams(quality, cost, 0.9), k=1)


class TestAdmission:
    def test_admits_until_budget_exhausted(self, modeled):
        stream = RecommendationEngine(modeled, 1.0).open_session()
        assert stream.submit(request("a", 0.4)).status is StreamStatus.ADMITTED
        assert stream.submit(request("b", 0.4)).status is StreamStatus.ADMITTED
        third = stream.submit(request("c", 0.4))
        assert third.status is StreamStatus.DEFERRED
        assert stream.remaining == pytest.approx(0.2)

    def test_admitted_carries_strategies_and_reservation(self, modeled):
        stream = RecommendationEngine(modeled, 1.0).open_session()
        decision = stream.submit(request("a", 0.4))
        assert decision.strategy_names == ("s1",)
        assert decision.workforce_reserved == pytest.approx(0.4)

    def test_duplicate_active_id_rejected(self, modeled):
        stream = RecommendationEngine(modeled, 1.0).open_session()
        stream.submit(request("a"))
        with pytest.raises(ValueError):
            stream.submit(request("a"))

    def test_oversized_request_gets_alternative(self, modeled):
        # quality 0.95 is beyond the constant 0.9 model: unsatisfiable as
        # stated at any workforce, so ADPaR proposes alternative params.
        stream = RecommendationEngine(modeled, 1.0).open_session()
        decision = stream.submit(request("huge", cost=0.5, quality=0.95))
        assert decision.status is StreamStatus.ALTERNATIVE
        assert decision.alternative is not None
        assert decision.alternative.alternative.quality <= 0.9 + 1e-9

    def test_infeasible_when_k_exceeds_catalog(self, modeled):
        stream = RecommendationEngine(modeled, 1.0).open_session()
        big_k = DeploymentRequest("k9", TriParams(0.5, 0.4, 0.9), k=9)
        assert stream.submit(big_k).status is StreamStatus.INFEASIBLE


class TestLifecycle:
    def test_revoke_releases_workforce(self, modeled):
        stream = RecommendationEngine(modeled, 0.8).open_session()
        stream.submit(request("a", 0.5))
        assert stream.submit(request("b", 0.5)).status is StreamStatus.DEFERRED
        released = stream.revoke("a")
        assert released == pytest.approx(0.5)
        assert stream.submit(request("b2", 0.5)).status is StreamStatus.ADMITTED
        assert stream.revoked_count == 1

    def test_complete_counts_separately(self, modeled):
        stream = RecommendationEngine(modeled, 0.8).open_session()
        stream.submit(request("a", 0.5))
        stream.complete("a")
        assert stream.completed_count == 1
        assert stream.remaining == pytest.approx(0.8)

    def test_release_unknown_id_raises(self, modeled):
        stream = RecommendationEngine(modeled, 0.8).open_session()
        with pytest.raises(KeyError):
            stream.revoke("ghost")

    def test_utilization(self, modeled):
        stream = RecommendationEngine(modeled, 0.8).open_session()
        stream.submit(request("a", 0.4))
        assert stream.utilization() == pytest.approx(0.5)

    def test_active_view_is_a_copy(self, modeled):
        stream = RecommendationEngine(modeled, 0.8).open_session()
        stream.submit(request("a", 0.4))
        view = stream.active
        view.clear()
        assert len(stream.active) == 1


class TestShimPassthroughs:
    """The burst and deferred-queue surface of ``engine.open_session()``."""

    def test_submit_many_matches_loop(self, modeled):
        requests = [request(f"r{i}", 0.3) for i in range(5)]
        loop = RecommendationEngine(modeled, 1.0).open_session()
        expected = [loop.submit(r) for r in requests]
        burst = RecommendationEngine(modeled, 1.0).open_session()
        got = burst.submit_many(requests)
        assert [d.status for d in got] == [d.status for d in expected]
        assert burst.remaining == loop.remaining
        assert burst.admitted_count == loop.admitted_count

    def test_deferred_and_retry_passthrough(self, modeled):
        stream = RecommendationEngine(modeled, 0.8).open_session()
        stream.submit(request("a", 0.5))
        assert stream.submit(request("b", 0.5)).status is StreamStatus.DEFERRED
        assert [r.request_id for r in stream.deferred] == ["b"]
        stream.complete("a")
        decisions = stream.retry_deferred()
        assert [d.status for d in decisions] == [StreamStatus.ADMITTED]
        assert stream.deferred == []


class TestStreamVsBatch:
    def test_stream_in_batch_order_matches_greedy_prefix(self, modeled):
        """Submitting in BatchStrat's sorted order reproduces its prefix."""
        from repro.core.batchstrat import BatchStrat

        rng = np.random.default_rng(3)
        requests = [
            request(f"r{i}", round(float(rng.uniform(0.05, 0.6)), 3))
            for i in range(8)
        ]
        availability = 0.9
        batch = BatchStrat(modeled, availability).run(requests, "throughput")
        stream = RecommendationEngine(modeled, availability).open_session()
        ordered = sorted(requests, key=lambda r: r.cost)
        admitted = {
            r.request_id
            for r in ordered
            if stream.submit(r).status is StreamStatus.ADMITTED
        }
        assert admitted == batch.satisfied_ids
