"""Failure-injection and degenerate-input integration tests.

The middle layer must degrade gracefully: empty platforms, zero
availability, batches where nothing fits, one-strategy catalogs, and
maximally chaotic collaboration.
"""

import numpy as np
import pytest

from repro.core.aggregator import ResolutionStatus
from repro.core.batchstrat import BatchStrat
from repro.core.params import TriParams
from repro.core.request import DeploymentRequest, make_requests
from repro.core.strategy import StrategyEnsemble
from repro.core.streaming import StreamStatus
from repro.engine import RecommendationEngine
from repro.execution.editwar import CollaborationDynamics
from repro.execution.engine import ExecutionEngine
from repro.execution.tasks import make_translation_tasks
from repro.modeling.availability import AvailabilityDistribution
from repro.platform.pool import WorkerPool
from repro.platform.simulator import PAPER_WINDOWS, PlatformSimulator


class TestZeroAvailability:
    def test_batchstrat_at_zero_w_serves_only_free_requests(self, table1_ensemble):
        requests = make_requests([(0.5, 0.9, 0.9), (0.95, 0.1, 0.1)], k=1)
        outcome = BatchStrat(table1_ensemble, 0.0).run(requests, "throughput")
        # Constant strategies need zero workforce: the satisfiable request
        # is served even at W=0; the impossible one is infeasible.
        assert outcome.satisfied_ids == {"d1"}
        assert len(outcome.infeasible) == 1

    def test_streaming_at_zero_budget(self):
        alpha = np.array([[0.0, 1.0, 0.0]])
        beta = np.array([[0.9, 0.0, 0.2]])
        ensemble = StrategyEnsemble.from_arrays(alpha, beta)
        stream = RecommendationEngine(ensemble, 0.0).open_session()
        decision = stream.submit(
            DeploymentRequest("a", TriParams(0.5, 0.4, 0.9), k=1)
        )
        assert decision.status in (StreamStatus.DEFERRED, StreamStatus.ALTERNATIVE)
        assert stream.utilization() == 0.0


class TestAllInfeasibleBatch:
    def test_aggregator_routes_everything_to_adpar(self, table1_ensemble):
        requests = make_requests(
            [(0.99, 0.01, 0.01), (0.95, 0.05, 0.05)], k=2
        )
        report = RecommendationEngine(table1_ensemble, 0.8).resolve(requests)
        assert report.satisfied_count == 0
        assert report.alternative_count == 2
        for resolution in report.resolutions:
            assert resolution.status is ResolutionStatus.ALTERNATIVE
            assert resolution.distance > 0

    def test_satisfaction_rate_zero(self, table1_ensemble):
        requests = make_requests([(0.99, 0.01, 0.01)], k=2)
        outcome = BatchStrat(table1_ensemble, 0.8).run(requests, "throughput")
        assert outcome.satisfaction_rate == 0.0


class TestDegenerateCatalogs:
    def test_single_strategy_catalog(self):
        ensemble = StrategyEnsemble.from_params([TriParams(0.7, 0.3, 0.3)])
        requests = make_requests([(0.6, 0.5, 0.5)], k=1)
        outcome = BatchStrat(ensemble, 0.5).run(requests, "throughput")
        assert outcome.objective_value == 1.0

    def test_identical_strategies_catalog(self):
        point = TriParams(0.7, 0.3, 0.3)
        ensemble = StrategyEnsemble.from_params([point] * 5)
        requests = make_requests([(0.6, 0.5, 0.5)], k=5)
        outcome = BatchStrat(ensemble, 0.5).run(requests, "throughput")
        assert outcome.objective_value == 1.0

    def test_point_availability_distribution(self, table1_ensemble):
        dist = AvailabilityDistribution.point(0.0)
        engine = RecommendationEngine(table1_ensemble, dist)
        report = engine.resolve(make_requests([(0.5, 0.9, 0.9)], k=1))
        # Constant models are availability-independent; still resolvable.
        assert report.resolutions[0].status is not None


class TestChaoticCollaboration:
    def test_maximal_conflict_rate_still_bounded(self, rng):
        from repro.execution.document import SharedDocument

        dynamics = CollaborationDynamics(
            unguided_conflict_rate=0.9, unguided_extra_edit_factor=3.0
        )
        contributions = [(f"w{i}", i % 2, 0.2) for i in range(20)]
        doc = SharedDocument(segments=2, base_quality=0.3)
        penalty = dynamics.run_session(doc, contributions, guided=False, rng=rng)
        assert 0.0 <= doc.quality() <= 1.0
        assert penalty >= 0.0
        assert doc.overridden_count <= doc.edit_count

    def test_engine_quality_clipped_under_extreme_penalty(self):
        engine = ExecutionEngine(
            dynamics=CollaborationDynamics(
                unguided_conflict_rate=0.9,
                conflict_quality_penalty=0.5,
                unguided_extra_edit_factor=3.0,
            )
        )
        task = make_translation_tasks(1, seed=0)[0]
        outcome = engine.run("SIM-COL-CRO", task, 0.9, guided=False, seed=1)
        assert 0.0 <= outcome.quality <= 1.0


class TestEmptyPlatform:
    def test_simulation_with_unskilled_pool(self):
        from repro.platform.worker import Worker

        # Nobody speaks the language: recruitment yields nothing.
        workers = [
            Worker(
                worker_id=f"w{i}",
                skills=frozenset({"creation"}),
                skill_level=0.9,
                speed=1.0,
                approval_rate=0.99,
            )
            for i in range(20)
        ]
        simulator = PlatformSimulator(WorkerPool(workers), seed=3)
        obs = simulator.run_window(PAPER_WINDOWS[0], "translation")
        assert obs.availability == 0.0
        assert obs.engaged == 0
