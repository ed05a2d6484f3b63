"""Unit tests for the Aggregator (``RecommendationEngine.resolve``) and
the StratRec facade."""

import pytest

from repro.core.aggregator import ResolutionStatus
from repro.core.params import TriParams
from repro.core.request import DeploymentRequest, make_requests
from repro.core.strategy import StrategyEnsemble
from repro.core.stratrec import StratRec
from repro.engine import RecommendationEngine
from repro.experiments.fig13_effectiveness import build_model_bank
from repro.modeling.availability import AvailabilityDistribution


class TestAggregator:
    def test_running_example_resolutions(self, table1_ensemble, table1_requests):
        report = RecommendationEngine(table1_ensemble, 0.8).resolve(table1_requests)
        assert report.satisfied_count == 1
        assert report.alternative_count == 2
        d3 = report.resolution_for("d3")
        assert d3.status is ResolutionStatus.SATISFIED
        d1 = report.resolution_for("d1")
        assert d1.status is ResolutionStatus.ALTERNATIVE
        assert d1.params.as_tuple() == pytest.approx((0.4, 0.5, 0.28))
        assert d1.distance == pytest.approx(0.33)

    def test_distribution_availability_uses_expectation(self, table1_ensemble, table1_requests):
        dist = AvailabilityDistribution.from_pairs([(0.7, 0.5), (0.9, 0.5)])
        engine = RecommendationEngine(table1_ensemble, dist)
        assert engine.availability == pytest.approx(0.8)

    def test_infeasible_when_k_exceeds_catalog(self, table1_ensemble):
        requests = make_requests([(0.5, 0.5, 0.5)], k=9)
        report = RecommendationEngine(table1_ensemble, 0.8).resolve(requests)
        assert report.resolutions[0].status is ResolutionStatus.INFEASIBLE
        assert report.resolutions[0].strategy_names == ()

    def test_duplicate_request_ids_rejected(self, table1_ensemble):
        req = DeploymentRequest("dup", TriParams(0.5, 0.5, 0.5), k=1)
        with pytest.raises(ValueError):
            RecommendationEngine(table1_ensemble, 0.8).resolve([req, req])

    def test_unknown_resolution_lookup_raises(self, table1_ensemble, table1_requests):
        report = RecommendationEngine(table1_ensemble, 0.8).resolve(table1_requests)
        with pytest.raises(KeyError):
            report.resolution_for("nope")

    def test_alternative_strategies_satisfy_alternative_params(
        self, table1_ensemble, table1_requests
    ):
        report = RecommendationEngine(table1_ensemble, 0.8).resolve(table1_requests)
        params = table1_ensemble.estimate_params(0.8)
        names = table1_ensemble.names
        for resolution in report.resolutions:
            if resolution.status is ResolutionStatus.ALTERNATIVE:
                for name in resolution.strategy_names:
                    strategy = params[names.index(name)]
                    assert resolution.params.satisfied_by(strategy)


class TestStratRec:
    @pytest.fixture
    def stratrec(self):
        bank = build_model_bank(("translation",))
        return StratRec(bank, AvailabilityDistribution.point(0.7))

    def test_ensemble_built_from_bank(self, stratrec):
        ensemble = stratrec.ensemble_for("translation")
        assert len(ensemble) == 8

    def test_unknown_task_type_raises(self, stratrec):
        from repro.exceptions import UnknownStrategyError

        with pytest.raises(UnknownStrategyError):
            stratrec.ensemble_for("origami")

    def test_recommend_strategy_returns_advice(self, stratrec):
        request = DeploymentRequest(
            "r", TriParams(0.7, 0.7, 1.0), k=1, task_type="translation"
        )
        advice = stratrec.recommend_strategy(request)
        assert advice.best_strategy is not None
        assert len(advice.strategy_names) >= 1

    def test_mixed_task_types_rejected(self, stratrec):
        a = DeploymentRequest("a", TriParams(0.5, 0.5, 0.5), task_type="translation")
        b = DeploymentRequest("b", TriParams(0.5, 0.5, 0.5), task_type="creation")
        with pytest.raises(ValueError):
            stratrec.deploy_batch([a, b])

    def test_empty_batch_rejected(self, stratrec):
        with pytest.raises(ValueError):
            stratrec.deploy_batch([])

    def test_per_task_availability_mapping(self):
        bank = build_model_bank(("translation", "creation"))
        stratrec = StratRec(
            bank,
            {
                "translation": AvailabilityDistribution.point(0.9),
                "creation": AvailabilityDistribution.point(0.4),
            },
        )
        assert stratrec.availability_for("translation").expectation() == 0.9
        assert stratrec.availability_for("creation").expectation() == 0.4
