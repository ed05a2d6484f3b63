"""Unit tests for synthetic workload generators and scenarios."""

import numpy as np
import pytest

from repro.workloads.generators import (
    generate_adpar_points,
    generate_requests,
    generate_strategy_ensemble,
    hard_request_for,
)
from repro.workloads.registry import default_scenario_registry


class TestStrategyGenerator:
    def test_deterministic(self):
        a = generate_strategy_ensemble(50, "uniform", seed=1)
        b = generate_strategy_ensemble(50, "uniform", seed=1)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        np.testing.assert_array_equal(a.beta, b.beta)

    def test_quality_cost_increase_latency_decreases(self):
        ensemble = generate_strategy_ensemble(100, "uniform", seed=2)
        assert (ensemble.alpha[:, 0] > 0).all()
        assert (ensemble.alpha[:, 1] > 0).all()
        assert (ensemble.alpha[:, 2] < 0).all()

    def test_estimates_stay_in_unit_interval(self):
        ensemble = generate_strategy_ensemble(200, "normal", seed=3)
        for availability in (0.0, 0.5, 1.0):
            matrix = ensemble.estimate_matrix(availability)
            assert (matrix >= 0).all() and (matrix <= 1).all()

    def test_uniform_values_at_full_availability_in_half_one(self):
        ensemble = generate_strategy_ensemble(300, "uniform", seed=4)
        at_full = ensemble.alpha[:, 0] + ensemble.beta[:, 0]  # quality at W=1
        assert (at_full >= 0.5 - 1e-9).all() and (at_full <= 1.0 + 1e-9).all()

    def test_normal_tighter_than_uniform(self):
        uniform = generate_strategy_ensemble(2000, "uniform", seed=5)
        normal = generate_strategy_ensemble(2000, "normal", seed=5)
        u_vals = uniform.alpha[:, 0] + uniform.beta[:, 0]
        n_vals = normal.alpha[:, 0] + normal.beta[:, 0]
        assert n_vals.std() < u_vals.std()

    def test_bad_distribution_rejected(self):
        with pytest.raises(ValueError):
            generate_strategy_ensemble(10, "poisson", seed=6)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_strategy_ensemble(0)


class TestRequestGenerator:
    def test_cost_latency_in_sample_range(self):
        requests = generate_requests(100, seed=7)
        for request in requests:
            assert 0.625 <= request.cost <= 1.0
            assert 0.625 <= request.latency <= 1.0

    def test_quality_offset_applied(self):
        requests = generate_requests(100, seed=8, quality_offset=0.25)
        for request in requests:
            assert 0.375 <= request.quality <= 0.75

    def test_zero_offset_literal_reading(self):
        requests = generate_requests(50, seed=9, quality_offset=0.0)
        assert all(r.quality >= 0.625 for r in requests)

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            generate_requests(5, quality_offset=-0.1)

    def test_k_and_ids(self):
        requests = generate_requests(3, k=7, seed=10)
        assert [r.request_id for r in requests] == ["d1", "d2", "d3"]
        assert all(r.k == 7 for r in requests)


class TestADPaRGenerator:
    def test_points_within_distribution_support(self):
        points = generate_adpar_points(100, "uniform", seed=11)
        for p in points:
            assert 0.5 <= p.quality <= 1.0

    def test_hard_request_is_unsatisfiable(self):
        points = generate_adpar_points(50, "uniform", seed=12)
        request = hard_request_for(points, seed=13)
        assert not any(request.satisfied_by(p) for p in points)


class TestScenarios:
    """The §5.2.2 defaults as registry entries, swept via ``with_``."""

    def test_batch_defaults_match_paper(self):
        spec = default_scenario_registry().get("paper-batch")
        assert (
            spec.ensemble.n_strategies,
            spec.requests.m_requests,
            spec.requests.k,
        ) == (10_000, 10, 10)
        assert spec.engine.availability == 0.5

    def test_brute_force_variant_is_small(self):
        spec = default_scenario_registry().get("paper-batch-small")
        assert spec.ensemble.n_strategies == 30
        assert spec.requests.m_requests == 5

    def test_batch_build_is_deterministic(self):
        spec = default_scenario_registry().create(
            "paper-batch", n_strategies=20, m_requests=4, seed=3
        )
        ens1, req1 = spec.build()
        ens2, req2 = spec.build()
        np.testing.assert_array_equal(ens1.alpha, ens2.alpha)
        assert [r.params.as_tuple() for r in req1] == [
            r.params.as_tuple() for r in req2
        ]

    def test_with_override(self):
        spec = default_scenario_registry().get("paper-batch").with_(k=25)
        assert spec.requests.k == 25
        assert spec.ensemble.n_strategies == 10_000

    def test_adpar_defaults(self):
        registry = default_scenario_registry()
        assert registry.get("paper-adpar").ensemble.n_strategies == 200
        assert registry.get("paper-adpar-small").ensemble.n_strategies == 20

    def test_adpar_build(self):
        ensemble, request = (
            default_scenario_registry()
            .create("paper-adpar", n_strategies=30, seed=4)
            .build()
        )
        assert len(ensemble) == 30
        points = ensemble.estimate_params(1.0)
        assert not any(request.satisfied_by(p) for p in points)
