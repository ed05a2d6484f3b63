"""Differential tests: the engine's ADPaR paths must match their references.

The seed implementations (``ADPaRExact``, the weighted brute force) are
the oracles, and the engine-served ``adpar-exact`` (scalar and batch
paths) and ``adpar-weighted`` must reproduce them.  For
``adpar-exact`` the pin is *bitwise*: the vectorized sweep prunes
candidates the reference scans, so any deviation in its dominance/
tie-break reasoning shows up here as a float that is close but not
equal.  The last test pins how the two paths meet in the engine cache.

Every registered solver name, these two included, is also pinned to its
oracle by ``test_backend_contract.py``.
"""

import math

import pytest
from admissible_inputs import adpar_batches, params_strategy
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adpar import ADPaRExact
from repro.core.adpar_variants import (
    NORMS,
    RelaxationPenalty,
    weighted_adpar_brute_force,
)
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.engine import RecommendationEngine

weight = st.floats(min_value=0.125, max_value=10.0, allow_nan=False, width=32)


@st.composite
def adpar_instances(draw, max_points=9):
    points = draw(st.lists(params_strategy, min_size=1, max_size=max_points))
    request = draw(params_strategy)
    k = draw(st.integers(min_value=1, max_value=len(points)))
    return points, request, k


def assert_bitwise_equal(got, expected):
    """Field-for-field equality with no tolerance."""
    assert got.distance == expected.distance
    assert got.squared_distance == expected.squared_distance
    assert got.relaxation == expected.relaxation
    assert got.alternative == expected.alternative
    assert got.strategy_indices == expected.strategy_indices
    assert got.strategy_names == expected.strategy_names


@settings(max_examples=150, deadline=None)
@given(adpar_instances())
def test_registry_exact_scalar_bitwise_identical_to_seed(instance):
    """Engine-served ``adpar-exact`` == ``ADPaRExact``, float for float."""
    points, request, k = instance
    ensemble = StrategyEnsemble.from_params(points)
    expected = ADPaRExact(ensemble).solve(request, k)
    engine = RecommendationEngine(ensemble, availability=1.0)
    assert_bitwise_equal(engine.recommend_alternative(request, k), expected)


@settings(max_examples=150, deadline=None)
@given(adpar_batches)
def test_registry_exact_batch_bitwise_identical_to_seed(instance):
    """The batch path returns per-request-identical results."""
    points, specs = instance
    ensemble = StrategyEnsemble.from_params(points)
    requests = [
        DeploymentRequest(f"d{i}", params, k=k)
        for i, (params, k) in enumerate(specs)
    ]
    reference = ADPaRExact(ensemble)
    engine = RecommendationEngine(ensemble, availability=1.0)
    results = engine.recommend_alternatives(requests)
    assert len(results) == len(requests)
    for request, got in zip(requests, results):
        assert_bitwise_equal(got, reference.solve(request))


@settings(max_examples=60, deadline=None)
@given(adpar_instances())
def test_registry_batch_matches_scalar_warm_and_cold(instance):
    """Scalar-then-batch and batch-then-scalar hit the same cache entries."""
    points, request, k = instance
    ensemble = StrategyEnsemble.from_params(points)
    engine = RecommendationEngine(ensemble, availability=1.0)
    scalar = engine.recommend_alternative(request, k)
    [batch] = engine.recommend_alternatives([request], k)
    assert batch is scalar  # second call answered from the shared cache


@pytest.mark.parametrize("norm", NORMS)
@settings(max_examples=40, deadline=None)
@given(adpar_instances(max_points=7), weight, weight, weight)
def test_registry_weighted_matches_brute_force(norm, instance, wc, wq, wl):
    """Every norm × random weights: registry == weighted brute force."""
    points, request, k = instance
    ensemble = StrategyEnsemble.from_params(points)
    weights = (wc, wq, wl)
    engine = RecommendationEngine(
        ensemble,
        availability=1.0,
        solver="adpar-weighted",
        solver_options={"norm": norm, "weights": weights},
    )
    got = engine.recommend_alternative(request, k)
    brute = weighted_adpar_brute_force(
        ensemble,
        request,
        k,
        penalty=RelaxationPenalty(weights=weights, norm=norm),
    )
    assert math.isclose(got.distance, brute.distance, abs_tol=1e-9)
    covered = sum(1 for p in points if got.alternative.satisfied_by(p))
    assert covered >= k
