"""Property-based tests for the extension features: the weighted ADPaR
solver against its brute force, and the pay-off DP never below the
greedy, never over capacity.

The DP's match to the exhaustive optimum is the ``payoff-dp`` entry of
``test_backend_contract.py``, which also pins the registry-served
``adpar-weighted`` to the same brute force.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adpar_variants import (
    RelaxationPenalty,
    WeightedADPaR,
    weighted_adpar_brute_force,
)
from repro.core.batchstrat import BatchStrat
from repro.core.params import TriParams
from repro.core.payoff_dp import payoff_dynamic_program
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)
params_strategy = st.builds(TriParams, quality=unit, cost=unit, latency=unit)
weight = st.floats(min_value=0.125, max_value=10.0, allow_nan=False, width=32)


@st.composite
def weighted_adpar_instances(draw):
    points = draw(st.lists(params_strategy, min_size=1, max_size=8))
    request = draw(params_strategy)
    k = draw(st.integers(min_value=1, max_value=len(points)))
    penalty = RelaxationPenalty(
        weights=(draw(weight), draw(weight), draw(weight)),
        norm=draw(st.sampled_from(["l1", "l2", "linf"])),
    )
    return points, request, k, penalty


@settings(max_examples=120, deadline=None)
@given(weighted_adpar_instances())
def test_weighted_adpar_matches_brute_force(instance):
    points, request, k, penalty = instance
    ensemble = StrategyEnsemble.from_params(points)
    fast = WeightedADPaR(ensemble, penalty).solve(request, k)
    brute = weighted_adpar_brute_force(ensemble, request, k, penalty=penalty)
    assert math.isclose(fast.distance, brute.distance, abs_tol=1e-9)


@settings(max_examples=80, deadline=None)
@given(weighted_adpar_instances())
def test_weighted_adpar_coverage(instance):
    points, request, k, penalty = instance
    ensemble = StrategyEnsemble.from_params(points)
    result = WeightedADPaR(ensemble, penalty).solve(request, k)
    covered = sum(1 for p in points if result.alternative.satisfied_by(p))
    assert covered >= k


@st.composite
def dp_instances(draw):
    n_strategies = draw(st.integers(min_value=1, max_value=3))
    alpha = np.zeros((n_strategies, 3))
    beta = np.zeros((n_strategies, 3))
    for j in range(n_strategies):
        alpha[j] = [0.0, 1.0, 0.0]
        beta[j] = [draw(unit), 0.0, draw(unit)]
    ensemble = StrategyEnsemble.from_arrays(alpha, beta)
    m = draw(st.integers(min_value=1, max_value=7))
    requests = [
        DeploymentRequest(
            f"d{i}", TriParams(draw(unit), draw(unit), draw(unit)), k=1
        )
        for i in range(m)
    ]
    availability = draw(unit)
    return ensemble, requests, availability


@settings(max_examples=80, deadline=None)
@given(dp_instances())
def test_dp_never_below_greedy_and_feasible(instance):
    ensemble, requests, availability = instance
    dp = payoff_dynamic_program(
        ensemble, requests, availability, resolution=50_000
    )
    greedy = BatchStrat(ensemble, availability).run(requests, "payoff")
    assert dp.objective_value >= greedy.objective_value - 1e-6
    assert dp.workforce_used <= availability + 1e-9
