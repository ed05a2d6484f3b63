"""Benches for the extension features (DESIGN.md §7).

* DP vs greedy vs brute force on pay-off: solution quality and runtime.
* Weighted ADPaR across norms: runtime of the generalized sweep.
* Streaming session: sustained submit/complete throughput.
"""

import numpy as np

from repro.baselines.batch_bruteforce import batch_brute_force
from repro.core.adpar_variants import RelaxationPenalty, WeightedADPaR
from repro.core.batchstrat import BatchStrat
from repro.core.params import TriParams
from repro.core.payoff_dp import payoff_dynamic_program
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.core.streaming import StreamStatus
from repro.engine import RecommendationEngine
from repro.utils.tables import format_table
from repro.workloads.generators import (
    generate_adpar_points,
    generate_requests,
    generate_strategy_ensemble,
    hard_request_for,
)


def _knapsack_world(m, seed):
    alpha = np.array([[0.0, 1.0, 0.0]])
    beta = np.array([[0.9, 0.0, 0.2]])
    ensemble = StrategyEnsemble.from_arrays(alpha, beta)
    rng = np.random.default_rng(seed)
    requests = [
        DeploymentRequest(
            f"r{i}", TriParams(0.5, float(rng.uniform(0.05, 0.9)), 0.9), k=1
        )
        for i in range(m)
    ]
    return ensemble, requests


def test_bench_payoff_dp_quality(once, benchmark):
    """DP closes whatever gap greedy leaves and matches brute force."""

    def run():
        rows = []
        for seed in range(6):
            ensemble, requests = _knapsack_world(12, seed)
            greedy = BatchStrat(ensemble, 0.7).run(requests, "payoff")
            dp = payoff_dynamic_program(ensemble, requests, 0.7, resolution=20_000)
            brute = batch_brute_force(ensemble, requests, 0.7, "payoff")
            rows.append(
                [seed, greedy.objective_value, dp.objective_value, brute.objective_value]
            )
        return rows

    rows = once(run)
    for _, greedy, dp, brute in rows:
        assert dp >= greedy - 1e-6
        assert abs(dp - brute) < 1e-3
    print()
    print(
        format_table(
            ["seed", "greedy", "DP", "brute force"],
            rows,
            title="Pay-off: greedy vs pseudo-polynomial DP vs exhaustive",
        )
    )


def test_bench_payoff_dp_runtime_m200(benchmark):
    """DP stays fast where brute force is unthinkable (m=200)."""
    ensemble, requests = _knapsack_world(200, seed=9)
    outcome = benchmark.pedantic(
        payoff_dynamic_program,
        args=(ensemble, requests, 0.7),
        kwargs={"resolution": 4096},
        rounds=3,
        iterations=1,
    )
    assert outcome.objective_value > 0


def test_bench_weighted_adpar_norms(once, benchmark):
    """Generalized sweep runtime/answers across norms at |S|=2000."""
    points = generate_adpar_points(2000, seed=31)
    request = hard_request_for(points, seed=32)
    ensemble = StrategyEnsemble.from_params(points)

    def run():
        rows = []
        for norm in ("l1", "l2", "linf"):
            solver = WeightedADPaR(ensemble, RelaxationPenalty(norm=norm))
            result = solver.solve(request, 5)
            rows.append([norm, result.distance, str(result.alternative.as_tuple())])
        return rows

    rows = once(run)
    assert len(rows) == 3
    print()
    print(
        format_table(
            ["norm", "penalty", "alternative (q, c, l)"],
            rows,
            title="Weighted ADPaR across norms (|S|=2000, k=5)",
        )
    )


def test_bench_streaming_throughput(benchmark):
    """Sustained submit+complete cycles against a 5000-strategy catalog."""
    ensemble = generate_strategy_ensemble(5000, "uniform", seed=41)
    requests = generate_requests(200, k=3, seed=42)

    def churn():
        stream = RecommendationEngine(
            ensemble, 0.6, aggregation="max", workforce_mode="strict"
        ).open_session()
        admitted = 0
        for request in requests:
            decision = stream.submit(request)
            if decision.status is StreamStatus.ADMITTED:
                admitted += 1
                stream.complete(request.request_id)
        return admitted

    admitted = benchmark.pedantic(churn, rounds=3, iterations=1)
    assert admitted > 0
