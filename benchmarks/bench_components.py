"""Micro-benchmarks for the performance-critical substrates.

Not tied to a specific paper figure; these guard the constants behind the
Figure 18 claims (vectorized workforce rows, R-tree bulk loading, the 2-D
Pareto sweep inside ADPaR-Exact).
"""

import numpy as np

from repro.core.params import TriParams
from repro.core.workforce import WorkforceComputer
from repro.engine import RecommendationEngine, default_registry
from repro.geometry.point import Point3
from repro.geometry.sweepline import ParetoSweep
from repro.index.rtree import RTree
from repro.workloads.generators import generate_requests, generate_strategy_ensemble


def test_bench_workforce_row_100k(benchmark):
    """One request row against 100k strategies (a single numpy pass)."""
    ensemble = generate_strategy_ensemble(100_000, "uniform", seed=11)
    computer = WorkforceComputer(ensemble, mode="strict")
    params = TriParams(0.5, 0.8, 0.8)
    row = benchmark(computer.row, params)
    assert row.shape == (100_000,)


def test_bench_rtree_bulk_load_10k(benchmark):
    rng = np.random.default_rng(12)
    points = [Point3(*p) for p in rng.uniform(0, 1, size=(10_000, 3))]
    tree = benchmark.pedantic(
        RTree.bulk_load, args=(points,), kwargs={"max_entries": 16},
        rounds=3, iterations=1,
    )
    assert len(tree) == 10_000


def test_bench_planner_backend_sweep(benchmark):
    """Every registered planner backend over one small shared batch.

    The sweep reads the registry, so a new backend is measured with no
    edit here.  The batch stays tiny because batch-bruteforce is
    exponential in it.  The engine's workforce cache is shared across
    backends, so this measures planner logic, not model inversion.
    """
    ensemble = generate_strategy_ensemble(400, "uniform", seed=17)
    requests = generate_requests(6, k=2, seed=18)
    engine = RecommendationEngine(ensemble, availability=0.8)

    def sweep():
        return {
            name: engine.plan(requests, planner=name)
            for name in default_registry().names()
        }

    outcomes = benchmark.pedantic(sweep, rounds=3, iterations=1)
    for outcome in outcomes.values():
        assert (
            len(outcome.satisfied)
            + len(outcome.unsatisfied)
            + len(outcome.infeasible)
        ) == 6


def test_bench_pareto_sweep_50k(benchmark):
    rng = np.random.default_rng(13)
    ys = rng.uniform(0, 1, 50_000)
    zs = rng.uniform(0, 1, 50_000)
    sweep = ParetoSweep(ys, zs)
    best = benchmark(sweep.best_bound, 10)
    assert best is not None
