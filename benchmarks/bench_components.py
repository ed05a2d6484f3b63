"""Micro-benchmarks for the performance-critical substrates.

Not tied to a specific paper figure; these guard the constants behind the
Figure 18 claims (vectorized workforce rows, R-tree bulk loading, the 2-D
Pareto sweep inside ADPaR-Exact) and Figure 14's workforce inversion and
aggregation, whose pins are recorded to ``BENCH_workforce.json``.
"""

import math
import statistics
from pathlib import Path

import numpy as np
from bench_recording import paired_rounds, record
from workforce_reference import three_grid_rows_oracle

from repro.core.params import TriParams
from repro.core.request import DeploymentRequest
from repro.core.workforce import WORKFORCE_MODES, WorkforceComputer
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


WORKFORCE_RESULTS = Path(__file__).resolve().parent / "BENCH_workforce.json"
AGGREGATE_FLOOR_X = 1.2
AGGREGATE_ROUNDS = 9
ROWS_FLOOR_X = 1.5
#: Figure 14's shape: |S| = 10,000 strategies and 13 requests, which
#: ``aggregate_all`` hands to ``rows`` in blocks of ``BLOCK_CELLS //
#: (3 |S|)`` = 4 rows (a block's three parameter planes share the budget).
FIG14_STRATEGIES = 10_000
FIG14_ROWS = 13
FIG14_BLOCK = WorkforceComputer.BLOCK_CELLS // (3 * FIG14_STRATEGIES)


def test_bench_rows_10k(benchmark):
    """Figure 14's shape in both workforce modes: the fused ``rows`` pass
    against the three-grid rule it replaced, over the blocks
    ``aggregate_all`` feeds it, median of interleaved rounds.  Both must
    agree bitwise; the pin is the smaller speedup."""
    ensemble = generate_strategy_ensemble(FIG14_STRATEGIES, "uniform", seed=19)
    params = [r.params for r in generate_requests(FIG14_ROWS, k=1, seed=20)]
    blocks = [
        params[start : start + FIG14_BLOCK]
        for start in range(0, len(params), FIG14_BLOCK)
    ]

    def measure():
        timings = {}
        for mode in WORKFORCE_MODES:
            computer = WorkforceComputer(ensemble, mode=mode)

            def fused():
                return [computer.rows(block) for block in blocks]

            def grid():
                return [
                    three_grid_rows_oracle(ensemble, block, mode)
                    for block in blocks
                ]

            same = [g.tobytes() for g in fused()] == [
                g.tobytes() for g in grid()
            ]
            fused_s, grid_s = zip(*paired_rounds(fused, grid, AGGREGATE_ROUNDS))
            timings[mode] = (
                statistics.median(fused_s),
                statistics.median(grid_s),
                same,
            )
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    info = {
        "n_strategies": len(ensemble),
        "rows": FIG14_ROWS,
        "block_rows": FIG14_BLOCK,
    }
    for mode, (fused_s, grid_s, _) in timings.items():
        info[f"rows_{mode}_ms"] = round(fused_s * 1e3, 2)
        info[f"three_grid_{mode}_ms"] = round(grid_s * 1e3, 2)
    speedup = min(grid_s / fused_s for fused_s, grid_s, _ in timings.values())
    info["identical"] = all(same for _, _, same in timings.values())
    info["speedup_x"] = round(speedup, 2)
    info["speedup_floor_x"] = ROWS_FLOOR_X
    benchmark.extra_info.update(info)
    record(WORKFORCE_RESULTS, "rows_10k", info)
    assert info["identical"]
    assert speedup >= ROWS_FLOOR_X, (
        f"rows should beat the three-grid rule by >= {ROWS_FLOOR_X}x at "
        f"|S|=10,000, got {speedup:.2f}x"
    )


def _full_sort_aggregate(computer, requests):
    """The rule ``aggregate_all`` replaced: rows, then a full stable sort.

    Same (requirement, indices, eligible count) triples for the sum case
    over the pool, computed by stable-argsorting every row of the block.
    """
    grid = computer.rows([r.params for r in requests])
    order = np.argsort(grid, axis=1, kind="stable")
    ranked = np.take_along_axis(grid, order, axis=1)
    eligible = (ranked <= 1.0 + 1e-9).sum(axis=1).tolist()
    out = []
    for i, request in enumerate(requests):
        k = request.k
        if k > eligible[i]:
            out.append((math.inf, (), eligible[i]))
        else:
            total = float(ranked[i, :k].sum())
            out.append((total, tuple(order[i, :k].tolist()), eligible[i]))
    return out


def _aggregate_vs_full_sort(computer, requests):
    """Median seconds of each rule over paired rounds, plus identity."""
    got = [
        (n.requirement, n.strategy_indices, n.eligible_count)
        for n in computer.aggregate_all(requests)
    ]
    same = got == _full_sort_aggregate(computer, requests)
    new_s, sort_s = zip(
        *paired_rounds(
            lambda: computer.aggregate_all(requests),
            lambda: _full_sort_aggregate(computer, requests),
            AGGREGATE_ROUNDS,
        )
    )
    return statistics.median(new_s), statistics.median(sort_s), same


def test_bench_aggregate_all_10k(benchmark):
    """Figure 14's shape: |S|=10,000 in strict mode, 13 requests.

    ``aggregate_all`` partitions each row to its k cheapest cells; the
    full stable sort it replaced is timed beside it on the same inputs
    (k = 10, fig14's default, and k = 1,000), and both must agree
    exactly.  The pin is the smaller of the two speedups.
    """
    ensemble = generate_strategy_ensemble(FIG14_STRATEGIES, "uniform", seed=19)
    computer = WorkforceComputer(ensemble, mode="strict", aggregation="sum")
    rows = FIG14_ROWS
    base = generate_requests(rows, k=1, seed=20)

    def measure():
        return {
            k: _aggregate_vs_full_sort(
                computer,
                [DeploymentRequest(r.request_id, r.params, k=k) for r in base],
            )
            for k in (10, 1_000)
        }

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    info = {"n_strategies": len(ensemble), "rows": rows}
    for k, (new_s, sort_s, _) in timings.items():
        info[f"aggregate_all_k{k}_ms"] = round(new_s * 1e3, 2)
        info[f"full_sort_k{k}_ms"] = round(sort_s * 1e3, 2)
    speedup = min(sort_s / new_s for new_s, sort_s, _ in timings.values())
    info["identical"] = all(same for _, _, same in timings.values())
    info["speedup_x"] = round(speedup, 2)
    info["speedup_floor_x"] = AGGREGATE_FLOOR_X
    benchmark.extra_info.update(info)
    record(WORKFORCE_RESULTS, "aggregate_all_10k", info)
    assert info["identical"]
    assert speedup >= AGGREGATE_FLOOR_X, (
        f"aggregate_all should beat the full stable sort by >= "
        f"{AGGREGATE_FLOOR_X}x at |S|=10,000, got {speedup:.2f}x"
    )


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
