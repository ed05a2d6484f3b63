"""Bench: the ADPaR solver subsystem — scalar vs batch, per backend.

Three pins:

* ``test_bench_adpar_batch_speedup`` solves the same hard requests
  per-request through the reference :class:`ADPaRExact` (the seed's
  scalar path) and in one :meth:`RecommendationEngine.recommend_alternatives`
  call (the registry's index-pruned batch path), asserts the results are
  identical field-for-field, and pins the batch path at >= 5x faster —
  a regression in the exact sweep or the shared relaxation geometry
  fails the bench.  Figure-18 shape: no request admits ``k`` strategies.
  Recorded to ``BENCH_adpar_solvers.json`` as ``hard_batch``.
* ``test_bench_adpar_admissible_batch`` is the serving shape
  (``resolve-small``: |S|=100, 10 requests, k=3, availability 0.6),
  where every request already admits ``k`` strategies and the batch
  path certifies it without a sweep.  It times
  ``recommend_alternatives`` against a per-request ``_indexed_sweep``
  + ``finalize_result`` loop on the same requests, asserts identical
  results and pins >= 3x, recorded as ``admissible_batch``.
* ``test_bench_adpar_backends`` times every registered backend through
  the engine on one workload, so a pathological slowdown in any backend
  shows up in ``extra_info``.

``check_trajectory.py`` re-asserts both recorded pins.
"""

import statistics
import time
from pathlib import Path

import numpy as np
from bench_recording import record

from repro.core.adpar import ADPaRExact, finalize_result
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.engine import RecommendationEngine, default_solver_registry
from repro.engine.solvers import _indexed_sweep, _SweepScratch
from repro.utils.rng import spawn_rngs
from repro.workloads.generators import (
    generate_adpar_points,
    generate_requests,
    generate_strategy_ensemble,
    hard_request_for,
)

N_STRATEGIES = 4000
N_REQUESTS = 16
K = 5

SPEEDUP_FLOOR = 5.0

BENCH_JSON = Path(__file__).parent / "BENCH_adpar_solvers.json"

#: The ``resolve-small`` shape of ``perfbench/workloads.py``, catalog
#: included: every request there already admits k strategies.
ADMISSIBLE_CATALOG_SEED = (20200614, 100)
ADMISSIBLE_STRATEGIES = 100
ADMISSIBLE_REQUESTS = 10
ADMISSIBLE_K = 3
ADMISSIBLE_AVAILABILITY = 0.6
ADMISSIBLE_ROUNDS = 300
ADMISSIBLE_FLOOR = 3.0


def _workload(n: int, requests: int, seed: int = 43):
    rng_pts, rng_req = spawn_rngs(seed, 2)
    points = generate_adpar_points(n, "uniform", rng_pts)
    ensemble = StrategyEnsemble.from_params(points)
    batch = [
        DeploymentRequest(f"d{i}", hard_request_for(points, rng_req), k=K)
        for i in range(requests)
    ]
    return ensemble, batch


def _scalar_vs_batch() -> tuple[float, float]:
    ensemble, requests = _workload(N_STRATEGIES, N_REQUESTS)

    reference = ADPaRExact(ensemble)
    start = time.perf_counter()
    scalar_results = [reference.solve(request) for request in requests]
    scalar_s = time.perf_counter() - start

    engine = RecommendationEngine(ensemble, availability=1.0)
    start = time.perf_counter()
    batch_results = engine.recommend_alternatives(requests)
    batch_s = time.perf_counter() - start

    for expected, got in zip(scalar_results, batch_results):
        assert got.distance == expected.distance
        assert got.alternative == expected.alternative
        assert got.strategy_indices == expected.strategy_indices
    return scalar_s, batch_s


def test_bench_adpar_batch_speedup(benchmark):
    scalar_s, batch_s = benchmark.pedantic(_scalar_vs_batch, rounds=1, iterations=1)
    speedup = scalar_s / max(batch_s, 1e-9)
    payload = {
        "n_strategies": N_STRATEGIES,
        "n_requests": N_REQUESTS,
        "k": K,
        "scalar_s": round(scalar_s, 4),
        "batch_s": round(batch_s, 4),
        "speedup_x": round(speedup, 2),
        "speedup_floor_x": SPEEDUP_FLOOR,
        "identical": True,
    }
    benchmark.extra_info.update(payload)
    record(BENCH_JSON, "hard_batch", payload)
    assert speedup >= SPEEDUP_FLOOR, (
        f"batch path ({batch_s:.3f}s) should beat per-request ADPaRExact "
        f"({scalar_s:.3f}s) by >= {SPEEDUP_FLOOR}x, got {speedup:.1f}x"
    )


def _admissible_rounds() -> tuple[float, float, float]:
    """Median seconds per batch (sweep loop, batch path), admissible share.

    Each round draws fresh requests, so every engine call misses the
    ADPaR cache, as ``resolve-small`` traffic does; the space and the
    solver instance are warm, as on a serving engine.
    """
    ensemble = generate_strategy_ensemble(
        ADMISSIBLE_STRATEGIES, "uniform", np.random.default_rng(ADMISSIBLE_CATALOG_SEED)
    )
    rng_requests = np.random.default_rng(53)
    engine = RecommendationEngine(ensemble, availability=ADMISSIBLE_AVAILABILITY)
    space = engine.cache.relaxation_space(ensemble, ADMISSIBLE_AVAILABILITY)
    engine.recommend_alternatives(
        generate_requests(ADMISSIBLE_REQUESTS, k=ADMISSIBLE_K, seed=rng_requests)
    )
    scratch = _SweepScratch(space.size)
    loop_s, batch_s = [], []
    unchanged = 0
    for _ in range(ADMISSIBLE_ROUNDS):
        requests = generate_requests(
            ADMISSIBLE_REQUESTS, k=ADMISSIBLE_K, seed=rng_requests
        )
        start = time.perf_counter()
        expected = []
        for request in requests:
            origin = space.origin_of(request.params)
            relax = space.relaxations(origin)
            best = _indexed_sweep(space, relax, origin, request.k, scratch)
            expected.append(
                finalize_result(ensemble, request.params, relax, best, request.k)
            )
        loop_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        got = engine.recommend_alternatives(requests)
        batch_s.append(time.perf_counter() - start)
        assert got == expected
        unchanged += sum(result.unchanged for result in got)
    share = unchanged / (ADMISSIBLE_ROUNDS * ADMISSIBLE_REQUESTS)
    return statistics.median(loop_s), statistics.median(batch_s), share


def test_bench_adpar_admissible_batch(benchmark):
    loop_s, batch_s, share = benchmark.pedantic(
        _admissible_rounds, rounds=1, iterations=1
    )
    speedup = loop_s / max(batch_s, 1e-12)
    per_request_us = 1e6 / ADMISSIBLE_REQUESTS
    payload = {
        "n_strategies": ADMISSIBLE_STRATEGIES,
        "n_requests": ADMISSIBLE_REQUESTS,
        "k": ADMISSIBLE_K,
        "availability": ADMISSIBLE_AVAILABILITY,
        "rounds": ADMISSIBLE_ROUNDS,
        "admissible_frac": round(share, 3),
        "sweep_loop_us_per_request": round(loop_s * per_request_us, 1),
        "batch_us_per_request": round(batch_s * per_request_us, 1),
        "speedup_x": round(speedup, 2),
        "speedup_floor_x": ADMISSIBLE_FLOOR,
        "identical": True,
    }
    benchmark.extra_info.update(payload)
    record(BENCH_JSON, "admissible_batch", payload)
    assert speedup >= ADMISSIBLE_FLOOR, (
        f"certified batch ({payload['batch_us_per_request']} us/request) should "
        f"beat the per-request sweep ({payload['sweep_loop_us_per_request']} "
        f"us/request) by >= {ADMISSIBLE_FLOOR}x, got {speedup:.2f}x"
    )


def _per_backend() -> dict[str, float]:
    # Sized so the exponential bruteforce backend stays in budget.
    ensemble, requests = _workload(18, 4, seed=47)
    timings: dict[str, float] = {}
    for name in default_solver_registry().names():
        engine = RecommendationEngine(ensemble, availability=1.0, solver=name)
        start = time.perf_counter()
        results = engine.recommend_alternatives([r.params for r in requests], 3)
        timings[name] = time.perf_counter() - start
        assert len(results) == len(requests)
        assert all(len(r.strategy_indices) == 3 for r in results)
    return timings


def test_bench_adpar_backends(benchmark):
    timings = benchmark.pedantic(_per_backend, rounds=1, iterations=1)
    for name, seconds in timings.items():
        benchmark.extra_info[f"{name}_s"] = round(seconds, 5)
