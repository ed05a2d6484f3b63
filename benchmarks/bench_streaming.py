"""Bench: the streaming admission hot path — scalar vs micro-batched.

Two pins on a fig15-scale stream (|S|=30, >= 1000 arrivals), recorded to
``BENCH_streaming.json`` next to this file so the perf trajectory is
tracked across commits:

* ``test_bench_submit_many_speedup`` admits the same arrival stream
  per-request through ``EngineSession.submit`` and in one
  ``EngineSession.submit_many`` call (fresh engines, cold caches on both
  sides), asserts the decisions are identical field-for-field, and pins
  the micro-batched path at >= 5x throughput in the median of several
  rounds — a regression in the broadcasted aggregate pass, the bulk
  cache probes, or the batch ADPaR fallback fails the bench.
* ``test_bench_memoized_resubmit`` replays previously seen request
  shapes through a warm session and pins the memoized path at >= 10x
  over cold per-request aggregation — heavy traffic repeats request
  shapes, so resubmission must skip model inversion entirely.  Cold and
  warm passes alternate over several rounds and the pin reads the median
  per-round ratio, so one slow phase of the host cannot decide it.  The
  cold side inverts Eq. 4 by the per-parameter reference rule
  (``tests/unit/workforce_reference.py``), the inversion the floor was
  set against: a faster inversion kernel makes a cache entry worth less,
  but it must not move this pin's yardstick.
"""

import statistics
from pathlib import Path

from bench_recording import paired_rounds, record
from workforce_reference import three_grid_rows_oracle

from repro.core.workforce import WorkforceComputer
from repro.engine import RecommendationEngine
from repro.utils.rng import spawn_rngs
from repro.workloads.generators import generate_requests, generate_strategy_ensemble

N_STRATEGIES = 30
N_ARRIVALS = 1200
K = 3
AVAILABILITY = 0.95
AGGREGATION = "max"

SUBMIT_MANY_FLOOR = 5.0
MEMOIZED_FLOOR = 10.0
#: Rounds per pin: each pin reads the median of its per-round ratios.
ROUNDS = 7

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_streaming.json"


def _workload(seed: int = 41):
    """A fig15-scale arrival stream: mostly admissible/deferrable, with an
    ADPaR-fallback tail, every request shape distinct (worst case for the
    cache, so the speedup measures vectorization, not memoization)."""
    rng_s, rng_r = spawn_rngs(seed, 2)
    ensemble = generate_strategy_ensemble(N_STRATEGIES, "uniform", rng_s)
    stream = generate_requests(
        N_ARRIVALS, k=K, seed=rng_r, low=0.5, quality_offset=0.45
    )
    return ensemble, stream


class _ReferenceComputer(WorkforceComputer):
    """Cold aggregation whose Eq. 4 inversion is the reference rule."""

    def rows(self, params_list):
        return three_grid_rows_oracle(self.ensemble, params_list, self.mode)


def _session(ensemble):
    return RecommendationEngine(
        ensemble, AVAILABILITY, aggregation=AGGREGATION
    ).open_session()


def _scalar_vs_batch() -> "list[tuple[float, float]]":
    """``(submit_loop_s, submit_many_s)`` per round, each pass on a fresh
    session (cold engine cache), after one untimed check that both paths
    decide alike."""
    ensemble, stream = _workload()

    def submit_loop(session):
        return [session.submit(request) for request in stream]

    scalar_session, batch_session = _session(ensemble), _session(ensemble)
    scalar = submit_loop(scalar_session)
    batched = batch_session.submit_many(stream)
    assert [d.comparison_key() for d in scalar] == [
        d.comparison_key() for d in batched
    ]
    assert batch_session.admitted_count == scalar_session.admitted_count
    assert batch_session.remaining == scalar_session.remaining
    assert [r.request_id for r in batch_session.deferred] == [
        r.request_id for r in scalar_session.deferred
    ]
    return paired_rounds(
        lambda: submit_loop(_session(ensemble)),
        lambda: _session(ensemble).submit_many(stream),
        ROUNDS,
    )


def test_bench_submit_many_speedup(benchmark):
    rounds = benchmark.pedantic(_scalar_vs_batch, rounds=1, iterations=1)
    ratios = [scalar_s / max(batch_s, 1e-9) for scalar_s, batch_s in rounds]
    speedup = statistics.median(ratios)
    info = {
        "n_strategies": N_STRATEGIES,
        "n_arrivals": N_ARRIVALS,
        "rounds": ROUNDS,
        "submit_loop_s": [round(scalar_s, 4) for scalar_s, _ in rounds],
        "submit_many_s": [round(batch_s, 4) for _, batch_s in rounds],
        "round_speedups": [round(ratio, 1) for ratio in ratios],
        "speedup": round(speedup, 1),
        "floor": SUBMIT_MANY_FLOOR,
    }
    benchmark.extra_info.update(info)
    record(RESULTS_PATH, "submit_many", info)
    assert speedup >= SUBMIT_MANY_FLOOR, (
        f"submit_many should beat the per-request submit loop by >= "
        f"{SUBMIT_MANY_FLOOR}x in the median of {ROUNDS} rounds, got "
        f"{speedup:.1f}x (per round: {info['round_speedups']})"
    )


def _cold_vs_memoized() -> "list[tuple[float, float]]":
    """``(cold_s, warm_s)`` per round, the two passes interleaved."""
    ensemble, shapes = _workload(seed=43)
    # Memoized resubmission: same shapes (fresh request objects) through a
    # session whose engine cache has seen them once.
    engine = RecommendationEngine(ensemble, AVAILABILITY, aggregation=AGGREGATION)
    engine.open_session().submit_many(shapes)
    resubmitted = [request.with_params(request.params) for request in shapes]

    def cold():
        # A fresh plain computer: one model inversion per shape by the
        # reference rule.
        plain = _ReferenceComputer(ensemble, aggregation=AGGREGATION)
        for request in shapes:
            plain.aggregate(request)

    def memoized():
        session = engine.open_session()
        for request in resubmitted:
            session.submit(request)

    return paired_rounds(cold, memoized, ROUNDS)


def test_bench_memoized_resubmit(benchmark):
    rounds = benchmark.pedantic(_cold_vs_memoized, rounds=1, iterations=1)
    ratios = [cold_s / max(warm_s, 1e-9) for cold_s, warm_s in rounds]
    speedup = statistics.median(ratios)
    info = {
        "n_strategies": N_STRATEGIES,
        "n_arrivals": N_ARRIVALS,
        "rounds": ROUNDS,
        "cold_aggregate_s": [round(cold_s, 4) for cold_s, _ in rounds],
        "memoized_submit_s": [round(warm_s, 4) for _, warm_s in rounds],
        "round_speedups": [round(ratio, 1) for ratio in ratios],
        "speedup": round(speedup, 1),
        "floor": MEMOIZED_FLOOR,
    }
    benchmark.extra_info.update(info)
    record(RESULTS_PATH, "memoized_resubmit", info)
    assert speedup >= MEMOIZED_FLOOR, (
        f"memoized resubmission should beat cold aggregation by >= "
        f"{MEMOIZED_FLOOR}x in the median of {ROUNDS} rounds, got "
        f"{speedup:.1f}x (per round: {info['round_speedups']})"
    )
