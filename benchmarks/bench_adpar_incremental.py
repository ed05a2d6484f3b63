"""Bench: the incremental ADPaR path — delta ticks over one space chain.

One pin, recorded to ``BENCH_adpar_incremental.json``:

* ``test_bench_streaming_tick_cost`` drives availability ticks through
  :class:`~repro.engine.IncrementalSpaceCache` on a sparse-alpha
  ensemble (only ~0.5% of (strategy, dimension) cells depend on
  availability — the streaming regime where most of the geometry is
  reusable) and pins the marginal per-tick cost of
  :meth:`RelaxationSpace.shifted` at <= 0.1x a full rebuild.  The delta
  path re-estimates only availability-dependent rows, merge-repairs the
  per-dimension sort orders, and recycles retired buffers through the
  chain's :class:`~repro.core.relaxation.BufferPool`; losing any of the
  three pushes the ratio over the pin.

The measurement interleaves the two timed legs over several rounds, so
a background-load spike on a shared CI box lands on both sides of the
ratio instead of one, and compares best-of-round means (load only ever
adds time, so the round minimum is the cleanest estimate of each leg's
true cost).

The exact sweep's scale pin is ``test_bench_adpar_batch_speedup`` in
``bench_adpar_solvers.py``.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from bench_recording import record

from repro.core.relaxation import RelaxationSpace
from repro.core.strategy import StrategyEnsemble
from repro.engine import IncrementalSpaceCache

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_adpar_incremental.json"

TICK_N = 100000
#: Fraction of (strategy, dimension) cells whose estimate actually
#: depends on availability; the rest have alpha == 0 and never move.
TICK_ALPHA_FRACTION = 0.005
TICK_WARMUP = 8
TICK_ROUNDS = 7
TICKS_PER_ROUND = 30
REBUILDS_PER_ROUND = 5
TICK_STEP = 0.0004
TICK_COST_CEILING = 0.1


def _sparse_ensemble(seed: int = 7) -> StrategyEnsemble:
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(-0.3, 0.3, (TICK_N, 3))
    alpha[rng.random((TICK_N, 3)) >= TICK_ALPHA_FRACTION] = 0.0
    beta = rng.random((TICK_N, 3))
    return StrategyEnsemble.from_arrays(alpha, beta)


def _materialized(space: RelaxationSpace) -> RelaxationSpace:
    """Force every lazy the tick path maintains, for a fair denominator."""
    space.dimension_orders
    for dim in range(3):
        space._sorted_values(dim)
    space.frontier_index
    return space


def _tick_vs_rebuild() -> dict:
    ensemble = _sparse_ensemble()

    chain = IncrementalSpaceCache(drift_threshold=10.0)
    _materialized(chain.space_at(ensemble, 0.5))
    availability = 0.5
    for _ in range(TICK_WARMUP):  # populate the chain's buffer pool
        availability += TICK_STEP
        chain.space_at(ensemble, availability)

    rebuild_times, tick_times = [], []
    for round_idx in range(TICK_ROUNDS):
        start = time.perf_counter()
        for i in range(REBUILDS_PER_ROUND):
            _materialized(
                RelaxationSpace(ensemble, 0.55 + round_idx * 0.01 + i * 0.001)
            )
        rebuild_times.append((time.perf_counter() - start) / REBUILDS_PER_ROUND)

        start = time.perf_counter()
        for _ in range(TICKS_PER_ROUND):
            availability += TICK_STEP
            chain.space_at(ensemble, availability)
        tick_times.append((time.perf_counter() - start) / TICKS_PER_ROUND)

    tick_s = min(tick_times)
    rebuild_s = min(rebuild_times)
    stats = chain.stats_view()
    return {
        "n_strategies": TICK_N,
        "alpha_fraction": TICK_ALPHA_FRACTION,
        "rounds": TICK_ROUNDS,
        "ticks_per_round": TICKS_PER_ROUND,
        "tick_ms": round(tick_s * 1e3, 4),
        "rebuild_ms": round(rebuild_s * 1e3, 4),
        "tick_over_rebuild_x": round(tick_s / max(rebuild_s, 1e-9), 4),
        "tick_cost_ceiling_x": TICK_COST_CEILING,
        "chain_shifts": stats["shifts"],
        "chain_rebuilds": stats["rebuilds"],
        "buffers_reclaimed": stats["reclaimed"],
    }


def test_bench_streaming_tick_cost(benchmark):
    info = benchmark.pedantic(_tick_vs_rebuild, rounds=1, iterations=1)
    benchmark.extra_info.update(info)
    record(RESULTS_PATH, "streaming_tick", info)
    assert info["chain_shifts"] >= TICK_ROUNDS * TICKS_PER_ROUND, (
        "ticks must go through the delta path, not full rebuilds: "
        f"{info}"
    )
    assert info["buffers_reclaimed"] > 0, (
        "retired spaces must feed the buffer pool — reclamation never "
        f"fired: {info}"
    )
    assert info["tick_over_rebuild_x"] <= TICK_COST_CEILING, (
        f"a shifted() tick ({info['tick_ms']}ms) should cost <= "
        f"{TICK_COST_CEILING}x a full rebuild ({info['rebuild_ms']}ms), "
        f"got {info['tick_over_rebuild_x']}x"
    )
