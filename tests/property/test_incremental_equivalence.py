"""Differential pins for the index-pruned exact ADPaR sweep.

The exact registry backend (``adpar-exact``, also registered as
``adpar-incremental``) re-derives the reference sweep over the space's
cached structures (sweep orders, per-``k`` global frontier, frontier
cursor), so its gate is **bitwise** equality with the reference
:class:`ADPaRExact` — scalar, batch, and across randomized availability
schedules through one shared :class:`EngineCache`.  The sweep's
edge-case ingredients (``block_frontier`` at degenerate block sizes and
duplicate ties, ``sweep_table`` against its raw NumPy formulation, the
global 2-D bound against the heap reference) are pinned alongside.
"""

from __future__ import annotations

import numpy as np
import pytest
from admissible_inputs import admissible_batches
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adpar import ADPaRExact
from repro.core.params import TriParams
from repro.core.relaxation import RelaxationSpace
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.engine import EngineCache, RecommendationEngine, SolverContext
from repro.engine.solvers import ExactSolver
from repro.exceptions import InfeasibleRequestError
from repro.geometry.sweepline import ParetoSweep, block_frontier

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)
#: Values quantized to a coarse grid, so duplicate coordinates — the
#: tie-handling edge the heap reference resolves by iteration order —
#: are the rule, not the exception.
tied_unit = st.integers(min_value=0, max_value=4).map(lambda q: q / 4.0)
params_strategy = st.builds(TriParams, quality=unit, cost=unit, latency=unit)
tied_params = st.builds(TriParams, quality=tied_unit, cost=tied_unit, latency=tied_unit)


def assert_bitwise_equal(got, expected):
    assert got.distance == expected.distance
    assert got.squared_distance == expected.squared_distance
    assert got.relaxation == expected.relaxation
    assert got.alternative == expected.alternative
    assert got.strategy_indices == expected.strategy_indices
    assert got.strategy_names == expected.strategy_names


# ------------------------------------------------------- sweep ingredients
@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.tuples(tied_unit, tied_unit), min_size=1, max_size=24),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=3),
)
def test_block_frontier_degenerate_blocks_match_heap(points, k, block):
    """``block=1``/``block=2`` and duplicate-(y, z) ties == the heap."""
    ys = [y for y, _ in points]
    zs = [z for _, z in points]
    sweep = ParetoSweep(ys, zs)
    expected = list(sweep.frontier(k))
    assert list(sweep.frontier_blocks(k, block=block)) == expected
    best = min(expected, key=lambda p: p[0] ** 2 + p[1] ** 2) if expected else None
    assert sweep.best_bound(k) == best


@settings(max_examples=100, deadline=None)
@given(
    st.lists(tied_params, min_size=1, max_size=20),
    tied_unit,
)
def test_sweep_values_match_numpy_on_duplicate_heavy_points(points, origin_x):
    """Cached-order derivation == raw ``np.sort``/``np.unique``."""
    space = RelaxationSpace(StrategyEnsemble.from_params(points), 1.0)
    sorted_relax, candidates, _ = space.sweep_table(origin_x, 1e-12)
    raw = np.maximum(space.points[:, 0] - origin_x, 0.0)
    assert np.array_equal(sorted_relax, np.sort(raw))
    assert np.array_equal(candidates, np.unique(raw))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(tied_params, min_size=1, max_size=20),
    tied_unit,
    st.sampled_from([1e-12, 0.1]),
)
def test_sweep_table_prefix_matches_direct_searchsorted(points, origin_x, eps):
    """The O(n) prefix derivation == the searchsorted it replaces.

    ``eps=0.1`` on quarter-quantized coordinates forces the
    near-collision fallback; ``eps=1e-12`` exercises the fast path.
    """
    space = RelaxationSpace(StrategyEnsemble.from_params(points), 1.0)
    sorted_relax, xs, prefix = space.sweep_table(origin_x, eps)
    assert np.array_equal(
        prefix, np.searchsorted(sorted_relax, xs + eps, side="right")
    )


def test_sweep_table_scratch_and_allocating_forms_agree():
    rng = np.random.default_rng(5)
    points = [TriParams(*np.round(rng.random(3) * 4) / 4) for _ in range(30)]
    space = RelaxationSpace(StrategyEnsemble.from_params(points), 1.0)
    solver = ExactSolver(SolverContext(space.ensemble, 1.0, space), {})
    scratch = solver._sweep_scratch_for(space.size)
    for origin_x in (0.0, 0.25, 0.3, 1.0):
        plain = space.sweep_table(origin_x, 1e-12)
        pooled = space.sweep_table(origin_x, 1e-12, scratch)
        for a, b in zip(plain, pooled):
            assert np.array_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(tied_params, min_size=1, max_size=24),
    st.one_of(params_strategy, tied_params),
    st.integers(min_value=1, max_value=6),
)
def test_global_frontier_bound_matches_heap_reference(points, origin_params, k):
    """The sweep's global 2-D bound over ``global_frontier(k)`` — a
    ``y``-order pass that leaves equal ``y`` in index order — is
    float-equal to the same bound over the lexsorted heap reference."""
    space = RelaxationSpace(StrategyEnsemble.from_params(points), 1.0)
    k = min(k, space.size)
    origin = space.origin_of(origin_params)

    def bound(ys, zs):
        # _indexed_sweep's expressions for G, verbatim.
        mapped_y = np.maximum(np.asarray(ys, dtype=float) - float(origin[1]), 0.0)
        mapped_z = np.maximum(np.asarray(zs, dtype=float) - float(origin[2]), 0.0)
        return float(np.min(mapped_y * mapped_y + mapped_z * mapped_z))

    reference = list(ParetoSweep(space.points[:, 1], space.points[:, 2]).frontier(k))
    frontier = space.global_frontier(k)
    assert space.global_frontier(k) is frontier  # cached per k
    assert bound(*frontier) == bound(
        [y for y, _ in reference], [z for _, z in reference]
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(params_strategy, min_size=1, max_size=12),
    st.lists(params_strategy, min_size=1, max_size=4),
)
def test_relaxation_batch_out_buffer_is_value_identical(points, origins_params):
    space = RelaxationSpace(StrategyEnsemble.from_params(points), 1.0)
    origins = np.array([space.origin_of(p) for p in origins_params])
    fresh = space.relaxation_batch(origins)
    warm = np.full((origins.shape[0], space.size, 3), -1.0)
    out = space.relaxation_batch(origins, out=warm)
    assert out is warm
    assert np.array_equal(fresh, warm)


# ------------------------------------------------ solver bitwise equality
@st.composite
def adpar_instances(draw, max_points=9):
    mix = st.one_of(params_strategy, tied_params)
    points = draw(st.lists(mix, min_size=1, max_size=max_points))
    request = draw(mix)
    k = draw(st.integers(min_value=1, max_value=len(points)))
    return points, request, k


def _solver_and_reference(ensemble, availability=1.0, block=512):
    context = SolverContext(ensemble, availability).with_space()
    return (
        ExactSolver(context, {"block": block}),
        ADPaRExact(ensemble, availability, space=context.space),
    )


@settings(max_examples=150, deadline=None)
@given(adpar_instances(), st.sampled_from([1, 2, 512]))
def test_incremental_scalar_bitwise_identical_to_exact(instance, block):
    points, request, k = instance
    incremental, reference = _solver_and_reference(
        StrategyEnsemble.from_params(points), block=block
    )
    try:
        expected = reference.solve(request, k)
    except InfeasibleRequestError:
        with pytest.raises(InfeasibleRequestError):
            incremental.solve(request, k)
        return
    assert_bitwise_equal(incremental.solve(request, k), expected)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.one_of(params_strategy, tied_params), min_size=1, max_size=9),
    st.lists(st.one_of(params_strategy, tied_params), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=9),
)
def test_incremental_batch_bitwise_identical_to_exact(points, requests, k):
    k = min(k, len(points))
    incremental, reference = _solver_and_reference(
        StrategyEnsemble.from_params(points)
    )
    try:
        expected = [reference.solve(request, k) for request in requests]
    except InfeasibleRequestError:
        with pytest.raises(InfeasibleRequestError):
            incremental.solve_batch(requests, k)
        return
    got = incremental.solve_batch(requests, k)
    for want, have in zip(expected, got):
        assert_bitwise_equal(have, want)


@settings(max_examples=100, deadline=None)
@given(admissible_batches(), st.sampled_from([1, 2, 512]))
def test_incremental_admissible_batch_bitwise_identical_to_exact(instance, block):
    """The exact backend == ``ADPaRExact`` across the batch certificate."""
    points, specs = instance
    incremental, reference = _solver_and_reference(
        StrategyEnsemble.from_params(points), block=block
    )
    requests = [
        DeploymentRequest(f"d{i}", params, k=k) for i, (params, k) in enumerate(specs)
    ]
    for request, have in zip(requests, incremental.solve_batch(requests)):
        assert_bitwise_equal(have, reference.solve(request))


def test_engine_serves_incremental_backend(table1_ensemble):
    engine = RecommendationEngine(
        table1_ensemble, availability=1.0, solver="adpar-incremental"
    )
    request = TriParams(0.9, 0.2, 0.1)
    expected = ADPaRExact(table1_ensemble).solve(request, 3)
    assert_bitwise_equal(engine.recommend_alternative(request, 3), expected)


# ------------------------------------------------ availability schedules
def _linear_ensemble(seed: int, n: int, sparsity: float) -> StrategyEnsemble:
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(-0.5, 0.5, (n, 3))
    alpha[rng.random((n, 3)) < sparsity] = 0.0
    return StrategyEnsemble.from_arrays(alpha, rng.random((n, 3)))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.lists(
        st.tuples(
            st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
            st.builds(TriParams, quality=unit, cost=unit, latency=unit),
            st.integers(min_value=1, max_value=5),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_tick_schedule_solves_bitwise_identical_to_cold_exact(seed, schedule):
    """Random availability schedules through one shared cache == cold solves."""
    ensemble = _linear_ensemble(seed, 12, 0.4)
    cache = EngineCache()
    for availability, request, k in schedule:
        space = cache.relaxation_space(ensemble, availability)
        solver = ExactSolver(SolverContext(ensemble, availability, space), {})
        reference = ADPaRExact(ensemble, availability=availability)
        try:
            expected = reference.solve(request, k)
        except InfeasibleRequestError:
            with pytest.raises(InfeasibleRequestError):
                solver.solve(request, k)
            continue
        assert_bitwise_equal(solver.solve(request, k), expected)
