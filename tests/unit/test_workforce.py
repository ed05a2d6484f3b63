"""Unit tests for workforce requirement computation (§3.2)."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.params import TriParams
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble, StrategyProfile, paper_catalog
from repro.core.workforce import (
    AGGREGATIONS,
    WORKFORCE_MODES,
    WorkforceComputer,
    threshold_workforce,
)
from repro.modeling.linear import LinearModel
from repro.modeling.modelbank import ParamModels
from repro.workloads.generators import generate_requests, generate_strategy_ensemble

from workforce_reference import threshold_grid_oracle, three_grid_rows_oracle


def modeled_ensemble() -> StrategyEnsemble:
    """Two modeled strategies: Table 6 translation pair."""
    seq = ParamModels(
        quality=LinearModel(0.09, 0.85),
        cost=LinearModel(1.00, 0.00),
        latency=LinearModel(-0.98, 1.40),
    )
    sim = ParamModels(
        quality=LinearModel(0.09, 0.82),
        cost=LinearModel(0.82, 0.17),
        latency=LinearModel(-0.63, 1.01),
    )
    return StrategyEnsemble(
        [
            StrategyProfile(paper_catalog()[1], seq, label="SEQ"),
            StrategyProfile(paper_catalog()[0], sim, label="SIM"),
        ]
    )


class TestThresholdWorkforce:
    def test_lower_bound_increasing_model(self):
        # quality = 0.5·w + 0.5, need >= 0.75 -> w >= 0.5
        out = threshold_workforce(np.array([0.5]), np.array([0.5]), 0.75, True)
        assert out[0] == pytest.approx(0.5)

    def test_lower_bound_already_met(self):
        out = threshold_workforce(np.array([0.5]), np.array([0.9]), 0.75, True)
        assert out[0] == 0.0

    def test_lower_bound_constant_infeasible(self):
        out = threshold_workforce(np.array([0.0]), np.array([0.5]), 0.75, True)
        assert math.isinf(out[0])

    def test_upper_bound_decreasing_model(self):
        # latency = 1.4 - 0.98·w, need <= 1.0 -> w >= (1.0-1.4)/-0.98
        out = threshold_workforce(np.array([-0.98]), np.array([1.4]), 1.0, False)
        assert out[0] == pytest.approx(0.40816, rel=1e-4)

    def test_upper_bound_increasing_model_returns_cap(self):
        # cost = w, need <= 0.7: the equality solve is 0.7 (the budget cap)
        out = threshold_workforce(np.array([1.0]), np.array([0.0]), 0.7, False)
        assert out[0] == pytest.approx(0.7)

    def test_upper_bound_increasing_model_infeasible_base(self):
        # cost = w + 0.9, budget 0.7 unreachable even at w=0
        out = threshold_workforce(np.array([1.0]), np.array([0.9]), 0.7, False)
        assert math.isinf(out[0])

    def test_constant_upper_bound_ok(self):
        out = threshold_workforce(np.array([0.0]), np.array([0.3]), 0.7, False)
        assert out[0] == 0.0

    def test_vectorized_mixed(self):
        alpha = np.array([0.5, 0.0, -0.5])
        beta = np.array([0.5, 0.9, 1.0])
        out = threshold_workforce(alpha, beta, 0.75, True)
        assert out[0] == pytest.approx(0.5)
        assert out[1] == 0.0  # constant 0.9 >= 0.75
        assert out[2] == pytest.approx(0.5)  # decreasing: holds for w <= 0.5


class TestPaperMode:
    def test_row_matches_scalar_path(self):
        ensemble = modeled_ensemble()
        request = TriParams(quality=0.9, cost=0.8, latency=1.0)
        computer = WorkforceComputer(ensemble, mode="paper")
        row = computer.row(request)
        for j, profile in enumerate(ensemble):
            assert row[j] == pytest.approx(
                profile.models.workforce_required(request, mode="paper")
            )

    def test_max_rule(self):
        ensemble = modeled_ensemble()
        request = TriParams(quality=0.9, cost=0.8, latency=1.0)
        row = WorkforceComputer(ensemble, mode="paper").row(request)
        # SEQ: w_q=(0.9-0.85)/0.09=0.556, w_c=0.8, w_l=0.408 -> max 0.8
        assert row[0] == pytest.approx(0.8)

    def test_impossible_quality_is_inf(self):
        ensemble = modeled_ensemble()
        request = TriParams(quality=1.0, cost=1.0, latency=1.0)
        row = WorkforceComputer(ensemble, mode="paper").row(request)
        # 0.09·w+0.85 = 1.0 -> w = 1.67 > 1: finite but beyond the pool
        assert row[0] == pytest.approx((1.0 - 0.85) / 0.09)


class TestStrictMode:
    def test_cost_is_cap_not_floor(self):
        ensemble = modeled_ensemble()
        request = TriParams(quality=0.9, cost=0.8, latency=1.0)
        row = WorkforceComputer(ensemble, mode="strict").row(request)
        # SEQ requirement = max(w_q=0.556, w_l=0.408), cap 0.8 not binding
        assert row[0] == pytest.approx(0.5556, rel=1e-3)

    def test_budget_below_need_is_infeasible(self):
        ensemble = modeled_ensemble()
        # SEQ needs w >= 0.556 for quality but cost = w <= 0.3 caps below it
        request = TriParams(quality=0.9, cost=0.3, latency=1.0)
        row = WorkforceComputer(ensemble, mode="strict").row(request)
        assert math.isinf(row[0])

    def test_strict_never_exceeds_paper(self):
        ensemble = modeled_ensemble()
        request = TriParams(quality=0.88, cost=0.9, latency=0.9)
        paper = WorkforceComputer(ensemble, mode="paper").row(request)
        strict = WorkforceComputer(ensemble, mode="strict").row(request)
        for p, s in zip(paper, strict):
            assert s <= p or math.isinf(s)


class TestAggregation:
    def test_sum_case(self, table1_ensemble):
        request = DeploymentRequest("d", TriParams(0.5, 0.9, 0.9), k=2)
        computer = WorkforceComputer(table1_ensemble, aggregation="sum")
        agg = computer.aggregate(request)
        row = computer.row(request.params)
        expected = float(np.sort(row)[:2].sum())
        assert agg.requirement == pytest.approx(expected)
        assert len(agg.strategy_indices) == 2

    def test_max_case_is_kth_smallest(self, table1_ensemble):
        request = DeploymentRequest("d", TriParams(0.5, 0.9, 0.9), k=3)
        computer = WorkforceComputer(table1_ensemble, aggregation="max")
        agg = computer.aggregate(request)
        row = computer.row(request.params)
        assert agg.requirement == pytest.approx(float(np.sort(row)[2]))

    def test_max_case_never_exceeds_sum_case(self, table1_ensemble):
        request = DeploymentRequest("d", TriParams(0.5, 0.9, 0.9), k=3)
        sum_req = WorkforceComputer(table1_ensemble, aggregation="sum").aggregate(request)
        max_req = WorkforceComputer(table1_ensemble, aggregation="max").aggregate(request)
        assert max_req.requirement <= sum_req.requirement + 1e-12

    def test_infeasible_when_fewer_than_k_eligible(self, table1_ensemble):
        request = DeploymentRequest("d", TriParams(0.95, 0.1, 0.1), k=3)
        agg = WorkforceComputer(table1_ensemble).aggregate(request)
        assert not agg.feasible
        assert agg.strategy_indices == ()

    def test_chosen_strategies_sorted_by_requirement(self, table1_ensemble):
        request = DeploymentRequest("d", TriParams(0.5, 0.9, 0.9), k=4)
        computer = WorkforceComputer(table1_ensemble)
        agg = computer.aggregate(request)
        row = computer.row(request.params)
        values = [row[i] for i in agg.strategy_indices]
        assert values == sorted(values)


class TestEligibility:
    def test_availability_mode_requires_value(self, table1_ensemble):
        with pytest.raises(ValueError):
            WorkforceComputer(table1_ensemble, eligibility="availability")

    def test_availability_mode_tightens(self):
        ensemble = modeled_ensemble()
        request = DeploymentRequest("d", TriParams(0.9, 0.8, 1.0), k=1)
        pool = WorkforceComputer(ensemble, mode="strict", eligibility="pool")
        tight = WorkforceComputer(
            ensemble, mode="strict", eligibility="availability", availability=0.3
        )
        assert pool.aggregate(request).feasible
        assert not tight.aggregate(request).feasible


class TestMatrix:
    def test_matrix_shape_and_rows(self, table1_ensemble, table1_requests):
        computer = WorkforceComputer(table1_ensemble)
        matrix = computer.matrix(table1_requests)
        assert matrix.shape == (3, 4)
        np.testing.assert_allclose(matrix[0], computer.row(table1_requests[0].params))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "bogus"},
        {"aggregation": "bogus"},
        {"eligibility": "bogus"},
    ],
)
def test_invalid_options_rejected(table1_ensemble, kwargs):
    with pytest.raises(ValueError):
        WorkforceComputer(table1_ensemble, **kwargs)


# --------------------------------------------------------------------------
# The one selection rule against a full stable sort.
#
# `aggregate_all` partitions each row instead of sorting it; the oracle
# below is the rule it replaces: stable-argsort the row, take the first k
# (ties at the k-th value go to the lowest indices), and sum them as one
# length-k array (NumPy's pairwise sum re-associates past 128 terms, so a
# different grouping would show in the last bits).


def stable_argsort_oracle(row, k, aggregation, bound):
    """(requirement, strategy indices, eligible count) by full stable sort."""
    eligible = int(np.count_nonzero(row <= bound + 1e-9))
    if k > eligible:
        return math.inf, (), eligible
    order = np.argsort(row, kind="stable")[:k]
    values = row[order]
    requirement = float(values.sum() if aggregation == "sum" else values[-1])
    return requirement, tuple(order.tolist()), eligible


def bitwise(needs):
    return [
        (n.request_id, n.requirement.hex(), n.strategy_indices, n.eligible_count)
        for n in needs
    ]


def oracle_needs(grid, requests, aggregation, bound):
    return [
        (request.request_id, requirement.hex(), indices, eligible)
        for request, row in zip(requests, grid)
        for requirement, indices, eligible in [
            stable_argsort_oracle(row, request.k, aggregation, bound)
        ]
    ]


def block_cells(n, rows_per_block):
    """A cell budget giving blocks of ``rows_per_block`` rows: the three
    parameter planes of a block count against it."""
    return 3 * n * rows_per_block


def k_values(n):
    """k = 1, small, >= 8, > 128 (where they fit), k = |S| and k > |S|."""
    return sorted({k for k in (1, 2, 3, 8, 9, 129, 200, n) if k <= n} | {n + 1})


class DrawnGridComputer(WorkforceComputer):
    """A computer whose grid is given, so cells can be tie- and inf-heavy."""

    def __init__(self, grid, **kwargs):
        super().__init__(
            generate_strategy_ensemble(grid.shape[1], seed=0), **kwargs
        )
        self.grid = grid

    def rows(self, params_list):
        # Each request's quality encodes its row (see `drawn_requests`).
        return self.grid[[round(p.quality * 1000) - 1 for p in params_list]]


def drawn_requests(ks):
    return [
        DeploymentRequest(f"r{i}", TriParams((i + 1) / 1000, 0.5, 0.5), k=k)
        for i, k in enumerate(ks)
    ]


#: Tie pool: exact repeats, both zeros, values that round when summed, the
#: pool bound itself and cells past it.
TIE_POOL = np.array([0.0, -0.0, 0.1, 1 / 3, 0.7, 1.0, 1.0 + 1e-10, 1.5, math.inf])


@st.composite
def drawn_grids(draw):
    n = draw(st.sampled_from([1, 2, 3, 8, 9, 40, 129, 200, 300]))
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.uniform(0.0, 1.3, size=(m, n))
    tie_share = draw(st.sampled_from([0.0, 0.5, 0.95]))
    inf_share = draw(st.sampled_from([0.0, 0.1, 0.6]))
    ties = rng.random((m, n)) < tie_share
    grid[ties] = rng.choice(TIE_POOL, size=int(ties.sum()))
    grid[rng.random((m, n)) < inf_share] = math.inf
    ks = draw(st.lists(st.sampled_from(k_values(n)), min_size=m, max_size=m))
    return grid, ks


#: Rows where every k > 128 is feasible: sums long enough to re-associate.
LONG_ROWS = np.random.default_rng(7).uniform(0.0, 1.0, size=(3, 300))


@settings(max_examples=150, deadline=None)
@example(
    drawn=(LONG_ROWS, [129, 200, 300]),
    aggregation="sum",
    availability=None,
    rows_per_block=2,
)
@given(
    drawn=drawn_grids(),
    aggregation=st.sampled_from(AGGREGATIONS),
    availability=st.sampled_from([None, 0.3, 0.7, 1.0]),
    rows_per_block=st.integers(1, 5),
)
def test_aggregate_all_matches_stable_argsort_on_drawn_grids(
    drawn, aggregation, availability, rows_per_block
):
    grid, ks = drawn
    eligibility = "pool" if availability is None else "availability"
    computer = DrawnGridComputer(
        grid,
        aggregation=aggregation,
        eligibility=eligibility,
        availability=availability,
    )
    # Blocks of a few rows, so one batch spans several of them.
    computer.BLOCK_CELLS = block_cells(grid.shape[1], rows_per_block)
    requests = drawn_requests(ks)
    bound = 1.0 if availability is None else availability
    expected = oracle_needs(grid, requests, aggregation, bound)
    assert bitwise(computer.aggregate_all(requests)) == expected
    assert bitwise([computer.aggregate(r) for r in requests]) == expected


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 3, 10, 60, 150, 400]),
    m=st.integers(1, 16),
    distribution=st.sampled_from(["uniform", "normal"]),
    low=st.sampled_from([0.1, 0.4, 0.625]),
    mode=st.sampled_from(WORKFORCE_MODES),
    aggregation=st.sampled_from(AGGREGATIONS),
    availability=st.sampled_from([None, 0.4, 0.9]),
    rows_per_block=st.integers(1, 6),
    data=st.data(),
)
def test_aggregate_all_matches_stable_argsort_on_generated_workloads(
    seed, n, m, distribution, low, mode, aggregation, availability,
    rows_per_block, data,
):
    ensemble = generate_strategy_ensemble(n, distribution, seed=seed)
    ks = data.draw(st.lists(st.sampled_from(k_values(n)), min_size=m, max_size=m))
    requests = [
        DeploymentRequest(r.request_id, r.params, k=k)
        for r, k in zip(generate_requests(m, seed=seed + 1, low=low), ks)
    ]
    eligibility = "pool" if availability is None else "availability"
    computer = WorkforceComputer(
        ensemble,
        mode=mode,
        aggregation=aggregation,
        eligibility=eligibility,
        availability=availability,
    )
    computer.BLOCK_CELLS = block_cells(n, rows_per_block)
    grid = computer.rows([r.params for r in requests])
    bound = 1.0 if availability is None else availability
    expected = oracle_needs(grid, requests, aggregation, bound)
    assert bitwise(computer.aggregate_all(requests)) == expected
    assert bitwise([computer.aggregate(r) for r in requests]) == expected


# --------------------------------------------------------------------------
# The fused inversion against the three-grid rule it replaced, kept in
# `workforce_reference.py` (shared with the benchmarks that time it).


#: Slopes: constant (both zeros), rising and falling, tiny enough to
#: overflow a division and large enough to underflow one.
ALPHA_POOL = np.array([0.0, -0.0, 0.5, -0.5, 1.0, -0.98, 1e-300, -1e-300, 1e300])
#: Targets at both ends of [0, 1], -0.0 included.
TARGET_POOL = np.array([0.0, -0.0, 1.0, 0.5, 1e-300])
#: Offsets of a beta from a drawn target: equal, within and just past _EPS.
NEAR_TARGET = np.array([0.0, 1e-9, -1e-9, 5e-10, -5e-10, 2e-9, -2e-9, 1e-17])


@st.composite
def inversion_cases(draw):
    """An ensemble and requests whose betas sit on or near the targets."""
    n = draw(st.sampled_from([1, 2, 3, 8, 40, 129]))
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    targets = rng.uniform(0.0, 1.0, size=(m, 3))
    pooled = rng.random((m, 3)) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    targets[pooled] = rng.choice(TARGET_POOL, size=int(pooled.sum()))
    alpha = rng.normal(0.0, 1.0, size=(n, 3))
    pooled = rng.random((n, 3)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    alpha[pooled] = rng.choice(ALPHA_POOL, size=int(pooled.sum()))
    beta = rng.uniform(-0.5, 1.5, size=(n, 3))
    near = rng.random((n, 3)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    picked = targets[rng.integers(0, m, size=(n, 3)), np.arange(3)]
    offsets = rng.choice(NEAR_TARGET, size=(n, 3))
    beta[near] = (picked + offsets)[near]
    return (
        StrategyEnsemble.from_arrays(alpha, beta),
        [TriParams(*row) for row in targets],
    )


@settings(max_examples=200, deadline=None)
@given(
    case=inversion_cases(),
    mode=st.sampled_from(WORKFORCE_MODES),
    aggregation=st.sampled_from(AGGREGATIONS),
    availability=st.sampled_from([None, 0.5]),
    rows_per_block=st.integers(1, 5),
    k=st.sampled_from([1, 2, 3]),
)
def test_rows_match_three_grid_oracle_bitwise(
    case, mode, aggregation, availability, rows_per_block, k
):
    ensemble, params = case
    eligibility = "pool" if availability is None else "availability"
    computer = WorkforceComputer(
        ensemble,
        mode=mode,
        aggregation=aggregation,
        eligibility=eligibility,
        availability=availability,
    )
    expected = three_grid_rows_oracle(ensemble, params, mode)
    assert computer.rows(params).tobytes() == expected.tobytes()
    for p, row in zip(params, expected):
        assert computer.row(p).tobytes() == row.tobytes()
    for column, lower in ((0, True), (1, False), (2, False)):
        for p in params:
            target = (p.quality, p.cost, p.latency)[column]
            alpha, beta = ensemble.alpha[:, column], ensemble.beta[:, column]
            assert (
                threshold_workforce(alpha, beta, target, lower).tobytes()
                == threshold_grid_oracle(alpha, beta, [target], lower)[0].tobytes()
            )
    # The same grid reaches aggregate_all across several blocks.
    computer.BLOCK_CELLS = block_cells(len(ensemble), rows_per_block)
    requests = [
        DeploymentRequest(f"r{i}", p, k=k) for i, p in enumerate(params)
    ]
    bound = 1.0 if availability is None else availability
    assert bitwise(computer.aggregate_all(requests)) == oracle_needs(
        expected, requests, aggregation, bound
    )


def test_tables_shared_by_computers_built_on_many_threads():
    """The Eq. 4 tables are kept on the ensemble: computers built at once
    on many threads over one fresh ensemble answer bitwise like a
    computer over an equal ensemble that built its own."""
    alpha = np.array([[0.5, 0.0, -0.3], [0.0, 0.4, 0.2], [-0.2, -0.1, 0.0]])
    beta = np.array([[0.3, 0.2, 0.6], [0.7, 0.1, 0.2], [0.9, 0.5, 0.4]])
    params = [TriParams(0.6, 0.4, 0.5), TriParams(0.8, 0.1, 0.3)]
    expected = {
        mode: WorkforceComputer(
            StrategyEnsemble.from_arrays(alpha, beta), mode=mode
        ).rows(params).tobytes()
        for mode in WORKFORCE_MODES
    }
    shared = StrategyEnsemble.from_arrays(alpha, beta)
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    answers = []

    def build(mode):
        barrier.wait(timeout=10)
        grid = WorkforceComputer(shared, mode=mode).rows(params)
        answers.append((mode, grid.tobytes()))

    threads = [
        threading.Thread(target=build, args=(WORKFORCE_MODES[i % 2],))
        for i in range(n_threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(answers) == n_threads
    assert all(grid == expected[mode] for mode, grid in answers)
