"""Workforce requirement computation (§3.2).

Step 1 builds the matrix ``W[i][j]`` — the minimum workforce needed to
deploy request ``i`` with strategy ``j`` — by inverting the linear models
(Figure 3a).  Step 2 aggregates each row into a single requirement
``~w_i`` over the row's ``k`` cheapest eligible strategies, ordered by
(workforce, strategy index): the *sum-case* deploys all ``k`` of them
(sum of the ``k`` smallest cells, Figure 3b); the *max-case* deploys only
one (the ``k``-th smallest cell, Figure 3c).

:meth:`WorkforceComputer.aggregate_all` is the one implementation of
step 2.  It inverts a block of requests against every strategy in one
broadcasted ``(rows, |S|)`` pass, with blocks capped at
:attr:`WorkforceComputer.BLOCK_CELLS` cells so memory stays bounded on
huge ensembles, and :func:`_k_cheapest` selects each row's ``k`` cells
with a partition instead of sorting the row.  The one-request
:meth:`WorkforceComputer.aggregate` is a one-row call of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.params import TriParams
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble

AGGREGATIONS = ("sum", "max")
ELIGIBILITIES = ("pool", "availability")
WORKFORCE_MODES = ("paper", "strict")

_EPS = 1e-9


def threshold_workforce(
    alpha: np.ndarray, beta: np.ndarray, target: float, lower_bound: bool
) -> np.ndarray:
    """Vectorized Eq. 4 inversion for one parameter across all strategies.

    Mirrors :func:`repro.modeling.modelbank._threshold_workforce`:
    the minimal workforce making the parameter constraint hold (0 when
    free, ``inf`` when impossible).  One-target view of
    :func:`threshold_workforce_grid`, so both paths share one rule.
    """
    return threshold_workforce_grid(
        alpha, beta, np.array([target], dtype=float), lower_bound
    )[0]


def threshold_workforce_grid(
    alpha: np.ndarray, beta: np.ndarray, targets: np.ndarray, lower_bound: bool
) -> np.ndarray:
    """Broadcasted Eq. 4 inversion: ``(m,)`` targets × ``(n,)`` strategies.

    Returns the ``(m, n)`` grid of minimal workforces; element-for-element
    it computes exactly what :func:`threshold_workforce` computes for each
    target, so the two paths agree bitwise.
    """
    a = np.asarray(alpha, dtype=float)[None, :]
    b = np.asarray(beta, dtype=float)[None, :]
    t = np.asarray(targets, dtype=float)[:, None]
    constant = a == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        solved = (t - b) / np.where(constant, 1.0, a)
    grows_toward = (a > 0) if lower_bound else (a < 0)
    out = np.where(
        grows_toward,
        np.maximum(solved, 0.0),
        np.where(solved >= 0.0, solved, math.inf),
    )
    const_ok = (b >= t - _EPS) if lower_bound else (b <= t + _EPS)
    return np.where(constant, np.where(const_ok, 0.0, math.inf), out)


@dataclass(frozen=True)
class RequestWorkforce:
    """Aggregated workforce requirement of one request (§3.2 step 2)."""

    request_id: str
    requirement: float
    strategy_indices: tuple[int, ...]
    eligible_count: int

    @property
    def feasible(self) -> bool:
        """True iff ``k`` eligible strategies exist."""
        return math.isfinite(self.requirement)


class WorkforceComputer:
    """Computes workforce rows and per-request aggregates for an ensemble.

    Parameters
    ----------
    ensemble:
        The candidate strategies with their linear models.
    mode:
        ``"paper"`` takes the max of the three per-parameter solutions
        (the paper's rule); ``"strict"`` treats cost as a budget cap.
    aggregation:
        ``"sum"`` (deploy all k strategies) or ``"max"`` (deploy one).
    eligibility:
        ``"pool"`` admits strategies needing at most the whole worker pool
        (``w_ij <= 1``); ``"availability"`` additionally bounds each cell
        by the current availability ``W``.
    availability:
        Current expected availability; required for
        ``eligibility="availability"``.
    """

    def __init__(
        self,
        ensemble: StrategyEnsemble,
        mode: str = "paper",
        aggregation: str = "sum",
        eligibility: str = "pool",
        availability: "float | None" = None,
    ):
        if mode not in WORKFORCE_MODES:
            raise ValueError(f"mode must be one of {WORKFORCE_MODES}, got {mode!r}")
        if aggregation not in AGGREGATIONS:
            raise ValueError(
                f"aggregation must be one of {AGGREGATIONS}, got {aggregation!r}"
            )
        if eligibility not in ELIGIBILITIES:
            raise ValueError(
                f"eligibility must be one of {ELIGIBILITIES}, got {eligibility!r}"
            )
        if eligibility == "availability" and availability is None:
            raise ValueError('eligibility="availability" requires availability')
        self.ensemble = ensemble
        self.mode = mode
        self.aggregation = aggregation
        self.eligibility = eligibility
        self.availability = availability

    # ------------------------------------------------------------------- rows
    def row(self, params: TriParams) -> np.ndarray:
        """Workforce requirement ``w_ij`` of one request against every strategy.

        One-request view of :meth:`rows` so the (mode-dependent)
        aggregation rule exists exactly once.
        """
        return self.rows([params])[0]

    def rows(self, params_list: "list[TriParams]") -> np.ndarray:
        """Workforce grid ``w_ij`` for many requests in one broadcasted pass.

        Shape ``(m, n)``; equals stacking :meth:`row` per request but runs
        as whole-matrix numpy operations — this is the vectorized hot path
        behind :meth:`aggregate_all`.
        """
        alpha = self.ensemble.alpha
        beta = self.ensemble.beta
        quality = np.array([p.quality for p in params_list], dtype=float)
        cost = np.array([p.cost for p in params_list], dtype=float)
        latency = np.array([p.latency for p in params_list], dtype=float)
        w_q = threshold_workforce_grid(alpha[:, 0], beta[:, 0], quality, True)
        w_c = threshold_workforce_grid(alpha[:, 1], beta[:, 1], cost, False)
        w_l = threshold_workforce_grid(alpha[:, 2], beta[:, 2], latency, False)
        if self.mode == "paper":
            return np.maximum(np.maximum(w_q, w_c), w_l)
        requirement = np.maximum(w_q, w_l)
        ac = alpha[:, 1][None, :]
        bc = beta[:, 1][None, :]
        cost_col = cost[:, None]
        increasing = ac > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            cap = np.where(
                increasing, (cost_col - bc) / np.where(increasing, ac, 1.0), math.inf
            )
        requirement = np.where(
            increasing & (requirement > cap + _EPS), math.inf, requirement
        )
        constant_over = (ac == 0) & (bc > cost_col + _EPS)
        requirement = np.where(constant_over, math.inf, requirement)
        decreasing = ac < 0
        requirement = np.where(decreasing, np.maximum(requirement, w_c), requirement)
        return requirement

    def matrix(self, requests: "list[DeploymentRequest]") -> np.ndarray:
        """The full ``m × |S|`` matrix (Figure 3a) in one allocation.

        For requirements, use :meth:`aggregate_all`: it builds the grid
        block by block, so memory stays bounded for any ``m``.
        """
        return self.rows([req.params for req in requests])

    # -------------------------------------------------------------- aggregate
    def _eligibility_bound(self) -> float:
        if self.eligibility == "pool":
            return 1.0
        return float(self.availability)

    def aggregate(self, request: DeploymentRequest) -> RequestWorkforce:
        """Per-request requirement ``~w_i`` plus the k strategies backing it.

        One-request view of :meth:`aggregate_all`, so the selection rule
        exists exactly once.
        """
        return self.aggregate_all([request])[0]

    #: Cell budget per vectorized block: keeps the ``(rows, |S|)``
    #: intermediates of :meth:`rows` around L2-cache size (~1 MB), which
    #: benchmarks faster than memory-bandwidth-bound multi-MB blocks.
    BLOCK_CELLS = 131_072

    def aggregate_all(
        self, requests: "list[DeploymentRequest]"
    ) -> list[RequestWorkforce]:
        """Vector ``~W`` of §3.2 step 2, one entry per request.

        Requests are processed in blocks through the broadcasted
        :meth:`rows` grid.  A request is feasible iff at least ``k`` of
        its cells are eligible; its ``k`` cheapest strategies by
        ``(workforce, strategy index)`` come from :func:`_k_cheapest`,
        once per distinct ``k`` in the block.
        """
        n = len(self.ensemble)
        bound = self._eligibility_bound() + _EPS
        block = max(1, self.BLOCK_CELLS // max(n, 1))
        results: list[RequestWorkforce] = []
        for start in range(0, len(requests), block):
            chunk = requests[start : start + block]
            grid = self.rows([r.params for r in chunk])
            eligible = (grid <= bound).sum(axis=1).tolist()
            requirements = [math.inf] * len(chunk)
            chosen: "list[tuple[int, ...]]" = [()] * len(chunk)
            # Feasible rows grouped by k (a dict, not ``np.unique``: NumPy
            # 2's ``np.unique`` imports ``numpy.ma`` on first use).
            by_k: "dict[int, list[int]]" = {}
            for i, request in enumerate(chunk):
                if request.k <= eligible[i]:
                    by_k.setdefault(request.k, []).append(i)
            for k, at in by_k.items():
                columns, values = _k_cheapest(grid[at], k)
                if self.aggregation == "sum":
                    # One length-k pairwise sum per row, in (workforce,
                    # index) order: a cumsum would associate differently.
                    totals = values.sum(axis=1).tolist()
                else:
                    totals = values[:, -1].tolist()
                for i, total, indices in zip(at, totals, columns.tolist()):
                    requirements[i] = total
                    chosen[i] = tuple(indices)
            results.extend(
                RequestWorkforce(
                    request_id=request.request_id,
                    requirement=requirements[i],
                    strategy_indices=chosen[i],
                    eligible_count=eligible[i],
                )
                for i, request in enumerate(chunk)
            )
        return results


def _k_cheapest(grid: np.ndarray, k: int) -> "tuple[np.ndarray, np.ndarray]":
    """Each row's ``k`` smallest cells, ordered by (value, column index).

    Returns ``(columns, values)``, both of shape ``(rows, k)``: the first
    ``k`` entries of a stable ``argsort`` of each row and their values,
    without sorting the row.  A partition finds each row's ``k``-th
    value; every cell below it is kept, plus the lowest-index cells tied
    at it, and only those ``k`` are sorted.  Requires ``1 <= k <= |row|``.
    """
    kth = np.partition(grid, k - 1, axis=1)[:, k - 1 : k]
    below = grid < kth
    ties = grid == kth
    room = k - below.sum(axis=1, keepdims=True)
    keep = below | (ties & (ties.cumsum(axis=1) <= room))
    columns = keep.nonzero()[1].reshape(-1, k)
    values = grid[keep].reshape(-1, k)
    order = values.argsort(axis=1, kind="stable")
    rows = np.arange(len(grid))[:, None]
    return columns[rows, order], values[rows, order]
