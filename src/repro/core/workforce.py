"""Workforce requirement computation (§3.2).

Step 1 builds the matrix ``W[i][j]`` — the minimum workforce needed to
deploy request ``i`` with strategy ``j`` — by inverting the linear models
(Figure 3a).  Step 2 aggregates each row into a single requirement
``~w_i``: the *sum-case* deploys all ``k`` recommended strategies (sum of
the ``k`` smallest cells, Figure 3b); the *max-case* deploys only one of
them (the ``k``-th smallest cell, Figure 3c).

Everything here is vectorized over strategies so a single request row is
one numpy pass even with millions of strategies.  The batch path
(:meth:`WorkforceComputer.aggregate_all`) additionally vectorizes over
*requests*: a block of requests is inverted against every strategy in one
broadcasted ``(m, |S|)`` pass instead of a per-request Python loop, with
block sizes capped so memory stays bounded on huge ensembles.
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
        """The full ``m × |S|`` matrix (Figure 3a). Prefer :meth:`aggregate`
        for large inputs — rows are recomputed on demand there instead."""
        return self.rows([req.params for req in requests])

    # -------------------------------------------------------------- aggregate
    def _eligibility_bound(self) -> float:
        if self.eligibility == "pool":
            return 1.0
        return float(self.availability)

    def aggregate(self, request: DeploymentRequest) -> RequestWorkforce:
        """Per-request requirement ``~w_i`` plus the k strategies backing it."""
        row = self.row(request.params)
        bound = self._eligibility_bound()
        eligible = np.flatnonzero(row <= bound + _EPS)
        k = request.k
        if eligible.size < k:
            return RequestWorkforce(
                request_id=request.request_id,
                requirement=math.inf,
                strategy_indices=(),
                eligible_count=int(eligible.size),
            )
        values = row[eligible]
        # The k cheapest by ascending (workforce, strategy index) — the
        # stable rule `aggregate_all` applies.  argpartition alone may pick
        # an arbitrary subset of strategies tied at the k-th value, so ties
        # at that boundary are resolved toward the lowest indices.
        kth = float(values[np.argpartition(values, k - 1)[:k]].max())
        below = np.flatnonzero(values < kth)
        at_boundary = np.flatnonzero(values == kth)[: k - below.size]
        selected = np.concatenate([below, at_boundary])
        chosen = eligible[selected[np.argsort(values[selected], kind="stable")]]
        chosen_values = row[chosen]
        if self.aggregation == "sum":
            requirement = float(chosen_values.sum())
        else:
            requirement = float(chosen_values.max())
        return RequestWorkforce(
            request_id=request.request_id,
            requirement=requirement,
            strategy_indices=tuple(int(i) for i in chosen),
            eligible_count=int(eligible.size),
        )

    #: Cell budget per vectorized block: keeps the ``(rows, |S|)``
    #: intermediates of :meth:`rows` around L2-cache size (~1 MB), which
    #: benchmarks faster than memory-bandwidth-bound multi-MB blocks.
    BLOCK_CELLS = 131_072
    #: Below this many rows per block the per-row ``argsort`` tax outweighs
    #: the batching win; fall back to the per-request path.
    MIN_BLOCK_ROWS = 8

    def aggregate_all(
        self, requests: "list[DeploymentRequest]"
    ) -> list[RequestWorkforce]:
        """Vector ``~W`` of §3.2 step 2, one entry per request.

        Requests are processed in blocks through the broadcasted
        :meth:`rows` grid; per block, one stable argsort orders every row
        by ``(workforce, strategy index)`` so the k cheapest eligible
        strategies match :meth:`aggregate`'s choice exactly.
        """
        if not requests:
            return []
        n = len(self.ensemble)
        bound = self._eligibility_bound()
        block = max(1, self.BLOCK_CELLS // max(n, 1))
        if block < self.MIN_BLOCK_ROWS or len(requests) == 1:
            # Giant ensembles (or single requests): the per-strategy
            # vectorization in `aggregate` already dominates; its
            # argpartition beats sorting million-entry rows.
            return [self.aggregate(request) for request in requests]
        results: list[RequestWorkforce] = []
        for start in range(0, len(requests), block):
            chunk = requests[start : start + block]
            grid = self.rows([r.params for r in chunk])
            order = np.argsort(grid, axis=1, kind="stable")
            ranked = np.take_along_axis(grid, order, axis=1)
            eligible_counts = (ranked <= bound + _EPS).sum(axis=1)
            # Gather every per-request scalar in one vectorized pass —
            # requirement (the k-prefix sum or the k-th value), eligible
            # count, chosen indices — so the remaining loop is pure
            # Python-object assembly with no per-row NumPy reductions.
            # Rows are grouped by k so the sum-case reduction runs the
            # same length-k pairwise ``.sum`` as :meth:`aggregate` (a
            # cumsum would associate additions differently and drift in
            # the last ulp).  The distinct ks come from a Python set:
            # NumPy 2's ``np.unique`` imports ``numpy.ma`` on first use.
            ks = np.fromiter((r.k for r in chunk), dtype=np.intp, count=len(chunk))
            requirements = np.empty(len(chunk))
            for k_val in sorted(set(ks.tolist())):
                mask = ks == k_val
                kk = min(k_val, n)
                if self.aggregation == "sum":
                    requirements[mask] = ranked[mask, :kk].sum(axis=1)
                else:
                    requirements[mask] = ranked[mask, kk - 1]
            feasible = (ks <= eligible_counts).tolist()
            requirement_list = requirements.tolist()
            eligible_list = eligible_counts.tolist()
            order_list = order.tolist()
            for i, request in enumerate(chunk):
                if not feasible[i]:
                    results.append(
                        RequestWorkforce(
                            request_id=request.request_id,
                            requirement=math.inf,
                            strategy_indices=(),
                            eligible_count=eligible_list[i],
                        )
                    )
                    continue
                results.append(
                    RequestWorkforce(
                        request_id=request.request_id,
                        requirement=requirement_list[i],
                        strategy_indices=tuple(order_list[i][: request.k]),
                        eligible_count=eligible_list[i],
                    )
                )
        return results
