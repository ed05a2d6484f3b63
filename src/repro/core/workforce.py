"""Workforce requirement computation (§3.2).

Step 1 builds the matrix ``W[i][j]`` — the minimum workforce needed to
deploy request ``i`` with strategy ``j`` — by inverting the linear models
(Figure 3a).  Step 2 aggregates each row into a single requirement
``~w_i`` over the row's ``k`` cheapest eligible strategies, ordered by
(workforce, strategy index): the *sum-case* deploys all ``k`` of them
(sum of the ``k`` smallest cells, Figure 3b); the *max-case* deploys only
one (the ``k``-th smallest cell, Figure 3c).

Step 1 has one kernel, :class:`_Inversion`.  Its tables depend on the
ensemble's α/β alone, so they are built once per ensemble and shared by
every :class:`WorkforceComputer` over it: the three parameters' β
stacked as ``(3, 1, |S|)`` planes, safe divisors, floors, and the masks
of constant models and of models moving toward or away from their
bound.  :meth:`~WorkforceComputer.rows` then inverts a block of requests
against every strategy as one fused ``(3, rows, |S|)`` pass and combines
the planes in place; strict mode reads its budget cap from the cost
plane of that pass and its cost rules from the cost plane's masks.

:meth:`WorkforceComputer.aggregate_all` is the one implementation of
step 2.  It runs :meth:`~WorkforceComputer.rows` block by block, with
the three planes of a block capped at
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
    free, ``inf`` when impossible).  A one-plane call of
    :class:`_Inversion`, the one kernel :meth:`WorkforceComputer.rows`
    runs too.
    """
    inversion = _Inversion(
        np.asarray(alpha, dtype=float)[None, :],
        np.asarray(beta, dtype=float)[None, :],
        (lower_bound,),
    )
    targets = np.array([[target]], dtype=float)
    return inversion.workforce(inversion.solutions(targets), targets)[0, 0]


class _Inversion:
    """Eq. 4 inverted for stacked parameter planes against every strategy.

    ``alpha`` and ``beta`` are ``(planes, n)``; plane ``p`` bounds its
    parameter from below (quality) when ``lower_bound[p]`` is true, from
    above (cost, latency) otherwise.  The per-strategy tables are built
    here once, so inverting ``m`` targets is one broadcasted
    ``(planes, m, n)`` pass: :meth:`solutions`, then :meth:`workforce`
    over the same array.
    """

    def __init__(self, alpha: np.ndarray, beta: np.ndarray, lower_bound):
        alpha = np.array(alpha, dtype=float)[:, None, :]
        self.beta = np.array(beta, dtype=float)[:, None, :]
        lower = np.array(lower_bound, dtype=bool)[:, None, None]
        self.constant = alpha == 0
        self.has_constant = self.constant.any(axis=(1, 2))
        self.divisor = np.where(self.constant, 1.0, alpha)
        # As workforce grows, a model moves toward its bound (toward) or
        # away from it (away); a constant model does neither.
        self.toward = np.where(lower, alpha > 0, alpha < 0)
        self.away = np.where(lower, alpha < 0, alpha > 0)
        # Where the model moves toward the bound, the solution is floored
        # at 0; elsewhere a negative solution is impossible (the -inf
        # floor leaves it to become inf).
        self.floor = np.where(self.toward, 0.0, -math.inf)
        # A constant model (alpha = 0) needs 0 or inf workforce, decided
        # on its own cells.  Upper-bound planes compare negated sides:
        # ``-b >= -t - eps`` is exactly ``b <= t + eps``.
        self.const_plane, _, self.const_col = np.nonzero(self.constant)
        self.const_sign = np.where(lower, 1.0, -1.0)[self.const_plane, :, 0]
        self.const_beta = self.const_sign * self.beta[
            self.const_plane, :, self.const_col
        ]

    def solutions(self, targets: np.ndarray) -> np.ndarray:
        """Equality solutions for ``(planes, m)`` targets, ``(planes, m, n)``.

        ``(t - beta) / alpha`` per cell, or ``t - beta`` where alpha = 0.
        """
        solved = targets[:, :, None] - self.beta
        return np.divide(solved, self.divisor, out=solved)

    def workforce(self, solved: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Turn :meth:`solutions` into minimal workforces, in place.

        Each cell becomes the least workforce making its constraint
        hold: 0 when free, ``inf`` when impossible.
        """
        np.maximum(solved, self.floor, out=solved)
        np.copyto(solved, math.inf, where=solved < 0.0)
        if self.const_col.size:
            bound = targets[self.const_plane] * self.const_sign - _EPS
            solved[self.const_plane, :, self.const_col] = np.where(
                self.const_beta >= bound, 0.0, math.inf
            )
        return solved


def _inversion_of(ensemble: StrategyEnsemble) -> _Inversion:
    """The ensemble's Eq. 4 tables, built on first use and kept on it.

    They depend on α/β alone, so every computer over one ensemble (one
    per pooled engine configuration) shares them, as it shares the
    ensemble's memoized fingerprint.
    """
    inversion = getattr(ensemble, "_inversion", None)
    if inversion is None:
        # Columns are (quality, cost, latency); quality is a lower bound.
        inversion = _Inversion(
            ensemble.alpha.T, ensemble.beta.T, (True, False, False)
        )
        ensemble._inversion = inversion
    return inversion


@dataclass(frozen=True, slots=True)
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
        self._inversion = _inversion_of(ensemble)

    # ------------------------------------------------------------------- rows
    def row(self, params: TriParams) -> np.ndarray:
        """Workforce requirement ``w_ij`` of one request against every strategy.

        One-request view of :meth:`rows` so the (mode-dependent)
        aggregation rule exists exactly once.
        """
        return self.rows([params])[0]

    def rows(self, params_list: "list[TriParams]") -> np.ndarray:
        """Workforce grid ``w_ij`` for many requests in one broadcasted pass.

        Shape ``(m, n)``; equals stacking :meth:`row` per request.  The
        three parameters are inverted together as one ``(3, m, n)`` pass
        over the ensemble's shared tables — the hot path behind
        :meth:`aggregate_all`.
        """
        inversion = self._inversion
        # Built row by row, so the array is C-ordered: broadcasting a
        # transposed (m, 3) view instead runs the pass ≈ 3x slower.
        targets = np.array(
            [
                [p.quality for p in params_list],
                [p.cost for p in params_list],
                [p.latency for p in params_list],
            ],
            dtype=float,
        )
        solved = inversion.solutions(targets)
        if self.mode == "strict":
            # The budget cap: the cost plane's equality solution.
            cap = solved[1] + _EPS
        # The planes are this call's scratch: each step below writes into
        # them instead of allocating another grid.
        w_q, w_c, w_l = inversion.workforce(solved, targets)
        if self.mode == "paper":
            np.maximum(w_q, w_c, out=w_c)
            return np.maximum(w_c, w_l, out=w_l)
        # Strict: cost is a budget cap.  An increasing cost model (away
        # from its bound) caps the workforce at its equality solution, a
        # constant one over budget admits none, and a decreasing one
        # (toward its bound) still needs w_c.
        requirement = np.maximum(w_q, w_l, out=w_l)
        over = requirement > cap
        over &= inversion.away[1]
        if inversion.has_constant[1]:
            over |= inversion.constant[1] & (w_c == math.inf)
        np.copyto(requirement, math.inf, where=over)
        np.copyto(
            requirement,
            np.maximum(requirement, w_c, out=w_c),
            where=inversion.toward[1],
        )
        return requirement

    def matrix(self, requests: "list[DeploymentRequest]") -> np.ndarray:
        """The full ``m × |S|`` matrix (Figure 3a) in one pass.

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

    #: Cell budget per vectorized block: keeps the ``(3, rows, |S|)``
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
        block = max(1, self.BLOCK_CELLS // (3 * max(n, 1)))
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
