"""Shared relaxation geometry for the ADPaR solver subsystem.

Every ADPaR backend — the exact sweep, the weighted/norm variants, and
the three §5.2.1 baselines — works in the same unified smaller-is-better
space of §4.1: strategies become points ``(C, Q', L) = (cost, 1−quality,
latency)`` and a request becomes an origin whose per-dimension
*relaxations* (Table 3) say how far each bound must grow to admit each
strategy.  The seed re-derived that space inside every solver class; a
:class:`RelaxationSpace` is instead built **once per (ensemble,
availability)** — by :meth:`repro.engine.EngineCache.relaxation_space`
when traffic flows through the engine — and handed to every backend, so
five solvers over the same ensemble pay for parameter estimation and the
per-dimension sweep orders exactly once.

Backends never mutate a space, which is what makes it safe to share
across solver instances and engine caches.  Its sorted structures (sweep
orders, the sorted cost column, per-``k`` global frontiers) are filled
lazily; each is a pure function of :attr:`RelaxationSpace.points`, so
two threads filling one at once store equal values.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import TriParams
from repro.core.strategy import StrategyEnsemble
from repro.geometry.sweepline import block_frontier


class RelaxationSpace:
    """Precomputed unified-space geometry shared by every ADPaR backend.

    Parameters
    ----------
    ensemble:
        Candidate strategies; parameters are estimated at ``availability``
        (Equation 4).
    availability:
        Expected workforce ``W`` used for the estimation.

    Attributes
    ----------
    points:
        ``(n, 3)`` unified smaller-is-better matrix in column order
        ``(C, Q', L)`` — the single source every backend reads.
    """

    def __init__(self, ensemble: StrategyEnsemble, availability: float = 1.0):
        self.ensemble = ensemble
        self.availability = float(availability)
        matrix = ensemble.estimate_matrix(self.availability)  # (n, 3) q/c/l
        self.points = np.column_stack(
            [matrix[:, 1], 1.0 - matrix[:, 0], matrix[:, 2]]
        )
        # Sorted structures are derived lazily: scalar callers that never
        # sweep (e.g. the R-tree baseline) skip them.
        self._orders: "np.ndarray | None" = None
        self._sorted_x: "np.ndarray | None" = None
        self._global_frontiers: "dict[int, tuple[np.ndarray, np.ndarray]]" = {}

    @property
    def size(self) -> int:
        """Number of strategies (points) in the space."""
        return self.points.shape[0]

    @property
    def dimension_orders(self) -> np.ndarray:
        """``(3, n)`` stable per-dimension sweep orders (the paper's
        Table 5 sweep-lines, one argsort per unified-space dimension)."""
        if self._orders is None:
            self._orders = np.vstack(
                [np.argsort(self.points[:, d], kind="stable") for d in range(3)]
            )
        return self._orders

    @property
    def sorted_x(self) -> np.ndarray:
        """The cost column of :attr:`points`, sorted ascending."""
        if self._sorted_x is None:
            self._sorted_x = self.points[self.dimension_orders[0], 0]
        return self._sorted_x

    def global_frontier(self, k: int) -> "tuple[np.ndarray, np.ndarray]":
        """The k-coverage frontier over every point, as ``(Y, Z)`` arrays.

        :func:`~repro.geometry.sweepline.block_frontier` over the ``(y,
        z)`` columns in :attr:`dimension_orders` ``y`` order, cached per
        ``k``.  Equal ``y`` values keep index order rather than ``z``
        order, so the pairs can differ from a lexsorted pass only in
        pairs that share their ``Y`` with the group's last pair and have
        a larger ``Z``.  The exact sweep reads the minimum of an
        objective nondecreasing in ``Y`` and ``Z``, which such pairs
        cannot lower, so its 2-D lower bound is float-equal to one over
        the heap reference
        :meth:`~repro.geometry.sweepline.ParetoSweep.frontier`
        (property-pinned).
        """
        pair = self._global_frontiers.get(k)
        if pair is None:
            order = self.dimension_orders[1]
            pairs = list(
                block_frontier(self.points[order, 1], self.points[order, 2], k)
            )
            pair = (
                np.array([y for y, _ in pairs], dtype=float),
                np.array([z for _, z in pairs], dtype=float),
            )
            self._global_frontiers[k] = pair
        return pair

    # -------------------------------------------------------------- requests
    @staticmethod
    def origin_of(params: TriParams) -> np.ndarray:
        """A request's anchor in the unified space, order ``(C, Q', L)``."""
        return np.array(
            [params.cost, 1.0 - params.quality, params.latency], dtype=float
        )

    @staticmethod
    def origins_of(params: "list[TriParams]") -> np.ndarray:
        """:meth:`origin_of` for many requests, stacked into ``(r, 3)``."""
        return np.array(
            [(p.cost, 1.0 - p.quality, p.latency) for p in params], dtype=float
        )

    def relaxations(self, origin: np.ndarray) -> np.ndarray:
        """Step 1 (Table 3): clipped per-dimension relaxations, ``(n, 3)``."""
        return np.maximum(self.points - origin[None, :], 0.0)

    def relaxation_batch(
        self, origins: np.ndarray, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Relaxation matrices for a block of requests at once.

        ``origins`` has shape ``(r, 3)``; the result has shape
        ``(r, n, 3)`` and row ``i`` equals ``relaxations(origins[i])``
        value for value — one broadcasted pass instead of ``r`` scalar
        ones.  ``out``, when given, receives the result in place — the
        batch solvers recycle one warm buffer across calls because
        faulting in ~10MB of fresh pages per block costs more than the
        arithmetic.
        """
        diff = np.subtract(self.points[None, :, :], origins[:, None, :], out=out)
        return np.maximum(diff, 0.0, out=diff)

    def sweep_table(
        self, origin_x: float, eps: float, scratch=None
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """The sweep's cost candidates: ``(sorted_relax, xs, prefix)``.

        ``sorted_relax`` and ``xs`` equal — value for value — ``np.sort``
        respectively ``np.unique`` of the relaxation matrix's cost
        column, but are derived from the precomputed :attr:`sorted_x` in
        ``O(n)``: subtraction and clipping are monotone, so the point
        order survives.  ``prefix[j]`` equals
        ``np.searchsorted(sorted_relax, xs[j] + eps, side="right")`` —
        the number of rows a sweep admits at candidate ``j`` — but is
        read off the uniqueness mask in ``O(n)``: every row's value *is*
        some candidate, so the count of rows ``<= xs[j] + eps`` is the
        start offset of the next distinct value, unless a later
        candidate falls within ``eps`` of ``xs[j]``.  That near-collision
        is detected with the identical float comparison the search would
        make (``xs[j + 1] <= xs[j] + eps``), and any hit falls back to
        the real ``searchsorted`` — so the returned prefix is
        index-for-index what the direct computation yields.

        ``scratch``, when given, is a duck-typed buffer bundle (the
        solver's per-thread sweep scratch: ``table_sorted``, ``mask``,
        ``table_xs``, ``table_starts``, ``table_prefix``, ``tmp``,
        ``arange``, all sized ``n``) that receives every intermediate —
        the returned arrays then alias the scratch and stay valid until
        its next use.  Both forms run the identical float operations.
        """
        n = self.sorted_x.size
        if scratch is None:
            sorted_relax = np.maximum(self.sorted_x - float(origin_x), 0.0)
            keep = np.empty(n, dtype=bool)
        else:
            sorted_relax = np.subtract(
                self.sorted_x, float(origin_x), out=scratch.table_sorted
            )
            np.maximum(sorted_relax, 0.0, out=sorted_relax)
            keep = scratch.mask
        keep[0] = True
        np.not_equal(sorted_relax[1:], sorted_relax[:-1], out=keep[1:])
        if scratch is None:
            xs = sorted_relax[keep]
            starts = np.flatnonzero(keep)
        else:
            u = int(np.count_nonzero(keep))
            xs = scratch.table_xs[:u]
            np.compress(keep, sorted_relax, out=xs)
            starts = scratch.table_starts[:u]
            np.compress(keep, scratch.arange, out=starts)
        collision = False
        if xs.size > 1:
            if scratch is None:
                collision = bool(np.any(xs[1:] <= xs[:-1] + eps))
            else:
                # ``keep`` is free once ``starts`` is extracted.
                thresholds = np.add(xs[:-1], eps, out=scratch.tmp[: xs.size - 1])
                np.less_equal(xs[1:], thresholds, out=keep[: xs.size - 1])
                collision = bool(keep[: xs.size - 1].any())
        if collision:
            prefix = np.searchsorted(sorted_relax, xs + eps, side="right")
        else:
            prefix = (
                np.empty(xs.size, dtype=np.intp)
                if scratch is None
                else scratch.table_prefix[: xs.size]
            )
            prefix[:-1] = starts[1:]
            prefix[-1] = n
        return sorted_relax, xs, prefix
