"""Pluggable ADPaR solver backends for the recommendation engine.

A *solver* answers the other half of the engine's job — given a request
the planner could not satisfy, which alternative parameters ``d'`` to
recommend (§4) — behind a single protocol: ``solve(request, k) ->
ADPaRResult`` plus a batch form ``solve_batch(requests)``.  The registry
maps stable backend names to factories so callers (the engine, the CLI's
``--solver`` flag, the fig17/fig18 runners) can swap solvers without
rewiring, exactly parallel to :class:`~repro.engine.registry.PlannerRegistry`:

========================  ====================================================
``adpar-exact``           Index-pruned exact sweep (Theorem 4) over the
                          space's presorted orders and cached global
                          frontier, pinned bitwise-identical to
                          :class:`ADPaRExact` — the default.
``adpar-incremental``     The same solver under a second name, which
                          engine specs and recorded journals carry.
``adpar-weighted``        Exact under a monotone penalty: ``norm`` ∈
                          {l1, l2, linf} and per-dimension ``weights``.
``onedim``                Baseline2 — one-parameter-at-a-time refinement
                          (Mishra et al.; §5.2.1).
``rtree``                 Baseline3 — R-tree MBB scan (§5.2.1).
``bruteforce``            ADPaRB — exhaustive k-subset enumeration
                          (exact, exponential).
========================  ====================================================

All of them share the context's :class:`~repro.core.relaxation.RelaxationSpace`,
so one engine comparing several backends over the same ensemble builds
the unified smaller-is-better geometry once.

The exact backend's ``solve_batch`` first passes each chunk's
``(r, n, 3)`` relaxation block through one certificate,
:func:`_admissible_results`.  A request that at least ``k`` strategies
already satisfy (zero relaxation in all three dimensions) has optimum
``d' = d``: the reference sweep's first corner ``(0, 0, 0)`` scores 0
and nothing can strictly beat it.  Such requests get their results
block-wide, with no sweep; every other request runs its sweep
unchanged.  On the serving benchmark's workloads (``resolve-small``,
``session-journaled``, ``cluster-routed``, ``alternatives-large``) 100%
of ADPaR requests are of this kind: the planner refused them on
workforce, not on parameters.  The ``hard_request_for`` traffic of
fig17/fig18 and the ADPaR benches has none and pays only the
``O(r·n)`` check.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from dataclasses import replace as _dataclass_replace
from typing import Protocol, Sequence

import numpy as np

from repro.baselines.adpar_bruteforce import adpar_brute_force
from repro.baselines.adpar_onedim import OneDimBaseline
from repro.baselines.adpar_rtree import RTreeBaseline
from repro.core.adpar import ADPaRResult, finalize_result, unpack_request
from repro.core.adpar_variants import RelaxationPenalty, WeightedADPaR
from repro.core.params import TriParams
from repro.core.relaxation import RelaxationSpace
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.exceptions import InfeasibleRequestError, UnknownSolverError
from repro.geometry.sweepline import FrontierCursor
from repro.utils.registry import Registry

_EPS = 1e-12

#: Four rounding steps (two adds per corner objective, one add and one
#: minimum materialization in the admitted-norm floor) separate the
#: skip bound from the objectives it underestimates, so shrinking it by
#: four ulps makes "floor can't beat best" safe in float: a candidate is
#: only skipped when *no* corner objective can strictly improve.
_SKIP_MARGIN = 1.0 - 4.5e-16

#: One request as the solver protocol accepts it.
SolverRequest = "DeploymentRequest | TriParams"


@dataclass(frozen=True)
class SolverContext:
    """Everything a solver backend needs to instantiate itself."""

    ensemble: StrategyEnsemble
    availability: float
    space: "RelaxationSpace | None" = None

    def with_space(self) -> "SolverContext":
        """This context with a :class:`RelaxationSpace` guaranteed.

        The engine cache shares spaces by ensemble fingerprint, so a
        space may have been built for another ensemble object with the
        same content: every inline upload decodes a new one.  The
        context then adopts the space's object, which the baselines'
        ``space.ensemble is ensemble`` checks accept; a space built for
        different content is left for the backend to reject.
        """
        space = self.space
        if space is None:
            return _dataclass_replace(
                self, space=RelaxationSpace(self.ensemble, self.availability)
            )
        if space.ensemble is not self.ensemble:
            # Deferred: repro.engine.cache imports this module.
            from repro.engine.cache import ensemble_fingerprint

            if ensemble_fingerprint(space.ensemble) == ensemble_fingerprint(
                self.ensemble
            ):
                return _dataclass_replace(self, ensemble=space.ensemble)
        return self


class AdparSolver(Protocol):
    """The one seam every alternative-parameter solver sits behind."""

    name: str
    space: RelaxationSpace

    def solve(
        self, request: SolverRequest, k: "int | None" = None
    ) -> ADPaRResult:
        """Alternative parameters admitting ``k`` strategies."""
        ...

    def solve_batch(
        self, requests: Sequence[SolverRequest], k: "int | None" = None
    ) -> list[ADPaRResult]:
        """Solve many requests over the shared geometry in one call."""
        ...


def solver_options_key(options: "dict | None") -> tuple:
    """Canonical hashable form of backend options, for cache keys.

    Sorted by key; list/tuple values (e.g. ``weights``) become tuples so
    ``{"norm": "l1", "weights": [2, 1, 1]}`` keys identically however the
    caller spelled it.
    """

    def freeze(value):
        if isinstance(value, (list, tuple)):
            return tuple(freeze(v) for v in value)
        if isinstance(value, dict):
            return tuple(sorted((k, freeze(v)) for k, v in value.items()))
        return value

    return tuple(sorted((k, freeze(v)) for k, v in (options or {}).items()))


# --------------------------------------------------------------- certificate
def _admissible_results(
    ensemble: StrategyEnsemble,
    part: "list[tuple[TriParams, int]]",
    relax_block: np.ndarray,
) -> "list[ADPaRResult | None]":
    """Answer, block-wide, the requests that already admit ``k`` strategies.

    A request is *certified* when at least ``k`` strategies need no
    relaxation at all (all three exactly ``0.0``).  The reference sweep's
    first candidate is then ``x = 0.0``, whose admitted rows hold ``k``
    points at ``(0, 0)``: its first corner ``(0, 0, 0)`` scores 0, and no
    later corner can strictly beat 0, so ``d' = d``.

    :func:`~repro.core.adpar.finalize_result` at ``best = (0, 0, 0)``
    keeps the ``k`` covered rows smallest by (norm, index).  A row's norm
    is exactly 0 iff every squared component is 0 (a sum of nonnegative
    terms, in any order), i.e. iff the square of its largest component
    is; such rows are covered, and the ``k`` exact-zero rows are among
    them.  So the chosen strategies are the ``k`` lowest-index zero-norm
    rows, read off the whole ``(r, n, 3)`` block at once.  Every other
    slot is ``None``: that request needs the sweep.
    """
    results: "list[ADPaRResult | None]" = [None] * len(part)
    ks = np.fromiter((kk for _, kk in part), dtype=np.intp, count=len(part))
    # Relaxations are >= 0, so the row maximum is 0 iff the row is.
    largest = np.maximum(relax_block[..., 0], relax_block[..., 1])
    np.maximum(largest, relax_block[..., 2], out=largest)
    certified = np.flatnonzero((largest == 0.0).sum(axis=1) >= ks)
    if certified.size == 0:
        return results
    largest = largest[certified]
    zero_norm = largest * largest == 0.0
    _, columns = np.nonzero(zero_norm)
    columns = columns.tolist()
    names = ensemble.names
    start = 0
    for i, count in zip(certified.tolist(), zero_norm.sum(axis=1).tolist()):
        params, kk = part[i]
        chosen = tuple(columns[start : start + kk])
        start += count
        results[i] = ADPaRResult(
            original=params,
            # finalize_result's clip expressions at x = y = z = 0, not
            # ``params`` itself: they normalize a -0.0 cost the same way.
            alternative=TriParams(
                quality=min(max(params.quality - 0.0, 0.0), 1.0),
                cost=min(max(params.cost + 0.0, 0.0), 1.0),
                latency=min(max(params.latency + 0.0, 0.0), 1.0),
            ),
            distance=0.0,
            squared_distance=0.0,
            relaxation=(0.0, 0.0, 0.0),
            strategy_indices=chosen,
            strategy_names=tuple(names[j] for j in chosen),
        )
    return results


# --------------------------------------------------------------------- exact
def _relax_frontier_order(
    space: RelaxationSpace, scratch: _SweepScratch
) -> np.ndarray:
    """Row order sorting a request's relaxations by ``(relax_y, relax_z)``.

    No lexsort: the per-dimension relaxations are monotone nondecreasing
    images of the point coordinates (``max(p − o, 0)``), so the space's
    precomputed point orders already almost sort them:

    * rows whose ``relax_y`` clipped to zero, ordered by the global
      z-dimension order (``relax_z`` is monotone in ``point_z``), come
      first;
    * rows with positive ``relax_y`` follow in the global y-dimension
      order.

    The only disagreement with a true lexsort is inside groups of
    *distinct* point values that subtraction collapsed onto one
    ``relax_y`` — detected by one neighbour comparison and re-ordered by
    ``relax_z`` per (rare, tiny) group.  Ties in ``(relax_y, relax_z)``
    are value-identical rows, so their internal order cannot change any
    frontier yield.

    ``scratch.col_y``/``col_z`` must already hold staged copies of the
    relaxations' y/z columns.  Every ``O(n)`` temporary lands in a warm
    scratch buffer, and the two halves compress straight into adjacent
    slices of ``scratch.order_out``; the returned order is that buffer.
    """
    orders = space.dimension_orders
    y_order = orders[1]
    z_order = orders[2]
    relax_z = scratch.col_z
    relax_y_sorted = np.take(scratch.col_y, y_order, out=scratch.cursor_y)
    positive = np.greater(relax_y_sorted, 0.0, out=scratch.mask)
    zero_by_z = np.take(scratch.col_y, z_order, out=scratch.cursor_z)
    zero_mask = np.equal(zero_by_z, 0.0, out=scratch.mask2)
    # relax_y = max(p − o, 0) >= 0, so the two halves partition the
    # rows and fill order_out exactly.
    n_zero = int(np.count_nonzero(zero_mask))
    np.compress(zero_mask, z_order, out=scratch.order_out[:n_zero])
    positive_part = scratch.order_out[n_zero:]
    np.compress(positive, y_order, out=positive_part)
    if positive_part.size > 1:
        relax_y_positive = scratch.tmp[: positive_part.size]
        np.compress(positive, relax_y_sorted, out=relax_y_positive)
        collapsed = np.flatnonzero(relax_y_positive[1:] == relax_y_positive[:-1])
        if collapsed.size:
            cursor = 0
            while cursor < collapsed.size:
                start = int(collapsed[cursor])
                end = start + 1
                cursor += 1
                while cursor < collapsed.size and int(collapsed[cursor]) == end:
                    end += 1
                    cursor += 1
                group = positive_part[start : end + 1]
                positive_part[start : end + 1] = group[
                    np.argsort(relax_z[group], kind="stable")
                ]
    return scratch.order_out


class _SweepScratch:
    """Warm per-solver buffers for the indexed sweep's ``O(n)`` setup.

    Every request rebuilds the same ten ``n``-sized temporaries; at
    fig18 scale each is large enough that a fresh allocation is served
    by freshly mapped pages, and faulting those in costs more than the
    gathers that fill them.  One scratch per solver keeps the pages warm
    across a batch.  The values written are the same floats fresh arrays
    would hold, so results are unchanged.
    """

    __slots__ = (
        "n",
        "col_y",
        "col_z",
        "cursor_y",
        "cursor_z",
        "entering_y",
        "entering_z",
        "position_of",
        "position_by_rank",
        "norm",
        "bound",
        "arange",
        "mask",
        "mask2",
        "tmp",
        "order_out",
        "table_sorted",
        "table_xs",
        "table_starts",
        "table_prefix",
    )

    def __init__(self, n: int):
        self.n = n
        self.col_y = np.empty(n)
        self.col_z = np.empty(n)
        self.cursor_y = np.empty(n)
        self.cursor_z = np.empty(n)
        self.entering_y = np.empty(n)
        self.entering_z = np.empty(n)
        self.position_of = np.empty(n, dtype=np.intp)
        self.position_by_rank = np.empty(n, dtype=np.intp)
        self.norm = np.empty(n)
        self.bound = np.empty(n)
        self.arange = np.arange(n, dtype=np.intp)
        self.mask = np.empty(n, dtype=bool)
        self.mask2 = np.empty(n, dtype=bool)
        self.tmp = np.empty(n)
        self.order_out = np.empty(n, dtype=np.intp)
        self.table_sorted = np.empty(n)
        self.table_xs = np.empty(n)
        self.table_starts = np.empty(n, dtype=np.intp)
        self.table_prefix = np.empty(n, dtype=np.intp)


def _indexed_sweep(
    space: RelaxationSpace,
    relax: np.ndarray,
    origin: np.ndarray,
    k: int,
    scratch: _SweepScratch,
    block: int = 2048,
) -> tuple[float, float, float]:
    """The exact sweep of ``ADPaRExact._sweep``, result-identical but fast.

    The reference scan evaluates the full 2-D Pareto frontier at *every*
    candidate cost relaxation — ``O(|S|)`` work per candidate.  The
    returned optimum, however, is the lexicographic minimum of
    ``(X² + Y² + Z², X, Y)`` over all (candidate, frontier-point) pairs
    (the reference's strict-improvement scan order is exactly that tie
    break), which licenses prunes that never change the winner:

    * **Frontier-change gating.**  If no strategy entering at candidate
      ``x`` pierces the current (quality, latency) staircase, the
      frontier at ``x`` equals the last evaluated one, so every pair at
      ``x`` is strictly dominated by the same ``(Y, Z)`` at the smaller,
      already-evaluated ``x``.  One vectorized galloping scan over the
      entering points finds the next candidate whose arrivals pierce
      the staircase, so Python touches one iteration per *frontier
      change* instead of per candidate.
    * **Global 2-D bound.**  ``G``, the unconstrained-cost optimum of
      ``Y² + Z²``, lower-bounds every candidate's 2-D completion, so the
      scan stops at ``X² + G ≥ best`` — strictly earlier than the
      reference's ``X² ≥ best`` Figure-8 bound.  ``G`` maps the space's
      cached per-``k`` frontier (:meth:`RelaxationSpace.global_frontier`)
      through the request origin; the mapped minimum is float-equal to
      one over the heap reference's frontier.
    * **Admitted-norm floor.**  Candidates whose admitted-norm floor
      provably cannot beat the running best skip their evaluation
      outright (:data:`_SKIP_MARGIN`).

    Every per-request ``O(n log n)`` ingredient is replaced by an
    ``O(n)`` (or cached) one: the (y, z) enumeration order comes from
    the space's precomputed dimension orders
    (:func:`_relax_frontier_order`), not a lexsort; strategies enter by
    x-rank prefix (:meth:`RelaxationSpace.sweep_table`), not an argsort
    over entry candidates; and per-candidate frontiers come from a
    :class:`~repro.geometry.sweepline.FrontierCursor`, which repairs the
    previous frontier with the newly admitted rows instead of rescanning
    every admitted row.

    The staircase-gating and bound-break comparisons are the same float
    expressions as the reference's, evaluated against the same corner
    values, so the winner under the reference's strict-improvement
    tie-break is identical; property tests pin it bitwise against
    :class:`~repro.core.adpar.ADPaRExact`.
    """
    origin_x = float(origin[0])
    origin_y = float(origin[1])
    origin_z = float(origin[2])
    # Stage the strided (y, z) columns contiguous once; every gather
    # below — and the order derivation — then runs through
    # ``np.take``/``np.compress`` with ``out=`` on warm buffers.
    np.copyto(scratch.col_y, relax[:, 1])
    np.copyto(scratch.col_z, relax[:, 2])
    # Prefix length per candidate: row i is covered at candidate j iff
    # its cost relaxation is within xs[j] + eps — identical admission
    # rule (and float comparison) to the reference's coverage mask.
    _, xs, prefix = space.sweep_table(origin_x, _EPS, scratch)
    order = _relax_frontier_order(space, scratch)
    np.take(scratch.col_y, order, out=scratch.cursor_y)
    np.take(scratch.col_z, order, out=scratch.cursor_z)
    cursor = FrontierCursor(scratch.cursor_y, scratch.cursor_z, k, chunk=block)
    # Position (in the cursor's enumeration order) of the row holding
    # each admission rank, so newly admitted rank ranges turn into
    # cursor positions with one gather.
    position_of = scratch.position_of
    position_of[order] = scratch.arange
    x_order = space.dimension_orders[0]
    position_by_rank = scratch.position_by_rank
    np.take(position_of, x_order, out=position_by_rank)
    entering_y = scratch.entering_y
    entering_z = scratch.entering_z
    np.take(scratch.col_y, x_order, out=entering_y)
    np.take(scratch.col_z, x_order, out=entering_z)
    # Running minimum of the admitted points' (y² + z²) norms, by entry
    # order.  Every staircase corner pairs a pushed point's y with a
    # k-th-smallest z that is >= that point's own z, so a corner's norm
    # is >= its point's norm >= this prefix minimum — which makes
    # ``x² + prefix_min`` a lower bound on everything a frontier
    # evaluation at that prefix could produce.  Candidates whose bound
    # (shrunk by :data:`_SKIP_MARGIN` to absorb rounding) cannot beat
    # the running best skip the evaluation outright.
    prefix_min_norm = scratch.norm
    np.multiply(entering_y, entering_y, out=prefix_min_norm)
    np.multiply(entering_z, entering_z, out=scratch.bound)
    np.add(prefix_min_norm, scratch.bound, out=prefix_min_norm)
    np.minimum.accumulate(prefix_min_norm, out=prefix_min_norm)
    global_y, global_z = space.global_frontier(k)
    mapped_y = np.maximum(global_y - origin_y, 0.0)
    mapped_z = np.maximum(global_z - origin_z, 0.0)
    G = float(np.min(mapped_y * mapped_y + mapped_z * mapped_z))
    # x² + G is nondecreasing (float add is monotone), so the scan's
    # stop point under the current best is one exact binary search.
    bound_curve = scratch.bound[: xs.size]
    np.multiply(xs, xs, out=bound_curve)
    np.add(bound_curve, G, out=bound_curve)

    best_obj = math.inf
    best: "tuple[float, float, float] | None" = None
    corners_y: "np.ndarray | None" = None
    corners_z: "np.ndarray | None" = None
    candidates = xs.size
    j = int(np.searchsorted(prefix, k, side="left"))  # first covering >= k
    row = -1  # next entering row the pierce scan has not cleared yet
    admitted = 0  # ranks already handed to the cursor
    while j < candidates:
        x = float(xs[j])
        if x * x + G >= best_obj:
            break
        p = int(prefix[j])
        if (
            corners_y is None
            or (x * x + float(prefix_min_norm[p - 1])) * _SKIP_MARGIN
            < best_obj
        ):
            new_positions = np.sort(position_by_rank[admitted:p])
            admitted = p
            corner_list_y, corner_list_z = cursor.frontier(new_positions)
            for y, z in zip(corner_list_y, corner_list_z):
                obj = x * x + y * y + z * z
                if obj < best_obj:
                    best_obj = obj
                    best = (x, y, z)
            corners_y = np.asarray(corner_list_y)
            corners_z = np.asarray(corner_list_z)
            row = p
        # else: skipped — the stale staircase (a pointwise upper envelope
        # of the true one) keeps the gating conservative, and the scan
        # resumes past the row that triggered this visit.
        stop = int(np.searchsorted(bound_curve, best_obj, side="left"))
        if stop <= j + 1:
            break
        row_stop = int(prefix[stop - 1])
        pierced_at = -1
        chunk = 64
        while row < row_stop:
            upto = min(row + chunk, row_stop)
            slot = (
                np.searchsorted(corners_y, entering_y[row:upto], side="right") - 1
            )
            # take(mode="clip") maps slot -1 onto corner 0; the slot < 0
            # disjunct keeps those rows counted as piercing regardless.
            pierced = (slot < 0) | (
                entering_z[row:upto] < corners_z.take(slot, mode="clip")
            )
            hits = np.flatnonzero(pierced)
            if hits.size:
                pierced_at = row + int(hits[0])
                break
            row = upto
            chunk = min(chunk * 2, 4096)
        if pierced_at < 0:
            break
        row = pierced_at + 1
        j = int(np.searchsorted(prefix, pierced_at, side="right"))
    if best is None:
        raise InfeasibleRequestError("sweep found no covering relaxation")
    return best


class ExactSolver:
    """``adpar-exact``: the index-pruned exact sweep (Theorem 4).

    Bitwise-identical outputs (distance, alternative parameters, chosen
    strategy indices) to the reference
    :class:`~repro.core.adpar.ADPaRExact` — property-pinned for scalar,
    batch, and per-availability traffic — while reusing the space's
    presorted orders and its cached per-``k`` global frontier.

    Option ``block`` (default 2048) is the frontier cursor's chunk size.
    """

    name = "adpar-exact"

    #: Requests per relaxation-matrix block; bounds peak memory at
    #: ``_CHUNK × n × 3`` floats while keeping the broadcast win.
    _CHUNK = 128

    def __init__(self, context: SolverContext, options: dict):
        context = context.with_space()
        self.ensemble = context.ensemble
        self.availability = context.availability
        self.space = context.space
        self._block = int(options.get("block", 2048))
        if self._block < 1:
            raise ValueError(f"block must be >= 1, got {self._block}")
        # Warm scratch, per thread: solver instances are cached in the
        # EngineCache and shared across the serve path's worker threads,
        # so each thread gets its own buffers.  Refaulting ~10MB of
        # freshly mapped pages per block costs more than the relaxation
        # arithmetic itself — warm pages are the point.
        self._local = threading.local()

    def solve(
        self, request: SolverRequest, k: "int | None" = None
    ) -> ADPaRResult:
        return self.solve_batch([request], k)[0]

    def _sweep_scratch_for(self, n: int) -> _SweepScratch:
        scratch: "_SweepScratch | None" = getattr(self._local, "sweep", None)
        if scratch is None or scratch.n != n:
            scratch = _SweepScratch(n)
            self._local.sweep = scratch
        return scratch

    def _relax_scratch_for(self, rows: int, n: int) -> np.ndarray:
        scratch: "np.ndarray | None" = getattr(self._local, "relax", None)
        if scratch is None or scratch.shape[0] < rows or scratch.shape[1] != n:
            scratch = np.empty((rows, n, 3), dtype=float)
            self._local.relax = scratch
        return scratch[:rows]

    def solve_batch(
        self, requests: Sequence[SolverRequest], k: "int | None" = None
    ) -> list[ADPaRResult]:
        space = self.space
        unpacked = [unpack_request(r, k, space.size) for r in requests]
        sweep_scratch = self._sweep_scratch_for(space.size)
        results: list[ADPaRResult] = []
        for start in range(0, len(unpacked), self._CHUNK):
            part = unpacked[start : start + self._CHUNK]
            origins = space.origins_of([params for params, _ in part])
            relax_block = space.relaxation_batch(
                origins, out=self._relax_scratch_for(len(part), space.size)
            )
            certified = _admissible_results(self.ensemble, part, relax_block)
            for (params, kk), origin, relax, result in zip(
                part, origins, relax_block, certified
            ):
                if result is None:
                    best = _indexed_sweep(
                        space, relax, origin, kk, sweep_scratch, self._block
                    )
                    result = finalize_result(self.ensemble, params, relax, best, kk)
                results.append(result)
        return results


# ------------------------------------------------------------------ wrappers
class _ScalarLoopMixin:
    """Batch form for backends whose algorithm is inherently per-request."""

    def solve_batch(
        self, requests: Sequence[SolverRequest], k: "int | None" = None
    ) -> list[ADPaRResult]:
        return [self.solve(request, k) for request in requests]


class WeightedSolver(_ScalarLoopMixin):
    """``adpar-weighted``: exact under ``norm``/``weights`` options."""

    name = "adpar-weighted"

    def __init__(self, context: SolverContext, options: dict):
        context = context.with_space()
        self.space = context.space
        weights = options.get("weights", (1.0, 1.0, 1.0))
        penalty = RelaxationPenalty(
            weights=tuple(float(w) for w in weights),
            norm=str(options.get("norm", "l2")),
        )
        self.penalty = penalty
        self._solver = WeightedADPaR(
            context.ensemble,
            penalty,
            availability=context.availability,
            space=context.space,
        )

    def solve(
        self, request: SolverRequest, k: "int | None" = None
    ) -> ADPaRResult:
        return self._solver.solve(request, k)


class OneDimSolver(_ScalarLoopMixin):
    """``onedim``: Baseline2, one-parameter-at-a-time refinement."""

    name = "onedim"

    def __init__(self, context: SolverContext, options: dict):
        context = context.with_space()
        self.space = context.space
        self._solver = OneDimBaseline(
            context.ensemble, context.availability, space=context.space
        )

    def solve(
        self, request: SolverRequest, k: "int | None" = None
    ) -> ADPaRResult:
        return self._solver.solve(request, k)


class RTreeSolver(_ScalarLoopMixin):
    """``rtree``: Baseline3, R-tree MBB scan (bulk-loaded once)."""

    name = "rtree"

    def __init__(self, context: SolverContext, options: dict):
        context = context.with_space()
        self.space = context.space
        self._solver = RTreeBaseline(
            context.ensemble,
            context.availability,
            max_entries=int(options.get("max_entries", 8)),
            space=context.space,
        )

    def solve(
        self, request: SolverRequest, k: "int | None" = None
    ) -> ADPaRResult:
        return self._solver.solve(request, k)


class BruteForceSolver(_ScalarLoopMixin):
    """``bruteforce``: ADPaRB subset enumeration (exact, exponential)."""

    name = "bruteforce"

    def __init__(self, context: SolverContext, options: dict):
        context = context.with_space()
        self.ensemble = context.ensemble
        self.availability = context.availability
        self.space = context.space

    def solve(
        self, request: SolverRequest, k: "int | None" = None
    ) -> ADPaRResult:
        return adpar_brute_force(
            self.ensemble,
            request,
            k,
            availability=self.availability,
            space=self.space,
        )


# ------------------------------------------------------------------ registry
class SolverRegistry(Registry):
    """Name → solver factory ``(SolverContext, options) -> AdparSolver``;
    an unknown name raises :class:`UnknownSolverError`."""

    kind = "solver backend"
    error = UnknownSolverError

    def create(
        self,
        name: str,
        context: SolverContext,
        options: "dict | None" = None,
    ) -> AdparSolver:
        """Instantiate a backend for one estimation context."""
        return self.get(name)(context.with_space(), dict(options or {}))


def _builtin_registry() -> SolverRegistry:
    registry = SolverRegistry()
    registry.register(
        "adpar-exact",
        ExactSolver,
        "index-pruned exact sweep (Theorem 4); the default",
    )
    registry.register(
        "adpar-incremental",
        ExactSolver,
        "alias of adpar-exact; specs and journals still carry this name",
    )
    registry.register(
        "adpar-weighted",
        WeightedSolver,
        "exact under per-dimension weights and an l1/l2/linf norm",
    )
    registry.register(
        "onedim",
        OneDimSolver,
        "Baseline2: one-parameter-at-a-time refinement (§5.2.1)",
    )
    registry.register(
        "rtree",
        RTreeSolver,
        "Baseline3: R-tree MBB scan (§5.2.1)",
    )
    registry.register(
        "bruteforce",
        BruteForceSolver,
        "ADPaRB: exhaustive k-subset enumeration; exact, exponential",
    )
    return registry


_DEFAULT_REGISTRY = _builtin_registry()


def default_solver_registry() -> SolverRegistry:
    """The process-wide registry with the built-in backends."""
    return _DEFAULT_REGISTRY
