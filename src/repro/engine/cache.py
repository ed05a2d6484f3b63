"""The shared workforce/estimation cache behind the recommendation engine.

Per-request model inversion (§3.2 step 1-2) and ADPaR fallbacks are pure
functions of *(ensemble, workforce configuration, request parameters, k)*
— plus, for ADPaR, *(solver backend, norm, weights)* — they do not
depend on request identity.  Every entry point used to re-fit them from
scratch per call; the engine instead routes all traffic through one
:class:`EngineCache` keyed by the ensemble's content fingerprint, so
repeated parameters (the common case on a platform serving templated
deployment requests) are answered from memory.  The cache also holds the
per-(ensemble, availability) :class:`RelaxationSpace` every solver
backend shares, and the solver instances themselves.

The cache is bounded LRU per section and safe to share across engines —
entries are frozen dataclasses keyed by value tuples, and an infeasible
ADPaR verdict is cached as the text its solve raised.

Thread safety: every LRU section carries its own lock (held only for the
dict operation, never while computing a value), and hit/miss counters are
updated under a dedicated stats lock so accounting stays exact under
concurrent traffic — ``hits + misses`` always equals the number of
probes.  Value computation is deliberately outside any lock: two threads
missing the same key may both compute it, but entries are pure functions
of their key, so the duplicate write is idempotent and decisions are
unaffected.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, replace

import numpy as np

from repro.core.adpar import ADPaRResult, too_few_strategies
from repro.core.relaxation import RelaxationSpace
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.core.workforce import RequestWorkforce, WorkforceComputer
from repro.engine.solvers import (
    AdparSolver,
    SolverContext,
    SolverRegistry,
    default_solver_registry,
    solver_options_key,
)
from repro.exceptions import InfeasibleRequestError
from repro.utils.lru import LRU


def ensemble_fingerprint(ensemble: StrategyEnsemble) -> str:
    """Content hash of an ensemble's models and names.

    Two ensembles with identical coefficients and names share cache
    entries regardless of object identity.  The digest is memoized on the
    ensemble instance, so the arrays are hashed once.
    """
    cached = getattr(ensemble, "_fingerprint", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(ensemble.alpha, dtype=float).tobytes())
    digest.update(np.ascontiguousarray(ensemble.beta, dtype=float).tobytes())
    digest.update("\x00".join(ensemble.names).encode())
    fingerprint = digest.hexdigest()
    ensemble._fingerprint = fingerprint
    return fingerprint


@dataclass
class CacheStats:
    """Hit/miss counters, split by cache section."""

    workforce_hits: int = 0
    workforce_misses: int = 0
    adpar_hits: int = 0
    adpar_misses: int = 0

    @property
    def hits(self) -> int:
        return self.workforce_hits + self.adpar_hits

    @property
    def misses(self) -> int:
        return self.workforce_misses + self.adpar_misses

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SpaceCache(LRU):
    """Relaxation spaces keyed by (ensemble fingerprint, availability).

    The engine cache's one store of :class:`RelaxationSpace` objects:
    every backend over the same estimation context reads the same space,
    and a miss builds it cold in :meth:`space_at`.  A build runs outside
    the LRU's lock; two threads missing one key build bitwise-equal
    spaces and the later ``put`` wins.
    """

    def space_for(
        self, ensemble: StrategyEnsemble, availability: float
    ) -> RelaxationSpace:
        """The cached space for one context, built on a miss."""
        key = (ensemble_fingerprint(ensemble), availability)
        space = self.get(key)
        if space is None:
            space = self.space_at(ensemble, availability)
            self.put(key, space)
        return space

    def space_at(
        self, ensemble: StrategyEnsemble, availability: float
    ) -> RelaxationSpace:
        """The miss path: parameter estimation plus the unified matrix."""
        return RelaxationSpace(ensemble, availability)


#: Older name of :class:`SpaceCache`: ``perfbench/tracing.py`` patches
#: ``IncrementalSpaceCache.space_at`` as its ``engine.space`` layer.
IncrementalSpaceCache = SpaceCache


#: Cache identity of one per-request workforce aggregate: a flat tuple
#: ``(fingerprint, mode, aggregation, eligibility_bound, quality, cost,
#: latency, k)``.  Flat on purpose — the streaming burst path hashes one
#: key per arriving request, and a flat tuple hashes in one C-level pass
#: where a nested dataclass key pays two Python ``__hash__`` frames.
_WorkforceKey = tuple


class EngineCache:
    """Shared cache for workforce aggregates, ADPaR solvers and results.

    One instance may back many :class:`~repro.engine.RecommendationEngine`
    objects (e.g. one per task type, or three planner backends over the
    same batch) — anything keyed on the same (ensemble fingerprint,
    workforce configuration, request parameters) reuses prior work.
    """

    def __init__(
        self,
        max_workforce_entries: int = 262_144,
        max_adpar_entries: int = 65_536,
        max_solver_entries: int = 64,
        max_space_entries: int = 64,
    ):
        self._workforce = LRU(max_workforce_entries)
        self._adpar_results = LRU(max_adpar_entries)
        self._adpar_solvers = LRU(max_solver_entries)
        self._spaces = SpaceCache(max_space_entries)
        self.stats = CacheStats()
        # Counter increments are load/add/store in CPython — racy across
        # threads without this; accounting must stay exact (hits + misses
        # == probes) for the stats envelope to be trustworthy.
        self._stats_lock = threading.Lock()

    def _count_workforce(self, hits: int, misses: int) -> None:
        with self._stats_lock:
            self.stats.workforce_hits += hits
            self.stats.workforce_misses += misses

    def _count_adpar(self, hits: int, misses: int) -> None:
        with self._stats_lock:
            self.stats.adpar_hits += hits
            self.stats.adpar_misses += misses

    # ------------------------------------------------------------- workforce
    def lookup_workforce_many(
        self, keys: list
    ) -> "list[RequestWorkforce | None]":
        """Cached aggregates for ``keys`` (``None`` on a miss).

        Every aggregation, one request or a burst, probes through here;
        hits and misses are tallied under one stats update per call.
        """
        get = self._workforce.get
        results = [get(key) for key in keys]
        hits = sum(1 for hit in results if hit is not None)
        self._count_workforce(hits, len(results) - hits)
        return results

    def store_workforce_many(
        self, pairs: "list[tuple[_WorkforceKey, RequestWorkforce]]"
    ) -> None:
        """Store freshly computed aggregates under their keys."""
        for key, need in pairs:
            self._workforce.put(key, need)

    # ----------------------------------------------------------------- adpar
    def relaxation_space(
        self, ensemble: StrategyEnsemble, availability: float
    ) -> RelaxationSpace:
        """The (cached) shared unified-space geometry for one context.

        Every solver backend created through this cache for the same
        (ensemble, availability) reads the same space — the geometry is
        built once and reused.
        """
        return self._spaces.space_for(ensemble, float(availability))

    def adpar_solver(
        self,
        ensemble: StrategyEnsemble,
        availability: float,
        solver: str = "adpar-exact",
        options: "dict | None" = None,
        registry: "SolverRegistry | None" = None,
    ) -> AdparSolver:
        """A (cached) ADPaR solver backend for one estimation context.

        Keyed by (ensemble fingerprint, availability, backend name,
        canonical options, registry) — e.g. two ``adpar-weighted``
        solvers with different norms are distinct entries, as are two
        registries binding the same name to different factories — but
        all share the cached :class:`RelaxationSpace`.
        """
        registry = registry if registry is not None else default_solver_registry()
        key = (
            ensemble_fingerprint(ensemble),
            float(availability),
            solver,
            solver_options_key(options),
            registry,
        )
        hit = self._adpar_solvers.get(key)
        if hit is None:
            context = SolverContext(
                ensemble=ensemble,
                availability=float(availability),
                space=self.relaxation_space(ensemble, availability),
            )
            hit = registry.create(solver, context, options)
            self._adpar_solvers.put(key, hit)
        return hit

    def _adpar_key(
        self,
        ensemble: StrategyEnsemble,
        availability: float,
        request: DeploymentRequest,
        solver: str,
        options: "dict | None",
        registry: "SolverRegistry | None",
    ) -> tuple:
        return (
            ensemble_fingerprint(ensemble),
            float(availability),
            request.params,
            request.k,
            solver,
            solver_options_key(options),
            registry if registry is not None else default_solver_registry(),
        )

    def adpar_solve_batch(
        self,
        ensemble: StrategyEnsemble,
        availability: float,
        requests: "list[DeploymentRequest]",
        solver: str = "adpar-exact",
        options: "dict | None" = None,
        registry: "SolverRegistry | None" = None,
    ) -> "list[ADPaRResult | str]":
        """Cached batch solve; an infeasible request's entry is the text
        its verdict raised, so a cache hit answers in the miss's words,
        whichever backend decided it.

        Cache hits are answered in place, duplicate (params, k) pairs
        within the batch are solved once, and the remaining misses go to
        the backend's :meth:`~repro.engine.solvers.AdparSolver.solve_batch`
        in a single call so the per-request geometry is amortized.
        """
        results: "list[ADPaRResult | str | None]" = [None] * len(requests)
        missing: "list[tuple[tuple, DeploymentRequest]]" = []
        pending: "dict[tuple, list[int]]" = {}
        hits = misses = 0
        for i, request in enumerate(requests):
            key = self._adpar_key(
                ensemble, availability, request, solver, options, registry
            )
            hit = self._adpar_results.get(key)
            if hit is not None:
                hits += 1
                results[i] = hit
                continue
            misses += 1
            if key in pending:
                pending[key].append(i)
                continue
            pending[key] = [i]
            missing.append((key, request))
        self._count_adpar(hits, misses)
        if not missing:
            return results
        backend = self.adpar_solver(ensemble, availability, solver, options, registry)
        feasible: "list[tuple[tuple, DeploymentRequest]]" = []
        answers: "list[tuple[tuple, ADPaRResult | str]]" = []
        for key, request in missing:
            if request.k > len(ensemble):
                # The one infeasibility every backend shares: no relaxation
                # can conjure strategies that are not in S.
                answers.append(
                    (key, str(too_few_strategies(request.k, len(ensemble))))
                )
            else:
                feasible.append((key, request))
        if feasible:
            try:
                solved: "list[ADPaRResult | str]" = backend.solve_batch(
                    [request for _, request in feasible]
                )
            except InfeasibleRequestError as refusal:
                # A backend refused mid-batch (every request resolves or
                # none does in solve_batch).  A lone request's refusal is
                # its verdict; a larger batch is re-solved per request so
                # one infeasible request cannot abort its batchmates.
                if len(feasible) == 1:
                    solved = [str(refusal)]
                else:
                    solved = []
                    for _key, request in feasible:
                        try:
                            solved.append(backend.solve(request))
                        except InfeasibleRequestError as exc:
                            solved.append(str(exc))
            answers.extend(zip([key for key, _ in feasible], solved))
        for key, result in answers:
            self._adpar_results.put(key, result)
            for i in pending[key]:
                results[i] = result
        return results

    # ----------------------------------------------------------------- sizes
    def occupancy(self) -> "dict[str, dict[str, int]]":
        """Entries and capacity per cache section (the ``stats`` wire view).

        JSON-native by construction, so the service can embed it in the
        ``stats`` response without a bespoke codec.
        """
        return {
            name: {"entries": len(lru), "capacity": lru.capacity}
            for name, lru in (
                ("workforce", self._workforce),
                ("adpar_results", self._adpar_results),
                ("adpar_solvers", self._adpar_solvers),
                ("spaces", self._spaces),
            )
        }

    def __len__(self) -> int:
        return len(self._workforce) + len(self._adpar_results)


class CachingWorkforceComputer(WorkforceComputer):
    """A :class:`WorkforceComputer` that reads/writes an :class:`EngineCache`.

    Decision-for-decision identical to the plain computer: cache entries
    *are* the plain computer's outputs, re-labelled with the caller's
    request id on the way out.  :meth:`aggregate_all` is the one cached
    door; the inherited one-request ``aggregate`` is a one-row call of
    it.  ``perfbench/tracing.py`` patches this method by name as its
    ``engine.aggregate`` layer.
    """

    def __init__(
        self,
        ensemble: StrategyEnsemble,
        cache: EngineCache,
        mode: str = "paper",
        aggregation: str = "sum",
        eligibility: str = "pool",
        availability: "float | None" = None,
    ):
        super().__init__(
            ensemble,
            mode=mode,
            aggregation=aggregation,
            eligibility=eligibility,
            availability=availability,
        )
        self.cache = cache
        self._key_prefix = (
            ensemble_fingerprint(ensemble),
            self.mode,
            self.aggregation,
            self._eligibility_bound(),
        )

    def _key(self, request: DeploymentRequest) -> _WorkforceKey:
        params = request.params
        return self._key_prefix + (
            params.quality,
            params.cost,
            params.latency,
            request.k,
        )

    @staticmethod
    def _relabel(
        need: RequestWorkforce, request: DeploymentRequest
    ) -> RequestWorkforce:
        if need.request_id == request.request_id:
            return need
        return replace(need, request_id=request.request_id)

    def aggregate_all(
        self, requests: "list[DeploymentRequest]"
    ) -> list[RequestWorkforce]:
        # Keys are built exactly once per request and probed in one call;
        # only the misses reach the broadcasted NumPy pass.  Both
        # EngineSession.submit (one row) and the burst path submit_many
        # come through here, so per-request Python overhead is kept
        # minimal.
        keys = [self._key(request) for request in requests]
        results = self.cache.lookup_workforce_many(keys)
        missing: list[DeploymentRequest] = []
        missing_at: list[int] = []
        pending: dict = {}
        for i, hit in enumerate(results):
            if hit is not None:
                results[i] = self._relabel(hit, requests[i])
                continue
            key = keys[i]
            if key in pending:
                # Duplicate parameters within one batch: compute once.
                pending[key].append(i)
            else:
                missing.append(requests[i])
                missing_at.append(i)
                pending[key] = [i]
        if missing:
            computed = super().aggregate_all(missing)
            self.cache.store_workforce_many(
                [(keys[i], need) for i, need in zip(missing_at, computed)]
            )
            for i, need in zip(missing_at, computed):
                results[i] = need
                for j in pending[keys[i]][1:]:
                    results[j] = self._relabel(need, requests[j])
        return results  # type: ignore[return-value]
