"""Engine sessions: the streaming ledger behind one seam (§7 extension).

An :class:`EngineSession` is the online counterpart of
:meth:`RecommendationEngine.resolve`: requests arrive one at a time, a
workforce ledger tracks remaining availability, admitted requests hold a
reservation until completed or revoked, and requests that do not fit are
answered with ADPaR alternatives produced by the owning engine's
configured solver backend (``solver=``/``solver_options=`` on the
engine), so a session opened on an ``onedim`` or ``adpar-weighted``
engine answers with that backend.  Decisions are identical to the seed's
streaming ledger (differential-tested against a reference oracle); on
top of it the session remembers DEFERRED requests and can retry them
once capacity frees — previously every caller re-implemented that loop.

The streaming hot path is vectorized (the "fully dynamic stream" the
paper's §7 leaves open, served at batch-path speed):

* :meth:`submit_many` admits an arrival burst through one broadcasted
  :meth:`~repro.core.workforce.WorkforceComputer.aggregate_all` pass and
  one batch ADPaR call for the requests that fall to the ALTERNATIVE
  branch — decisions, counters, and ledger state are pinned identical to
  the equivalent :meth:`submit` loop
  (``tests/property/test_streaming_equivalence.py``).
* Per-request model inversion is memoized in the engine's shared
  :class:`~repro.engine.cache.EngineCache` keyed by (params, k,
  workforce configuration), so resubmitted request shapes — the common
  case on a platform serving templated deployments — skip inversion
  entirely.
* Every DEFERRED request is queued as a :class:`DeferredEntry` carrying
  its already-computed aggregate, so :meth:`retry_deferred` is O(1) per
  entry in model work, and a min-requirement early exit makes a drain
  against insufficient capacity O(1) total.

One-shot batches go through :meth:`RecommendationEngine.resolve` on the
session's :attr:`~EngineSession.engine`.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.request import DeploymentRequest
from repro.core.streaming import StreamDecision, StreamStatus
from repro.core.workforce import RequestWorkforce
from repro.exceptions import ApiError
from repro.utils.lockdebug import maybe_guarded

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.adpar import ADPaRResult
    from repro.engine.engine import RecommendationEngine

_EPS = 1e-9


@dataclass(frozen=True)
class SessionState:
    """A point-in-time copy of one session's ledger (crash recovery).

    Everything :meth:`EngineSession.restore` needs to rebuild a live
    session bitwise: counters and reservations verbatim, the deferred
    queue in arrival order (the carried aggregates are *recomputed* on
    restore — they are a pure function of (request, engine), so the
    recomputation is exact), and the retry floor **verbatim** rather
    than recomputed: removals may leave the floor conservatively below
    the true minimum, and the retry early-exit is observable (``[]``
    versus a full re-deferring pass), so a "tightened" floor would
    change post-restore decision streams.  ``deferred_floor=None``
    encodes the empty-queue sentinel ``math.inf``.
    """

    availability: float
    used: float
    deferred_floor: "float | None" = None
    admitted: int = 0
    revoked: int = 0
    completed: int = 0
    reserved: "tuple[StreamDecision, ...]" = ()
    deferred: "tuple[DeploymentRequest, ...]" = ()


@dataclass(frozen=True)
class DeferredEntry:
    """One deferred request plus its already-computed workforce aggregate.

    Carrying the aggregate makes :meth:`EngineSession.retry_deferred` pure
    ledger arithmetic — O(1) per entry, no model inversion.  The aggregate
    is valid for exactly this request object's (params, k): a
    resubmission with revised parameters replaces the whole entry, so a
    stale aggregate can never be replayed.
    """

    request: DeploymentRequest
    need: RequestWorkforce


class EngineSession:
    """Online admission with a workforce ledger, revocation, and retry.

    Session-affine concurrency: every ledger mutator (``submit``,
    ``submit_many``, ``retry_deferred``, ``complete``, ``revoke``) takes
    this session's own :attr:`lock`, so concurrent callers serialize *per
    session*, never globally — two sessions over the same engine admit in
    parallel.  The lock is reentrant so a caller can wrap a multi-step
    invariant (e.g. validate-then-submit) in ``with session.lock:``
    without deadlocking on the methods' own acquisition.
    """

    def __init__(self, engine: "RecommendationEngine"):
        self.engine = engine
        self.availability = engine.availability
        self.lock = maybe_guarded(threading.RLock(), "EngineSession.lock")
        self._computer = engine.computer
        self._reserved: "dict[str, StreamDecision]" = {}
        self._deferred: "dict[str, DeferredEntry]" = {}
        # Lower bound on the smallest deferred requirement.  Insertions
        # keep it tight; removals may leave it conservatively low (never
        # high), so the retry early-exit can only skip provably futile
        # drains.  Exact again after every full retry pass.
        self._deferred_floor = math.inf
        self._used = 0.0
        self.admitted_count = 0
        self.revoked_count = 0
        self.completed_count = 0

    # ----------------------------------------------------------------- state
    @property
    def remaining(self) -> float:
        """Workforce still unreserved."""
        return max(self.availability - self._used, 0.0)

    @property
    def active(self) -> "dict[str, StreamDecision]":
        """Currently admitted (not yet completed/revoked) requests."""
        return dict(self._reserved)

    @property
    def deferred(self) -> "list[DeploymentRequest]":
        """Requests answered DEFERRED, in arrival order, awaiting retry."""
        return [entry.request for entry in self._deferred.values()]

    @property
    def deferred_entries(self) -> "list[DeferredEntry]":
        """Deferred queue entries (request + carried aggregate), in order."""
        return list(self._deferred.values())

    def utilization(self) -> float:
        """Reserved fraction of the availability budget."""
        if self.availability == 0:
            return 0.0
        return self._used / self.availability

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> SessionState:
        """Copy the ledger for the decision journal's checkpoints."""
        with self.lock:
            return SessionState(
                availability=self.availability,
                used=self._used,
                deferred_floor=(
                    None
                    if math.isinf(self._deferred_floor)
                    else self._deferred_floor
                ),
                admitted=self.admitted_count,
                revoked=self.revoked_count,
                completed=self.completed_count,
                reserved=tuple(self._reserved.values()),
                deferred=tuple(
                    entry.request for entry in self._deferred.values()
                ),
            )

    @classmethod
    def restore(
        cls, engine: "RecommendationEngine", state: SessionState
    ) -> "EngineSession":
        """Rebuild a session from a snapshot, bitwise-equal to the original.

        ``engine`` must carry the identity the snapshot was taken under
        (the service restores by recorded (fingerprint, spec)); deferred
        aggregates are recomputed through it — deterministic in
        (request, engine) — while reservations, counters, and the retry
        floor come back verbatim, so the restored session's future
        decision stream matches the uncrashed session's exactly.
        """
        session = cls(engine)
        if abs(session.availability - state.availability) > _EPS:
            raise ValueError(
                f"snapshot was taken at availability {state.availability}; "
                f"this engine has {session.availability}"
            )
        for decision in state.reserved:
            session._reserved[decision.request.request_id] = decision
        if state.deferred:
            needs = session._computer.aggregate_all(list(state.deferred))
            for request, need in zip(state.deferred, needs):
                session._deferred[request.request_id] = DeferredEntry(
                    request, need
                )
        session._deferred_floor = (
            math.inf if state.deferred_floor is None else state.deferred_floor
        )
        session._used = state.used
        session.admitted_count = state.admitted
        session.revoked_count = state.revoked
        session.completed_count = state.completed
        return session

    # ---------------------------------------------------------------- submit
    def submit(self, request: DeploymentRequest) -> StreamDecision:
        """Process one arriving request against the current ledger."""
        with self.lock:
            if request.request_id in self._reserved:
                raise ValueError(
                    f"request {request.request_id!r} is already active"
                )
            need = self._computer.aggregate(request)
            if self._fits_platform(need):
                return self._admit_or_defer(request, need)
            return self._fallback_decision(
                request, self.engine._alternatives_for([request])[0]
            )

    def submit_many(
        self, requests: "list[DeploymentRequest]"
    ) -> list[StreamDecision]:
        """Admit one arrival burst; identical to the equivalent submit loop.

        The per-request model inversions run as a single broadcasted (and
        cache-backed) ``aggregate_all`` pass, and every request that falls
        to the ALTERNATIVE branch is answered through the engine's batch
        ADPaR path — a burst costs two vectorized passes instead of
        ``2 · len(requests)`` scalar solves.  The ledger walk itself stays
        sequential, so admission order, deferred-queue bookkeeping, and
        duplicate-id errors match :meth:`submit` decision-for-decision.
        """
        if not requests:
            return []
        with self.lock:
            return self._submit_many_locked(list(requests))

    def _submit_many_locked(
        self, requests: "list[DeploymentRequest]"
    ) -> list[StreamDecision]:
        needs = self._computer.aggregate_all(requests)
        # Whether a request lands in the ALTERNATIVE/INFEASIBLE branch
        # depends only on its aggregate, never on the ledger: solve that
        # whole branch in one batch call up front.  Alignment is by
        # occurrence order, so duplicate ids within a burst stay distinct.
        # A request whose id is already reserved makes the walk raise when
        # it is reached (nothing in a burst releases reservations), so
        # nothing past the first such position is ever consumed — don't
        # pay its ADPaR solves.
        reserved = self._reserved
        limit = next(
            (
                i
                for i, request in enumerate(requests)
                if request.request_id in reserved
            ),
            len(requests),
        )
        fits = [self._fits_platform(need) for need in needs]
        fallback = [
            request
            for request, fit in zip(requests[:limit], fits[:limit])
            if not fit
        ]
        solved = iter(self.engine._alternatives_for(fallback) if fallback else ())
        admit_or_defer = self._admit_or_defer
        decisions: list[StreamDecision] = []
        append = decisions.append
        for request, need, fit in zip(requests, needs, fits):
            if request.request_id in reserved:
                raise ValueError(
                    f"request {request.request_id!r} is already active"
                )
            if fit:
                append(admit_or_defer(request, need))
            else:
                append(self._fallback_decision(request, next(solved)))
        return decisions

    # -------------------------------------------------------- decision rules
    def _fits_platform(self, need: RequestWorkforce) -> bool:
        """True iff the request could run on an *empty* platform."""
        return need.feasible and need.requirement <= self.availability + _EPS

    def _admit_or_defer(
        self, request: DeploymentRequest, need: RequestWorkforce
    ) -> StreamDecision:
        """Ledger arithmetic for a request that fits the platform."""
        if need.requirement <= self.remaining + _EPS:
            decision = StreamDecision(
                request=request,
                status=StreamStatus.ADMITTED,
                strategy_names=tuple(
                    self.engine.ensemble.names[i] for i in need.strategy_indices
                ),
                workforce_reserved=need.requirement,
            )
            self._reserved[request.request_id] = decision
            self._used += need.requirement
            self.admitted_count += 1
            self._drop_deferred(request.request_id)
            return decision
        # Would fit an empty platform: defer rather than mutate params.
        self._push_deferred(request, need)
        return StreamDecision(request=request, status=StreamStatus.DEFERRED)

    def _fallback_decision(
        self, request: DeploymentRequest, result: "ADPaRResult | str"
    ) -> StreamDecision:
        """``result`` is the ADPaR answer, or an infeasible verdict's text."""
        self._drop_deferred(request.request_id)
        if isinstance(result, str):
            return StreamDecision(request=request, status=StreamStatus.INFEASIBLE)
        return StreamDecision(
            request=request,
            status=StreamStatus.ALTERNATIVE,
            strategy_names=result.strategy_names,
            alternative=result,
        )

    # -------------------------------------------------------- deferred queue
    def _push_deferred(
        self, request: DeploymentRequest, need: RequestWorkforce
    ) -> None:
        # Assignment (not setdefault): a resubmission with revised params
        # must replace the stale entry — aggregate included — while
        # keeping its place in the arrival order.
        self._deferred[request.request_id] = DeferredEntry(request, need)
        if need.requirement < self._deferred_floor:
            self._deferred_floor = need.requirement

    def _drop_deferred(self, request_id: str) -> None:
        if self._deferred.pop(request_id, None) is not None and not self._deferred:
            self._deferred_floor = math.inf

    # ------------------------------------------------------------ lifecycle
    def revoke(self, request_id: str) -> float:
        """Cancel an admitted request; returns the workforce released."""
        with self.lock:
            decision = self._release(request_id)
            self.revoked_count += 1
            return decision.workforce_reserved

    def complete(self, request_id: str) -> float:
        """Mark an admitted request finished; its workforce is released."""
        with self.lock:
            decision = self._release(request_id)
            self.completed_count += 1
            return decision.workforce_reserved

    def _release(self, request_id: str) -> StreamDecision:
        try:
            decision = self._reserved.pop(request_id)
        except KeyError:
            raise KeyError(f"no active reservation for {request_id!r}") from None
        self._used = max(self._used - decision.workforce_reserved, 0.0)
        return decision

    # ----------------------------------------------------------------- retry
    def retry_deferred(self) -> list[StreamDecision]:
        """Resubmit deferred requests (arrival order) against freed capacity.

        Each queue entry carries the aggregate computed when it was
        deferred, so a retry is O(1) ledger arithmetic per entry — no
        model inversion (a deferred request is feasible by construction,
        so the fallback branch is unreachable here).  When even the
        smallest deferred requirement exceeds the remaining capacity the
        drain exits immediately and returns ``[]`` — the queue is
        provably unchanged, so nothing is resubmitted and the call costs
        O(1) total.  Requests that still do not fit stay deferred;
        admitted ones leave the queue.  Returns the fresh decision per
        retried request.
        """
        with self.lock:
            if not self._deferred:
                return []
            if self._deferred_floor > self.remaining + _EPS:
                return []
            # Reset before the pass: re-deferred entries rebuild an exact
            # min.
            self._deferred_floor = math.inf
            decisions: list[StreamDecision] = []
            for entry in list(self._deferred.values()):
                del self._deferred[entry.request.request_id]
                decisions.append(
                    self._admit_or_defer(entry.request, entry.need)
                )
            return decisions


def check_burst(request_ids, active=()) -> None:
    """The service's burst rule: ids unique within the burst, none active.

    Stricter than :meth:`EngineSession.submit_many`, which raises
    *mid-walk* on a live duplicate after mutating the ledger: a burst
    checked here up front applies whole or not at all.  The service
    checks live bursts with it and reenactment checks recorded ones.
    Raises the typed ``invalid_argument`` :class:`ApiError`.
    """
    if len(set(request_ids)) != len(request_ids):
        raise ApiError(
            "submit_batch request ids must be unique within a burst",
            code="invalid_argument",
        )
    already = next((i for i in request_ids if i in active), None)
    if already is not None:
        raise ApiError(
            f"request {already!r} is already active in this session",
            code="invalid_argument",
        )


def drive_stream(
    session: EngineSession,
    requests: "list[DeploymentRequest]",
    burst_size: int = 64,
    hold_bursts: int = 2,
    schedule: "list[int] | None" = None,
) -> "tuple[list[StreamDecision], int, float]":
    """Run the canonical high-traffic admission loop over one session.

    The one driver behind the CLI ``stream`` subcommand and every
    ``stream`` scenario (:func:`~repro.workloads.simulate_scenario`,
    hence ``EngineService.simulate`` and
    ``PlatformSimulator.run_scenario``): arrivals are admitted per
    micro-burst through :meth:`EngineSession.submit_many`; deployments
    admitted ``hold_bursts`` bursts ago complete and free their
    workforce; the deferred queue is retried after every completion
    wave, with retry-admitted deployments joining the youngest cohort so
    they too complete ``hold_bursts`` bursts later.  After the last burst
    the remaining cohorts are flushed oldest-first, retrying after each
    wave so late capacity still serves the queue.

    Returns ``(decisions, retried, peak)``: every decision in production
    order (burst answers interleaved with retry answers, so
    ``len(decisions) == len(requests) + retried``), the number of retry
    decisions among them, and the highest
    :meth:`EngineSession.utilization` seen after any burst or retry
    wave.  The peak is the stream's utilization figure: once every
    cohort has completed the ledger is empty again.

    ``schedule`` overrides the constant ``burst_size`` with explicit
    per-burst sizes (the declarative
    :meth:`~repro.workloads.spec.ArrivalSpec.schedule` contract: flash
    crowds, diurnal load curves); it must cover every request.
    """
    if burst_size < 1:
        raise ValueError("burst_size must be >= 1")
    if hold_bursts < 1:
        raise ValueError("hold_bursts must be >= 1")
    if schedule is None:
        bounds = list(range(0, len(requests), burst_size)) + [len(requests)]
    else:
        bounds = [0]
        for size in schedule:
            if size < 1:
                raise ValueError("schedule entries must be >= 1")
            bounds.append(min(bounds[-1] + size, len(requests)))
            if bounds[-1] == len(requests):
                break
        if bounds[-1] < len(requests):
            raise ValueError(
                f"schedule covers {bounds[-1]} arrivals but "
                f"{len(requests)} were provided"
            )
    decisions: list[StreamDecision] = []
    retried = 0
    peak = 0.0

    def admitted_ids(batch):
        return [
            d.request.request_id
            for d in batch
            if d.status is StreamStatus.ADMITTED
        ]

    def complete_cohort(cohort):
        nonlocal peak
        for request_id in cohort:
            session.complete(request_id)
        retries = session.retry_deferred()
        decisions.extend(retries)
        peak = max(peak, session.utilization())
        return retries

    cohorts: "deque[list[str]]" = deque()
    for start, stop in zip(bounds, bounds[1:]):
        batch = session.submit_many(list(requests[start:stop]))
        decisions.extend(batch)
        peak = max(peak, session.utilization())
        cohorts.append(admitted_ids(batch))
        if len(cohorts) > hold_bursts:
            retries = complete_cohort(cohorts.popleft())
            retried += len(retries)
            cohorts[-1].extend(admitted_ids(retries))
    while cohorts:
        retries = complete_cohort(cohorts.popleft())
        retried += len(retries)
        if retries and cohorts:
            cohorts[-1].extend(admitted_ids(retries))
        elif retries:
            cohorts.append(admitted_ids(retries))
    return decisions, retried, peak
