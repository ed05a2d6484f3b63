"""Cross-client request coalescing for stateless ``resolve``/``alternatives``.

A session micro-batches one client's arrival burst into two vectorized
passes.  This module applies the same trick across clients: every
stateless ``resolve`` / ``alternatives`` call an
:class:`~repro.api.service.EngineService` answers goes through its
:class:`RequestCoalescer`, which merges the calls waiting on one engine
identity into **one** vectorized engine pass — one planner walk per call
(planning is batch-dependent, so it must stay per call) but a single
merged batch-ADPaR solve, which is where the relaxation geometry cost
lives.

Grouping is by (engine identity, call knobs): a ``resolve`` only ever
merges with ``resolve`` calls carrying the same (ensemble fingerprint,
:meth:`~repro.api.wire.EngineSpec.pool_key`, objective, planner,
solver), and ``alternatives`` likewise with matching (k, solver) — so a
coalesced execution is decision-identical to running every call alone
(pinned by the equivalence tests).  The per-call rules checked before
merging (unique request ids, every ``alternatives`` request admitted)
are the engine's own checks, so a merged call fails exactly as it would
alone.  Stateful traffic (``submit_batch``, session ops) is never
coalesced: admission order *is* its semantics.

Scheduling is leader/follower with baton passing: the first waiting
call of an idle group becomes the leader, takes up to :data:`MAX_BATCH`
waiting calls — itself plus whatever piled up while the group's
previous flush ran, so a lone call never waits — executes them outside
the lock, fans results (or per-call errors) back, and hands the baton
to the next waiter.  No daemon thread, no idle cost: the coalescer only
runs on callers' threads.
"""

from __future__ import annotations

import threading

from repro.api.envelopes import (
    AlternativesRequest,
    AlternativesResponse,
    ResolveRequest,
    ResolveResponse,
)
from repro.engine.engine import check_unique_ids
from repro.exceptions import InfeasibleRequestError

#: Most calls one flush takes; the rest roll into the next flush
#: (backpressure against unbounded merged solves).
MAX_BATCH = 128


class _Call:
    """One waiting call: its request envelope and, later, its outcome."""

    __slots__ = ("request", "result", "error", "done")

    def __init__(self, request):
        self.request = request
        self.result = None
        self.error = None
        self.done = False


class _Group:
    """Waiting calls for one (engine identity, call knobs) bucket."""

    __slots__ = ("engine", "calls", "flushing")

    def __init__(self, engine):
        self.engine = engine  # pins the engine (and its id()) alive
        self.calls = []
        self.flushing = False


class RequestCoalescer:
    """Merge concurrent stateless calls into vectorized engine passes."""

    def __init__(self):
        self._cond = threading.Condition()
        self._groups: dict = {}
        self._calls = 0
        self._batches = 0
        self._coalesced = 0

    # ---------------------------------------------------------------- public
    def submit(self, service, request):
        """Run one envelope through the coalescer; blocks for the result.

        Raises exactly what the call would raise on its own (typed
        ``ApiError``s from identity resolution, per-call infeasibility,
        validation errors); other calls in the same flush are
        unaffected.
        """
        kind, extras, engine = self._route(service, request)
        key = (kind, id(engine)) + extras
        call = _Call(request)
        with self._cond:
            group = self._groups.get(key)
            if group is None:
                group = _Group(engine)
                self._groups[key] = group
            group.calls.append(call)
            self._calls += 1
            while not call.done:
                if not group.flushing and group.calls and group.calls[0] is call:
                    group.flushing = True  # take the baton: lead a flush
                    batch = group.calls[:MAX_BATCH]
                    del group.calls[:MAX_BATCH]
                    self._batches += 1
                    if len(batch) > 1:
                        self._coalesced += len(batch)
                    break
                self._cond.wait()
        if call.done:
            return self._finish(call)
        try:
            self._execute(kind, engine, batch)
        except Exception as exc:  # noqa: BLE001 — fan the failure out
            for c in batch:
                if c.result is None and c.error is None:
                    c.error = exc
        finally:
            with self._cond:
                for c in batch:
                    c.done = True
                group.flushing = False
                if not group.calls and self._groups.get(key) is group:
                    del self._groups[key]
                self._cond.notify_all()
        return self._finish(call)

    def occupancy(self) -> dict:
        """Counter snapshot for the ``stats`` envelope.

        ``calls`` — envelopes submitted; ``batches`` — flushes executed;
        ``coalesced`` — calls that shared their flush with at least one
        other call; ``in_flight_groups`` — buckets currently holding
        waiting or executing calls.
        """
        with self._cond:
            return {
                "calls": self._calls,
                "batches": self._batches,
                "coalesced": self._coalesced,
                "in_flight_groups": len(self._groups),
            }

    # -------------------------------------------------------------- internals
    @staticmethod
    def _finish(call):
        if call.error is not None:
            raise call.error
        return call.result

    @staticmethod
    def _route(service, request):
        """Resolve the engine identity (and raise per-call typed errors
        for unknown ensembles / missing specs *before* grouping)."""
        if isinstance(request, ResolveRequest):
            engine = service.engine_for(request.ensemble, request.spec)
            return (
                "resolve",
                (request.objective, request.planner, request.solver),
                engine,
            )
        if isinstance(request, AlternativesRequest):
            engine = service.engine_for(request.ensemble, request.spec)
            return ("alternatives", (request.k, request.solver), engine)
        raise TypeError(
            f"coalescer handles resolve/alternatives envelopes, "
            f"not {type(request).__name__}"
        )

    def _execute(self, kind, engine, batch):
        if kind == "resolve":
            self._execute_resolve(engine, batch)
        else:
            self._execute_alternatives(engine, batch)

    @staticmethod
    def _execute_resolve(engine, batch):
        template = batch[0].request  # knobs are group-uniform by key
        good = []
        for call in batch:
            try:
                check_unique_ids(call.request.requests)
            except ValueError as exc:
                call.error = exc
                continue
            good.append(call)
        reports = engine.resolve_many(
            [list(call.request.requests) for call in good],
            objective=template.objective,
            planner=template.planner,
            solver=template.solver,
        )
        for call, report in zip(good, reports):
            call.result = ResolveResponse(report=report)

    @staticmethod
    def _execute_alternatives(engine, batch):
        template = batch[0].request
        good, merged = [], []
        for call in batch:
            try:
                prepared = [
                    engine._as_adpar_request(r, call.request.k)
                    for r in call.request.requests
                ]
            except ValueError as exc:
                call.error = exc
                continue
            good.append((call, prepared))
            merged.extend(prepared)
        solved = iter(
            engine._alternatives_for(merged, solver=template.solver)
        )
        for call, prepared in good:
            results = [next(solved) for _ in prepared]
            try:
                engine._check_admitted(results)
            except InfeasibleRequestError as exc:
                call.error = exc
                continue
            call.result = AlternativesResponse(results=tuple(results))
