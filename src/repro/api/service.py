"""`EngineService` — the stateless multiplexer in front of the engine.

One service instance fronts any number of tenants: engines are pooled by
(ensemble fingerprint, :meth:`~repro.api.wire.EngineSpec.pool_key`) over
one shared :class:`~repro.engine.EngineCache`, ensembles upload once and
are then addressed by content hash, and streaming sessions live behind
opaque ids.  The dispatcher itself holds no per-request state — every
envelope carries everything needed to route it, so two services over the
same pools answer identically.

Two calling conventions share one implementation:

* **Typed** — build envelope dataclasses and call :meth:`handle` (or the
  per-type methods); payloads stay in-memory objects, which is what the
  CLI, the platform simulator and the examples use in-process.
* **Wire** — feed raw JSON objects to :meth:`handle_dict`; decoding
  errors and the whole :mod:`repro.exceptions` hierarchy come back as
  typed error envelopes with stable codes, never tracebacks.  This is
  the contract ``repro serve`` exposes over HTTP.

Differential property tests pin both paths decision-for-decision
identical to driving :class:`~repro.engine.RecommendationEngine` /
:class:`~repro.engine.EngineSession` directly, including
``submit_many`` burst semantics.

**Concurrency model.**  The service is safe to call from many threads
without any external lock — ``repro serve`` dispatches handler threads
straight into :meth:`~EngineService.handle_dict`.  Fine-grained locking
replaces the transport's former global lock:

* the engine pool, ensemble registry, and workload cache are
  :class:`~repro.utils.lru.LRU` maps, each under its own lock held only
  for the dict operation — never while an engine is built;
* sessions are session-affine: every ledger-touching op runs under that
  session's own :class:`~repro.engine.session.EngineSession` lock, so
  two clients hammering different sessions never serialize;
* cache counters and LRU sections lock inside :class:`EngineCache`.

Engine construction deliberately happens *outside* any lock: an engine
is a pure function of (ensemble fingerprint, spec pool key), so the
worst a check-then-act race costs is one duplicate construction — both
instances share the service cache and answer identically, and the pool
keeps whichever landed last.  Stateless ``resolve``/``alternatives``
calls all go through the service's
:class:`~repro.api.coalescer.RequestCoalescer`, which merges concurrent
calls on the same engine identity into one vectorized pass.
"""

from __future__ import annotations

import itertools
import json
import re
import secrets
import threading
from dataclasses import dataclass, replace

from repro.api.coalescer import RequestCoalescer
from repro.api.codec import encode
from repro.api.envelopes import (
    AlternativesRequest,
    AlternativesResponse,
    PlanRequest,
    PlanResponse,
    ResolveRequest,
    ResolveResponse,
    RetryDeferredRequest,
    RetryDeferredResponse,
    SESSION_OPS,
    SessionOpRequest,
    SessionOpResponse,
    SimulateRequest,
    SimulateResponse,
    StatsRequest,
    StatsResponse,
    SubmitBatchRequest,
    SubmitBatchResponse,
    error_response_for,
    parse_request,
)
from repro.api.wire import EngineSpec, EnsembleRef
from repro.core.strategy import StrategyEnsemble
from repro.engine import (
    EngineCache,
    RecommendationEngine,
    ensemble_fingerprint,
)
from repro.engine.session import EngineSession, check_burst
from repro.exceptions import ApiError, JournalCorruptError

# Submodule imports, not the package: repro.journal's __init__ pulls in
# the replayer, which imports *this* service lazily — the submodules
# below are cycle-free.
from repro.journal.events import (
    CheckpointEvent,
    ReleaseEvent,
    RetryEvent,
    SessionCheckpoint,
    SessionCloseEvent,
    SessionOpenEvent,
    SubmitEvent,
)
from repro.journal.journal import read_events
from repro.journal.replay import recorded_ensembles, reenact
from repro.utils.lockdebug import maybe_guarded
from repro.utils.lru import LRU
from repro.workloads.registry import (
    ScenarioRegistry,
    default_scenario_registry,
)
from repro.workloads.simulation import simulate_scenario
from repro.workloads.spec import ScenarioSpec


@dataclass
class _SessionHandle:
    """One open streaming session plus the identity it was opened under.

    ``last_seq`` is the journal position of the last event recorded for
    this session (0 when unjournaled) — checkpoints copy it next to the
    state snapshot so recovery knows exactly which tail events the
    snapshot already folded in.
    """

    session_id: str
    session: EngineSession
    fingerprint: str
    spec: EngineSpec
    last_seq: int = 0


class EngineService:
    """Multiplexes engines and sessions across tenants behind one seam.

    Parameters
    ----------
    cache:
        The shared :class:`EngineCache` every pooled engine reads and
        writes; a private one is created when omitted.
    registry, solver_registry:
        Planner/solver registries forwarded to every engine built by the
        pool (process-wide defaults when omitted).
    default_spec:
        Fallback :class:`EngineSpec` applied when a request omits its
        ``spec`` — how ``repro serve`` turns CLI flags into the
        server-side default configuration.  Without one, a spec-less
        request is a typed ``missing_spec`` error.
    max_engines:
        Engine-pool bound (LRU eviction; engines are stateless, so
        eviction only costs re-construction).
    max_sessions:
        Open-session bound; exceeding it is a typed ``session_limit``
        error (close sessions to free slots) rather than silent eviction
        of someone's live ledger.
    max_ensembles:
        Fingerprint-registry bound (LRU).  Inline uploads re-register on
        every use, so only cold fingerprints age out; an evicted hash
        answers ``unknown_ensemble`` until re-uploaded inline.  Keeps a
        long-running server from pinning every ensemble it ever saw.
    scenario_registry:
        The :class:`~repro.workloads.registry.ScenarioRegistry` named
        ``simulate`` requests resolve against (the process-wide catalog
        when omitted).
    max_workloads:
        Bound on the materialized-workload cache (LRU): one entry per
        distinct (ensemble spec, requests spec, seed) identity, holding
        the built payload and the content hash of the built ensemble so
        repeat simulations skip materialization entirely.
    max_spec_strategies, max_spec_requests:
        Materialization bounds for ``simulate``: a ~100-byte spec makes
        the *server* allocate the workload it names, so an uncapped
        ``n_strategies``/``m_requests`` is an amplification vector (the
        inline-upload path is naturally bounded by the request body).
        Oversized specs answer the typed ``workload_too_large`` error.
    """

    def __init__(
        self,
        cache: "EngineCache | None" = None,
        registry=None,
        solver_registry=None,
        default_spec: "EngineSpec | None" = None,
        max_engines: int = 64,
        max_sessions: int = 1024,
        max_ensembles: int = 128,
        scenario_registry: "ScenarioRegistry | None" = None,
        max_workloads: int = 64,
        max_spec_strategies: int = 1_000_000,
        max_spec_requests: int = 100_000,
    ):
        self.cache = cache if cache is not None else EngineCache()
        self._registry = registry
        self._solver_registry = solver_registry
        self.default_spec = default_spec
        self._max_engines = max(1, int(max_engines))
        self._max_sessions = max(1, int(max_sessions))
        self._max_ensembles = max(1, int(max_ensembles))
        self._scenario_registry = scenario_registry
        self._max_workloads = max(1, int(max_workloads))
        self._max_spec_strategies = max(1, int(max_spec_strategies))
        self._max_spec_requests = max(1, int(max_spec_requests))
        self._engines = LRU(self._max_engines)
        self._ensembles = LRU(self._max_ensembles)
        self._sessions: "dict[str, _SessionHandle]" = {}
        self._sessions_lock = maybe_guarded(
            threading.Lock(), "EngineService._sessions_lock"
        )
        self._workloads = LRU(self._max_workloads)
        self._session_seq = itertools.count(1)
        #: Every stateless resolve/alternatives call submits through it.
        self.coalescer = RequestCoalescer()
        self._journal = None
        self._checkpoint_lock = maybe_guarded(
            threading.Lock(), "EngineService._checkpoint_lock"
        )

    # --------------------------------------------------------------- journal
    def attach_journal(self, journal):
        """Record every decision-bearing op to ``journal`` (a
        :class:`~repro.journal.DecisionJournal`); pass ``None`` to
        detach.  Appends happen inside the owning session's lock (the
        journal lock is a leaf), so the journal's event order is a
        serialization each session actually went through.  Attach only
        *after* :meth:`recover_from_journal` so recovery's re-driven
        events are not re-recorded.  Returns the journal for chaining.
        """
        self._journal = journal
        return journal

    @property
    def journal(self):
        """The attached decision journal, or ``None``."""
        return self._journal

    # ------------------------------------------------------------ ensembles
    def register_ensemble(self, ensemble: StrategyEnsemble) -> str:
        """Make an ensemble addressable by fingerprint; returns the hash."""
        fingerprint = ensemble_fingerprint(ensemble)
        # put() both registers a cold fingerprint and refreshes a warm
        # one's LRU slot; the value is fingerprint-determined, so a
        # concurrent duplicate put stores an equal ensemble.
        self._ensembles.put(fingerprint, ensemble)
        return fingerprint

    def _resolve_ensemble(self, ref: "EnsembleRef | None") -> StrategyEnsemble:
        if ref is None:
            raise ApiError(
                "request carries neither an ensemble nor a session_id",
                code="missing_ensemble",
            )
        if ref.ensemble is not None:
            self.register_ensemble(ref.ensemble)
            return ref.ensemble
        ensemble = self._ensembles.get(ref.fingerprint)
        if ensemble is None:
            raise ApiError(
                f"no ensemble registered under fingerprint "
                f"{ref.fingerprint[:16]}…; upload it inline once first",
                code="unknown_ensemble",
            )
        return ensemble

    def _resolve_spec(self, spec: "EngineSpec | None") -> EngineSpec:
        spec = spec if spec is not None else self.default_spec
        if spec is None:
            raise ApiError(
                "request carries no engine spec and the service has no "
                "default",
                code="missing_spec",
            )
        return spec

    # ---------------------------------------------------------- engine pool
    def engine_for(
        self,
        ensemble: "StrategyEnsemble | EnsembleRef | None",
        spec: "EngineSpec | None" = None,
    ) -> RecommendationEngine:
        """The pooled engine for one (ensemble, spec) identity.

        Engines are stateless facades, so any caller holding the same
        identity shares one instance — and through it the service-wide
        cache (workforce aggregates, ADPaR results, relaxation spaces).
        Construction runs outside the pool's lock: two threads
        racing on a cold key may both build, but the engine is a pure
        function of the key and both share the cache, so the race only
        costs one duplicate construction.
        """
        if ensemble is None or isinstance(ensemble, EnsembleRef):
            # None falls through to the typed missing_ensemble error.
            ensemble = self._resolve_ensemble(ensemble)
        else:
            self.register_ensemble(ensemble)
        spec = self._resolve_spec(spec)
        key = (ensemble_fingerprint(ensemble),) + spec.pool_key()
        engine = self._engines.get(key)
        if engine is not None:
            return engine
        engine = RecommendationEngine(
            ensemble,
            cache=self.cache,
            registry=self._registry,
            solver_registry=self._solver_registry,
            **spec.engine_kwargs(),
        )
        self._engines.put(key, engine)
        return engine

    @property
    def engine_count(self) -> int:
        return len(self._engines)

    # -------------------------------------------------------------- sessions
    def open_session(
        self,
        ensemble: "StrategyEnsemble | EnsembleRef",
        spec: "EngineSpec | None" = None,
    ) -> str:
        """Open a streaming session; returns its opaque id."""
        # Pre-check so a full service rejects before paying for engine
        # construction; the authoritative check re-runs under the lock.
        self._check_session_limit()
        engine = self.engine_for(ensemble, spec)
        spec = self._resolve_spec(spec)
        session_id = f"sess-{next(self._session_seq):06d}-{secrets.token_hex(4)}"
        handle = _SessionHandle(
            session_id=session_id,
            session=engine.open_session(),
            fingerprint=ensemble_fingerprint(engine.ensemble),
            spec=spec,
        )
        with self._sessions_lock:
            self._check_session_limit()
            self._sessions[session_id] = handle
        journal = self._journal
        if journal is not None:
            # Ensemble first: a recovered journal must be able to resolve
            # the open event's fingerprint without earlier segments.
            journal.ensure_ensemble(handle.fingerprint, engine.ensemble)
            handle.last_seq = journal.append(
                SessionOpenEvent(
                    session_id=session_id,
                    fingerprint=handle.fingerprint,
                    spec=spec,
                )
            )
        return session_id

    def _check_session_limit(self) -> None:
        if len(self._sessions) >= self._max_sessions:
            raise ApiError(
                f"session limit ({self._max_sessions}) reached; close "
                "sessions to free slots",
                code="session_limit",
            )

    def session(self, session_id: str) -> EngineSession:
        """The live :class:`EngineSession` behind one opaque id."""
        return self._session_handle(session_id).session

    def _session_handle(self, session_id: str) -> _SessionHandle:
        handle = self._sessions.get(session_id)
        if handle is None:
            raise ApiError(
                f"unknown session {session_id!r}", code="unknown_session"
            )
        return handle

    def close_session(self, session_id: str) -> None:
        with self._sessions_lock:
            if self._sessions.pop(session_id, None) is None:
                raise ApiError(
                    f"unknown session {session_id!r}", code="unknown_session"
                )
        journal = self._journal
        if journal is not None:
            journal.append(SessionCloseEvent(session_id=session_id))

    @property
    def session_count(self) -> int:
        return len(self._sessions)

    # ------------------------------------------------- checkpoint + recovery
    def _maybe_checkpoint(self) -> None:
        """Interleave a checkpoint once enough events accrued.

        Runs *outside* any session lock: one writer at a time (the
        dedicated checkpoint lock), briefly taking each session's lock
        to pair its snapshot with its ``last_seq``.  Events another
        thread appends mid-checkpoint land before or after the
        checkpoint line either way; recovery reconciles both cases
        through the per-session seq, so the interleaving is safe.
        """
        journal = self._journal
        if journal is None or not journal.should_checkpoint():
            return
        with self._checkpoint_lock:
            if not journal.should_checkpoint():
                return  # another thread just wrote one
            with self._sessions_lock:
                handles = list(self._sessions.values())
            sessions = []
            ensembles: "dict[str, EnsembleRef]" = {}
            for handle in handles:
                with handle.session.lock:
                    state = handle.session.snapshot()
                    last_seq = handle.last_seq
                # The engine's own ensemble, never the evictable
                # registry — a checkpoint must stay self-describing.
                ensembles.setdefault(
                    handle.fingerprint,
                    EnsembleRef(
                        handle.fingerprint, handle.session.engine.ensemble
                    ),
                )
                sessions.append(
                    SessionCheckpoint(
                        session_id=handle.session_id,
                        fingerprint=handle.fingerprint,
                        spec=handle.spec,
                        state=state,
                        seq=last_seq,
                    )
                )
            journal.write_checkpoint(sessions, ensembles.values())

    def recover_from_journal(self, journal) -> int:
        """Rebuild live sessions from a journal's checkpoint + reenactment.

        Reads every prior segment under ``journal``'s directory (the
        freshly reopened journal writes to a new segment, so nothing
        read here is being appended to) and registers every recorded
        ensemble.  Each session in the *last* checkpoint is restored
        under its recorded id from its state snapshot; then the whole
        journal walks through :func:`~repro.journal.replay.reenact`,
        which skips the events a snapshot already folded in (``seq`` at
        or below its checkpoint ``seq``) and re-opens every other
        session under its recorded id and spec.  A recorded op that
        cannot be re-applied raises :class:`JournalCorruptError` naming
        its session and ``seq``.  Returns the number of live sessions
        after recovery.

        Call *before* :meth:`attach_journal` — recovery re-drives
        decisions through the normal session code paths, and those must
        not be re-recorded.
        """
        if self._journal is not None:
            raise ApiError(
                "recover_from_journal must run before attach_journal",
                code="invalid_argument",
            )
        events = read_events(journal.directory)
        ensembles = recorded_ensembles(events)
        for ensemble in ensembles.values():
            self.register_ensemble(ensemble)
        identity: "dict[str, tuple[str, EngineSpec]]" = {}

        def engine(recorded):
            # A checkpoint entry or an open event: id, fingerprint, spec.
            ensemble = ensembles.get(recorded.fingerprint)
            if ensemble is None:
                raise JournalCorruptError(
                    f"journal records session {recorded.session_id!r} under "
                    f"ensemble {recorded.fingerprint[:16]}… but never the "
                    "ensemble itself"
                )
            identity[recorded.session_id] = (
                recorded.fingerprint,
                recorded.spec,
            )
            return self.engine_for(ensemble, recorded.spec)

        checkpoint = next(
            (e for e in reversed(events) if isinstance(e, CheckpointEvent)),
            None,
        )
        restored = {
            entry.session_id: (
                EngineSession.restore(engine(entry), entry.state),
                entry.seq,
            )
            for entry in (checkpoint.sessions if checkpoint else ())
        }

        def unapplied(event, _decisions, error):
            if error is not None:
                raise JournalCorruptError(
                    f"cannot re-apply the {event.kind} at seq {event.seq} "
                    f"of session {event.session_id!r}: {error}"
                ) from error

        live, _opened, _skipped = reenact(
            events,
            lambda event: engine(event).open_session(),
            unapplied,
            restored,
        )
        with self._sessions_lock:
            for session_id, (session, last_seq) in live.items():
                fingerprint, spec = identity[session_id]
                self._sessions[session_id] = _SessionHandle(
                    session_id, session, fingerprint, spec, last_seq
                )
        # Resume the session-id counter past every recorded id so a
        # recovered service never re-mints a journaled session id.
        numbers = [
            int(match.group(1))
            for match in map(re.compile(r"^sess-(\d+)-").match, identity)
            if match is not None
        ]
        if numbers:
            self._session_seq = itertools.count(max(numbers) + 1)
        restored_count = len(self._sessions)
        journal.note_restores(restored_count)
        return restored_count

    # ------------------------------------------------------------ typed ops
    def plan(self, request: PlanRequest) -> PlanResponse:
        engine = self.engine_for(request.ensemble, request.spec)
        return PlanResponse(
            outcome=engine.plan(
                list(request.requests),
                objective=request.objective,
                planner=request.planner,
            )
        )

    def resolve(self, request: ResolveRequest) -> ResolveResponse:
        return self.coalescer.submit(self, request)

    def alternatives(self, request: AlternativesRequest) -> AlternativesResponse:
        return self.coalescer.submit(self, request)

    def submit_batch(self, request: SubmitBatchRequest) -> SubmitBatchResponse:
        # The error envelope cannot report partial admissions, so the
        # burst rule runs up front and either the whole burst applies or
        # none of it does.  A repeated id outranks every session error.
        ids = [r.request_id for r in request.requests]
        check_burst(ids)
        if request.session_id is not None:
            handle = self._session_handle(request.session_id)
            if request.ensemble is not None or request.spec is not None:
                raise ApiError(
                    "submit_batch addresses a session_id; drop the "
                    "ensemble/spec fields (sessions keep their identity)",
                    code="ambiguous_target",
                )
            session_id = request.session_id
            opened_here = False
        else:
            session_id = self.open_session(request.ensemble, request.spec)
            handle = self._session_handle(session_id)
            opened_here = True
        # Session lock spans the active-id validation AND the burst, so a
        # concurrent burst on the same session cannot invalidate the
        # check between validate and submit (session.lock is an RLock;
        # submit_many re-acquires it harmlessly).
        with handle.session.lock:
            check_burst(ids, handle.session.active)
            try:
                decisions = handle.session.submit_many(list(request.requests))
            except Exception:
                # Backstop for unexpected mid-burst failures: the error
                # envelope cannot carry the implicit session's id, so an
                # implicitly opened session must not outlive a failed
                # burst — it would count against max_sessions unclosable.
                if opened_here:
                    self.close_session(session_id)
                raise
            journal = self._journal
            if journal is not None:
                handle.last_seq = journal.append(
                    SubmitEvent(
                        session_id=session_id,
                        requests=tuple(request.requests),
                        decisions=tuple(decisions),
                    )
                )
            response = SubmitBatchResponse(
                session_id=session_id,
                decisions=tuple(decisions),
                remaining=handle.session.remaining,
                deferred=len(handle.session.deferred),
            )
        self._maybe_checkpoint()
        return response

    def retry_deferred(
        self, request: RetryDeferredRequest
    ) -> RetryDeferredResponse:
        handle = self._session_handle(request.session_id)
        session = handle.session
        # Hold the session lock across the drain and the snapshot so the
        # reported remaining/deferred match the decisions returned.
        with session.lock:
            decisions = session.retry_deferred()
            journal = self._journal
            # An empty drain provably changed nothing (the floor
            # early-exit or an empty queue); only decision-bearing
            # drains are journal events.
            if journal is not None and decisions:
                handle.last_seq = journal.append(
                    RetryEvent(
                        session_id=request.session_id,
                        decisions=tuple(decisions),
                    )
                )
            response = RetryDeferredResponse(
                session_id=request.session_id,
                decisions=tuple(decisions),
                remaining=session.remaining,
                deferred=len(session.deferred),
            )
        self._maybe_checkpoint()
        return response

    def session_op(self, request: SessionOpRequest) -> SessionOpResponse:
        if request.op not in SESSION_OPS:
            # The wire path can't get here (dispatch is by type tag), but
            # handle() is public — a typo'd op must not silently revoke.
            raise ApiError(
                f"unknown session op {request.op!r}", code="invalid_argument"
            )
        if request.op == "close_session":
            self.close_session(request.session_id)
            return SessionOpResponse(
                op=request.op, session_id=request.session_id
            )
        handle = self._session_handle(request.session_id)
        session = handle.session
        if not request.request_ids:
            raise ApiError(
                f"{request.op} needs at least one request id",
                code="invalid_argument",
            )
        # Validate every id up front so the op is atomic: either all
        # reservations release or none do — a partial release the client
        # only learns about through an error envelope would leave its
        # ledger permanently out of step with the session's.  The session
        # lock spans validation and release so a concurrent op on the
        # same session cannot invalidate the check mid-loop.
        if len(set(request.request_ids)) != len(request.request_ids):
            raise ApiError(
                f"{request.op} request_ids must be unique",
                code="invalid_argument",
            )
        with session.lock:
            active = session.active
            for request_id in request.request_ids:
                if request_id not in active:
                    raise ApiError(
                        f"no active reservation for {request_id!r}",
                        code="unknown_reservation",
                    )
            release = (
                session.complete if request.op == "complete" else session.revoke
            )
            released = 0.0
            for request_id in request.request_ids:
                released += release(request_id)
            journal = self._journal
            if journal is not None:
                handle.last_seq = journal.append(
                    ReleaseEvent(
                        op=request.op,
                        session_id=request.session_id,
                        request_ids=tuple(request.request_ids),
                        released=released,
                    )
                )
        self._maybe_checkpoint()
        return SessionOpResponse(
            op=request.op,
            session_id=request.session_id,
            released=released,
        )

    # -------------------------------------------------------------- simulate
    @property
    def scenario_registry(self) -> ScenarioRegistry:
        """The registry named ``simulate`` requests resolve against."""
        if self._scenario_registry is None:
            self._scenario_registry = default_scenario_registry()
        return self._scenario_registry

    def _resolve_scenario(self, request: SimulateRequest) -> ScenarioSpec:
        if request.scenario is not None:
            spec = request.scenario
        else:
            spec = self.scenario_registry.create(
                request.name, **(request.overrides or {})
            )
        if spec.engine is None:
            # Fall back to the server default spec (repro serve flags),
            # or answer the typed missing_spec error.
            spec = replace(spec, engine=self._resolve_spec(None))
        if spec.ensemble.n_strategies > self._max_spec_strategies:
            raise ApiError(
                f"scenario names {spec.ensemble.n_strategies} strategies; "
                f"this service materializes at most "
                f"{self._max_spec_strategies}",
                code="workload_too_large",
            )
        if spec.kind != "adpar" and (
            spec.requests.m_requests > self._max_spec_requests
        ):
            raise ApiError(
                f"scenario names {spec.requests.m_requests} requests; "
                f"this service materializes at most "
                f"{self._max_spec_requests}",
                code="workload_too_large",
            )
        return spec

    def _workload_key(self, spec: ScenarioSpec) -> str:
        # Only the fields that feed ScenarioSpec.build — arrival ordering
        # and engine knobs are applied at drive time, so two scenarios
        # differing only there share one materialized workload.
        key = {
            "kind": spec.kind,
            "seed": spec.seed,
            "tightness": spec.tightness,
            "ensemble": encode(spec.ensemble),
            "requests": encode(spec.requests),
        }
        if spec.trace_path:
            key["trace_path"] = spec.trace_path
        return json.dumps(key, sort_keys=True, separators=(",", ":"))

    def materialize(self, spec: ScenarioSpec):
        """Build (or recall) a scenario's workload; returns ``(ensemble, payload)``.

        Materialized ensembles enter the content-hash registry exactly
        like inline uploads, so follow-up ``plan``/``resolve``/
        ``submit_batch`` traffic can address them by fingerprint; the
        workload cache keys on the build-relevant spec fields and keeps
        the payload (requests or the ADPaR hard request) alongside the
        hash.
        """
        if spec.kind == "trace":
            # Never cached: a journal file grows on disk, so a path-keyed
            # entry would keep serving a stale prefix of the trace.
            ensemble, payload = spec.build()
            self.register_ensemble(ensemble)
            return ensemble, payload
        key = self._workload_key(spec)
        hit = self._workloads.get(key)
        if hit is not None:
            fingerprint, payload = hit
            # get() already refreshed both entries' LRU slots.
            ensemble = self._ensembles.get(fingerprint)
            if ensemble is not None:
                return ensemble, payload
        ensemble, payload = spec.build()
        fingerprint = self.register_ensemble(ensemble)
        # put() refreshes a stale entry's LRU slot too — a rebuild is a
        # use, same as the hit path.
        self._workloads.put(key, (fingerprint, payload))
        return ensemble, payload

    def simulate(self, request: SimulateRequest) -> SimulateResponse:
        """Materialize a declarative scenario server-side and drive it."""
        spec = self._resolve_scenario(request)
        ensemble, payload = self.materialize(spec)
        engine = self.engine_for(ensemble, spec.engine)
        report = simulate_scenario(
            engine, spec, ensemble=ensemble, payload=payload
        )
        journal = self._journal
        if journal is not None and spec.kind == "trace":
            journal.note_replay(report.replay_decisions, report.replay_flips)
        return SimulateResponse(report=report)

    def stats(self, request: "StatsRequest | None" = None) -> StatsResponse:
        journal = self._journal
        return StatsResponse(
            cache=self.cache.stats,
            engines=len(self._engines),
            sessions=len(self._sessions),
            ensembles=len(self._ensembles),
            workloads=len(self._workloads),
            max_engines=self._max_engines,
            max_sessions=self._max_sessions,
            max_ensembles=self._max_ensembles,
            occupancy=self.cache.occupancy(),
            coalescer=self.coalescer.occupancy(),
            journal=None if journal is None else journal.occupancy(),
        )

    # -------------------------------------------------------------- dispatch
    def handle(self, request):
        """Route one typed request envelope to its operation."""
        handler = self._HANDLERS.get(type(request))
        if handler is None:
            raise ApiError(
                f"unsupported request envelope {type(request).__name__}",
                code="unknown_type",
            )
        return handler(self, request)

    def handle_dict(self, payload) -> dict:
        """The wire entry point: raw JSON object in, raw JSON object out.

        Never raises for malformed/invalid traffic — decoding failures
        and every :mod:`repro.exceptions` error come back as the typed
        error envelope with a stable code.
        """
        try:
            return self.handle(parse_request(payload)).to_dict()
        except Exception as exc:  # noqa: BLE001 — wire boundary, never leak
            return error_response_for(exc).to_dict()

    _HANDLERS = {
        PlanRequest: plan,
        ResolveRequest: resolve,
        AlternativesRequest: alternatives,
        SubmitBatchRequest: submit_batch,
        RetryDeferredRequest: retry_deferred,
        SessionOpRequest: session_op,
        SimulateRequest: simulate,
        StatsRequest: stats,
    }
