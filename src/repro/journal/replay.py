"""Reenactment: re-drive a recorded trace through real sessions.

The reenactment idea (Arab et al., PAPERS.md): a session's state is a
checkpoint plus a reenacted tail, and a recorded decision journal is not
just a recovery artifact but a *workload* — re-driving its sessions
under a possibly different :class:`~repro.api.wire.EngineSpec` answers
"what would this engine configuration have decided on last week's
traffic?" with a structured decision diff instead of a guess.

One walker, :func:`reenact`, drives recorded events through engine
sessions for all three readers of a journal; each caller says only how
a recorded open becomes a session and what an op that could not be
applied means:

* journal recovery (``EngineService.recover_from_journal``) restores
  each session under its recorded id and spec, and raises
  :class:`~repro.exceptions.JournalCorruptError` for an unapplied op;
* :func:`replay_trace` — ``repro replay`` — opens each session on the
  pooled engine for its recorded spec with field overrides applied
  (``--planner``/``--solver``/...), and pairs an unapplied op's
  recorded decisions with nothing;
* :func:`reenact_on_engine` — the ``recorded-trace`` scenario family —
  opens the primary ensemble's sessions on the scenario's engine and
  pairs the same way.

Comparison is exact: every recorded/replayed decision pair is matched on
``StreamDecision.comparison_key()`` — request id, status, strategy
choice, workforce reserved, and the ADPaR alternative's parameters /
distance / strategy indices — so replaying a trace under the *same*
spec must reproduce every decision bitwise
(:attr:`ReplayReport.bitwise_identical`, the determinism gate pinned by
``benchmarks/bench_journal.py``), and any drift under a *different*
spec surfaces as admit/defer flips, alternative-quality deltas, and
ledger-counter deltas.

Service imports are deliberately lazy: this module loads as part of
``repro.journal``'s package init, which ``repro.api.service`` itself
triggers by importing the event codecs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.session import check_burst
from repro.exceptions import JournalCorruptError, ReproError
from repro.journal.events import (
    CheckpointEvent,
    EnsembleEvent,
    ReleaseEvent,
    SessionCloseEvent,
    SessionOpenEvent,
    SubmitEvent,
)
from repro.journal.journal import read_events
from repro.workloads.spec import replace_spec

#: Cap on materialized per-decision diffs in a report (the aggregate
#: counters always cover the full trace).
MAX_DIFFS = 64


# ---------------------------------------------------------------- workload
@dataclass(frozen=True)
class TraceWorkload:
    """A recorded journal trace as a drivable scenario payload.

    ``fingerprint`` names the trace's *primary* ensemble — the one whose
    sessions submitted the most requests (ties break to first recorded)
    — which is the ensemble the ``recorded-trace`` scenario family
    materializes; ``sessions``/``arrivals`` count that ensemble's share
    of the trace.
    """

    trace: str
    fingerprint: str
    events: tuple
    sessions: int
    arrivals: int


def recorded_ensembles(events) -> dict:
    """Fingerprint → ensemble for every inline ensemble ``events`` record.

    One pass in journal order, first record first: ``ensemble`` events
    and checkpoint refs alike — a checkpoint embeds its sessions'
    ensembles, so a segment read on its own still resolves them.
    """
    ensembles: "dict[str, object]" = {}
    for event in events:
        if isinstance(event, EnsembleEvent):
            refs = (event.ref,)
        elif isinstance(event, CheckpointEvent):
            refs = event.ensembles
        else:
            continue
        for ref in refs:
            if ref.ensemble is not None:
                ensembles.setdefault(ref.fingerprint, ref.ensemble)
    return ensembles


def load_trace(path):
    """Read a journal into ``(primary ensemble, TraceWorkload)``.

    ``path`` is a journal directory or a single segment file.  Raises
    :class:`JournalCorruptError` when the trace is unreadable or records
    no inline ensemble (a trace without its ensembles cannot be
    re-driven).
    """
    events = read_events(path)
    ensembles = recorded_ensembles(events)
    if not ensembles:
        raise JournalCorruptError(
            f"trace {path} records no inline ensemble; nothing to replay"
        )
    session_fp: "dict[str, str]" = {}
    submitted: "dict[str, int]" = {}
    for event in events:
        if isinstance(event, CheckpointEvent):
            for entry in event.sessions:
                session_fp.setdefault(entry.session_id, entry.fingerprint)
        elif isinstance(event, SessionOpenEvent):
            session_fp[event.session_id] = event.fingerprint
        elif isinstance(event, SubmitEvent):
            fingerprint = session_fp.get(event.session_id)
            if fingerprint is not None:
                submitted[fingerprint] = submitted.get(fingerprint, 0) + len(
                    event.requests
                )
    # max() keeps the first of equal keys: ties go to first recorded.
    primary = max(ensembles, key=lambda fp: submitted.get(fp, 0))
    sessions = sum(1 for fp in session_fp.values() if fp == primary)
    workload = TraceWorkload(
        trace=str(path),
        fingerprint=primary,
        events=tuple(events),
        sessions=sessions,
        arrivals=submitted.get(primary, 0),
    )
    return ensembles[primary], workload


# -------------------------------------------------------------------- diffs
def _status_str(decision) -> "str | None":
    return None if decision is None else decision.status.value


def _request_id(decision) -> str:
    # Recorded DecisionRecords carry the id directly; replayed
    # StreamDecisions reach it through their embedded request.
    request = getattr(decision, "request", None)
    return decision.request_id if request is None else request.request_id


def _distance(decision) -> "float | None":
    if decision is None or decision.alternative is None:
        return None
    return decision.alternative.distance


@dataclass(frozen=True)
class DecisionDiff:
    """One recorded/replayed decision pair that did not match exactly.

    ``replayed_status`` is ``None`` for a recorded decision the replay
    produced no counterpart for (and vice versa) — e.g. a burst the
    replay target rejected because an earlier flip left its request id
    still active.
    """

    session_id: str
    request_id: str
    source: str  # "submit" | "retry"
    recorded_status: "str | None"
    replayed_status: "str | None"
    recorded_reserved: float = 0.0
    replayed_reserved: float = 0.0
    recorded_distance: "float | None" = None
    replayed_distance: "float | None" = None

    @property
    def flipped(self) -> bool:
        """True when the admission *status* changed (not just quality)."""
        return self.recorded_status != self.replayed_status

    def to_dict(self) -> dict:
        return {
            "session_id": self.session_id,
            "request_id": self.request_id,
            "source": self.source,
            "recorded_status": self.recorded_status,
            "replayed_status": self.replayed_status,
            "recorded_reserved": self.recorded_reserved,
            "replayed_reserved": self.replayed_reserved,
            "recorded_distance": self.recorded_distance,
            "replayed_distance": self.replayed_distance,
            "flipped": self.flipped,
        }


@dataclass(frozen=True)
class ReplayReport:
    """Aggregate outcome of one reenactment pass.

    ``decisions`` counts compared pairs; ``identical`` counts pairs
    whose ``comparison_key`` matched exactly; ``flips`` counts status
    flips (a strict subset of non-identical pairs); ``diffs`` holds up
    to :data:`MAX_DIFFS` materialized :class:`DecisionDiff` rows, most
    trace-ordered first (``diffs_truncated`` says whether the cap bit).
    """

    trace: str
    sessions: int
    skipped_sessions: int
    events: int
    decisions: int
    identical: int
    flips: int
    diffs: "tuple[DecisionDiff, ...]"
    diffs_truncated: bool
    recorded_counts: dict
    replayed_counts: dict
    reserved_delta: float
    mean_distance_delta: float
    overrides: dict

    @property
    def bitwise_identical(self) -> bool:
        """True when every compared pair matched exactly (the
        same-spec determinism gate)."""
        return self.identical == self.decisions

    @property
    def changed(self) -> int:
        return self.decisions - self.identical

    def counter_deltas(self) -> dict:
        """Per-status replayed-minus-recorded decision count deltas."""
        keys = sorted(set(self.recorded_counts) | set(self.replayed_counts))
        return {
            key: self.replayed_counts.get(key, 0)
            - self.recorded_counts.get(key, 0)
            for key in keys
        }

    def to_dict(self) -> dict:
        return {
            "trace": self.trace,
            "sessions": self.sessions,
            "skipped_sessions": self.skipped_sessions,
            "events": self.events,
            "decisions": self.decisions,
            "identical": self.identical,
            "changed": self.changed,
            "flips": self.flips,
            "bitwise_identical": self.bitwise_identical,
            "recorded_counts": dict(self.recorded_counts),
            "replayed_counts": dict(self.replayed_counts),
            "counter_deltas": self.counter_deltas(),
            "reserved_delta": self.reserved_delta,
            "mean_distance_delta": self.mean_distance_delta,
            "overrides": dict(self.overrides),
            "diffs_truncated": self.diffs_truncated,
            "diffs": [diff.to_dict() for diff in self.diffs],
        }

    def summary(self) -> str:
        head = (
            f"replayed {self.decisions} decisions over {self.sessions} "
            f"session(s) from {self.trace}"
        )
        if self.skipped_sessions:
            head += f" ({self.skipped_sessions} session(s) skipped)"
        if self.bitwise_identical:
            return head + ": bitwise identical"
        deltas = ", ".join(
            f"{key}{delta:+d}"
            for key, delta in self.counter_deltas().items()
            if delta
        )
        lines = [
            head
            + f": {self.changed} changed ({self.flips} status flips)"
            + (f" [{deltas}]" if deltas else ""),
            f"  reserved delta {self.reserved_delta:+.6f}, "
            f"mean alternative-distance delta "
            f"{self.mean_distance_delta:+.6f}",
        ]
        return "\n".join(lines)


# ------------------------------------------------------------------ pairs
class _Pairs:
    """Accumulates recorded/replayed decision pairs into report terms."""

    def __init__(self):
        self.decisions = 0
        self.identical = 0
        self.flips = 0
        self.diffs: "list[DecisionDiff]" = []
        self.truncated = False
        self.recorded_counts: "dict[str, int]" = {}
        self.replayed_counts: "dict[str, int]" = {}
        self.reserved_delta = 0.0
        self._distance_deltas: "list[float]" = []

    def add_event(self, event, replayed, _error) -> None:
        """Pair a submit/retry event's recorded decisions with the
        replayed ones (``None``: the op went unapplied).

        Pairs match by request id: a burst answers one decision per
        (unique) id, and a drain's queue may hold different requests
        after an earlier admit/defer flip.
        """
        replayed_by_id = {_request_id(d): d for d in replayed or ()}
        for recorded in event.decisions:
            other = replayed_by_id.pop(recorded.request_id, None)
            self.add(event.session_id, event.kind, recorded, other)
        for decision in replayed_by_id.values():
            self.add(event.session_id, event.kind, None, decision)

    def add(self, session_id: str, source: str, recorded, replayed) -> None:
        self.decisions += 1
        for decision, counts in (
            (recorded, self.recorded_counts),
            (replayed, self.replayed_counts),
        ):
            status = _status_str(decision)
            if status is not None:
                counts[status] = counts.get(status, 0) + 1
        self.reserved_delta += (
            0.0 if replayed is None else replayed.workforce_reserved
        ) - (0.0 if recorded is None else recorded.workforce_reserved)
        recorded_distance = _distance(recorded)
        replayed_distance = _distance(replayed)
        if recorded_distance is not None and replayed_distance is not None:
            self._distance_deltas.append(replayed_distance - recorded_distance)
        if (
            recorded is not None
            and replayed is not None
            and recorded.comparison_key() == replayed.comparison_key()
        ):
            self.identical += 1
            return
        if _status_str(recorded) != _status_str(replayed):
            self.flips += 1
        if len(self.diffs) < MAX_DIFFS:
            request = recorded if recorded is not None else replayed
            self.diffs.append(
                DecisionDiff(
                    session_id=session_id,
                    request_id=_request_id(request),
                    source=source,
                    recorded_status=_status_str(recorded),
                    replayed_status=_status_str(replayed),
                    recorded_reserved=(
                        0.0 if recorded is None else recorded.workforce_reserved
                    ),
                    replayed_reserved=(
                        0.0 if replayed is None else replayed.workforce_reserved
                    ),
                    recorded_distance=recorded_distance,
                    replayed_distance=replayed_distance,
                )
            )
        else:
            self.truncated = True

    def report(
        self, workload: TraceWorkload, sessions: int, skipped: int, overrides
    ) -> ReplayReport:
        deltas = self._distance_deltas
        return ReplayReport(
            trace=workload.trace,
            sessions=sessions,
            skipped_sessions=skipped,
            events=len(workload.events),
            decisions=self.decisions,
            identical=self.identical,
            flips=self.flips,
            diffs=tuple(self.diffs),
            diffs_truncated=self.truncated,
            recorded_counts=self.recorded_counts,
            replayed_counts=self.replayed_counts,
            reserved_delta=self.reserved_delta,
            mean_distance_delta=sum(deltas) / len(deltas) if deltas else 0.0,
            overrides=dict(overrides or {}),
        )


# ----------------------------------------------------------------- walker
def reenact(events, open_session, outcome, restored=None):
    """Drive recorded events through engine sessions, one rule per case.

    ``open_session(event)`` turns a recorded open into an
    :class:`~repro.engine.session.EngineSession`, or ``None`` to skip
    that session.  ``outcome(event, decisions, error)`` hears every
    submit or retry driven on a live session: the decisions it drew, or
    ``None`` and the :class:`ReproError` that left it unapplied.
    ``restored`` maps the ids of sessions already rebuilt from a
    checkpoint to ``(session, checkpoint seq)``.  The rules:

    * an open that is restated (its session live or skipped) is skipped;
    * an event at or below its session's ``seq`` horizon is skipped — a
      restored session's horizon starts at its checkpoint ``seq``, so
      events the snapshot already folded in never apply twice;
    * a burst the live service would reject (:func:`check_burst`: a
      repeated id, or an id still active) is not applied, and neither
      is a submit or retry that raises a :class:`ReproError`;
    * a release skips ids that are not active;
    * a close drops the session.

    Returns ``(live, opened, skipped)``: ``live`` maps each session
    still open at the end to ``[session, seq of its last event]``;
    ``opened`` and ``skipped`` count the opens driven and declined.
    """
    live = {
        sid: [session, seq] for sid, (session, seq) in (restored or {}).items()
    }
    skipped: "set[str]" = set()
    opened = 0
    for event in events:
        session_id = getattr(event, "session_id", None)
        if isinstance(event, SessionOpenEvent):
            if session_id in live or session_id in skipped:
                continue
            session = open_session(event)
            if session is None:
                skipped.add(session_id)
            else:
                live[session_id] = [session, event.seq]
                opened += 1
            continue
        slot = live.get(session_id)
        if slot is None or event.seq <= slot[1]:
            continue
        session, slot[1] = slot[0], event.seq
        if isinstance(event, SessionCloseEvent):
            del live[session_id]
        elif isinstance(event, ReleaseEvent):
            release = (
                session.complete if event.op == "complete" else session.revoke
            )
            active = session.active
            for request_id in event.request_ids:
                if active.pop(request_id, None) is not None:
                    release(request_id)
        else:
            decisions = error = None
            try:
                if isinstance(event, SubmitEvent):
                    check_burst(
                        [r.request_id for r in event.requests], session.active
                    )
                    decisions = session.submit_many(list(event.requests))
                else:
                    decisions = session.retry_deferred()
            except ReproError as exc:
                error = exc
            outcome(event, decisions, error)
    return live, opened, len(skipped)


def _diff(workload, open_session, overrides=None) -> ReplayReport:
    pairs = _Pairs()
    _live, opened, skipped = reenact(
        workload.events, open_session, pairs.add_event
    )
    return pairs.report(workload, opened, skipped, overrides)


# ------------------------------------------------------------- entry points
def replay_trace(trace, overrides: "dict | None" = None) -> ReplayReport:
    """Re-drive a recorded trace through pooled engines; diff decisions.

    ``trace`` is a journal directory or segment file.  Each recorded
    session re-opens on a private :class:`~repro.api.EngineService`'s
    pooled engine for its *recorded* ensemble and spec, with
    ``overrides`` applied field-by-field — so ``--solver adpar-epsilon``
    reenacts exactly the recorded traffic under one changed knob.  With
    no overrides the pass must come back
    :attr:`~ReplayReport.bitwise_identical`.
    """
    from repro.api.service import EngineService

    _, workload = load_trace(trace)
    ensembles = recorded_ensembles(workload.events)
    service = EngineService()

    def open_session(event: SessionOpenEvent):
        ensemble = ensembles.get(event.fingerprint)
        if ensemble is None:
            return None
        spec = replace_spec(event.spec, **(overrides or {}))
        try:
            return service.engine_for(ensemble, spec).open_session()
        except ReproError:
            return None

    return _diff(workload, open_session, overrides)


def reenact_on_engine(engine, workload: TraceWorkload) -> ReplayReport:
    """Re-drive a trace's primary-ensemble sessions on a built engine.

    The ``recorded-trace`` scenario path: ``engine`` is already
    configured by the scenario's :class:`~repro.api.wire.EngineSpec`
    (which may differ from every recorded spec — that *is* the
    experiment), so recorded specs are ignored and sessions on other
    ensembles are skipped.
    """

    def open_session(event: SessionOpenEvent):
        if event.fingerprint != workload.fingerprint:
            return None
        return engine.open_session()

    return _diff(workload, open_session)
