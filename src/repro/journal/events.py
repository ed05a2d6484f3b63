"""Typed journal events and their JSONL codec.

One frozen dataclass per event the decision journal records;
:func:`event_to_dict`/:func:`event_from_dict` run the derived codec of
:mod:`repro.api.codec` (JSON-native output, lossless round-trip, typed
failure), with each line framed as ``{"event": <kind>, "seq", "ts",
...fields}``.  Identity payloads — specs, ensembles, session snapshots
— travel in their wire form, so checkpoints stay greppable in the wire
vocabulary and decode through the same decoders.  The *high-frequency*
payloads are declared more compact, because their encoding cost is the
journal's whole hot-path tax: submit requests use a positional
``[quality, cost, latency]`` triple with defaults omitted
(:data:`JOURNAL_REQUEST`), and decisions — recomputable, since recovery
re-drives the recorded requests — shrink to :class:`DecisionRecord`,
just the ``comparison_key`` surface the replay differ consumes, instead
of full wire decisions that embed their request twice over plus the
ADPaR working set.

Framing: the journal writer stamps each event with its monotonically
increasing journal position ``seq`` and a wall-clock ``ts``; both
round-trip verbatim.  Checkpoint consistency is reasoned about entirely
in ``seq``: a :class:`SessionCheckpoint` records the ``seq`` of the last
event folded into its snapshot, so recovery can skip exactly the events
a snapshot already contains — even events that were appended after the
snapshot was taken but landed *before* the checkpoint line (checkpoints
are written outside session locks; see ``EngineService``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.codec import Form, as_str, decode, declare, encode, require
from repro.api.wire import EngineSpec, EnsembleRef
from repro.core.params import TriParams
from repro.core.request import DeploymentRequest
from repro.core.streaming import StreamStatus
from repro.engine.session import SessionState
from repro.exceptions import ApiError

_WHAT = "journal event"

#: Event kind → event class, filled as each class is defined.
_KINDS: "dict[str, type]" = {}


class _Event:
    """Base of the journal events.

    Each subclass names a unique ``kind`` (its ``"event"`` tag) and
    declares its line form at class creation: the tag, then ``seq`` and
    ``ts``, then its fields; class keywords are
    :class:`~repro.api.codec.Form` overrides.
    """

    def __init_subclass__(cls, **overrides):
        super().__init_subclass__()
        if cls.kind in _KINDS:
            raise TypeError(
                f"journal event kind {cls.kind!r} is already "
                f"{_KINDS[cls.kind].__name__}'s"
            )
        _KINDS[cls.kind] = cls
        declare(
            cls,
            tag=(("event", cls.kind),),
            order=("seq", "ts"),
            what=_WHAT,
            **overrides,
        )


#: TriParams as a positional ``[quality, cost, latency]`` triple.
TRIPLE = Form(TriParams, positional=True)

#: A submit-stream request in journal form: positional params triple,
#: defaults omitted — these dominate journal bytes, and the full wire
#: spelling spent most of a line re-stating field names.
JOURNAL_REQUEST = Form(
    DeploymentRequest,
    what="journal request",
    keys={"request_id": "id"},
    omit=("task_type", "payoff"),
    forms={"params": TRIPLE},
)


@dataclass(frozen=True)
class EnsembleEvent(_Event, keys={"ref": "ensemble"}):
    """An ensemble became addressable (always precedes its sessions)."""

    kind = "ensemble"
    ref: EnsembleRef
    seq: int = 0
    ts: float = 0.0


@dataclass(frozen=True)
class SessionOpenEvent(_Event):
    """A streaming session opened under one (fingerprint, spec) identity."""

    kind = "session_open"
    session_id: str
    fingerprint: str
    spec: EngineSpec
    seq: int = 0
    ts: float = 0.0


@dataclass(frozen=True)
class SessionCloseEvent(_Event):
    """A session closed; its reservations are gone."""

    kind = "session_close"
    session_id: str
    seq: int = 0
    ts: float = 0.0


@dataclass(frozen=True)
class AlternativeRecord:
    """The comparison surface of an ADPaR alternative — exactly the
    triple ``StreamDecision.comparison_key`` folds in."""

    params: TriParams
    distance: float
    indices: "tuple[int, ...]" = ()


@dataclass(frozen=True)
class DecisionRecord:
    """One recorded decision, journal-compact.

    Decisions are recomputable — recovery re-drives the recorded
    requests through the real engine — so the journal keeps only the
    *comparison surface*: the fields ``StreamDecision.comparison_key``
    pins, which is also everything the replay differ reports (status,
    reserved workforce, alternative distance).  This is the one
    deliberate departure from encode-as-the-wire-does: a full wire
    decision embeds its request (already on the event) and the ADPaR
    working set (original params, relaxation, squared distance —
    derivable or duplicated), which roughly tripled journal lines for
    bytes no reader consumed.
    """

    request_id: str
    status: StreamStatus
    strategy_names: "tuple[str, ...]" = ()
    workforce_reserved: float = 0.0
    alternative: "AlternativeRecord | None" = None

    @classmethod
    def of(cls, decision) -> "DecisionRecord":
        """The record for a :class:`StreamDecision` (records pass through)."""
        if isinstance(decision, cls):
            return decision
        alternative = decision.alternative
        return cls(
            request_id=decision.request.request_id,
            status=decision.status,
            strategy_names=tuple(decision.strategy_names),
            workforce_reserved=decision.workforce_reserved,
            alternative=(
                None
                if alternative is None
                else AlternativeRecord(
                    params=alternative.alternative,
                    distance=alternative.distance,
                    indices=tuple(alternative.strategy_indices),
                )
            ),
        )

    def comparison_key(self) -> tuple:
        """Identical shape to ``StreamDecision.comparison_key`` so a
        recorded record compares exactly against a replayed decision."""
        alternative = (
            None
            if self.alternative is None
            else (
                self.alternative.params,
                self.alternative.distance,
                self.alternative.indices,
            )
        )
        return (
            self.request_id,
            self.status,
            self.strategy_names,
            self.workforce_reserved,
            alternative,
        )


# The alternative travels as ``[[quality, cost, latency], distance,
# indices]``; a record's defaults stay off the line.
declare(AlternativeRecord, positional=True, forms={"params": TRIPLE})
declare(
    DecisionRecord,
    keys={
        "request_id": "id",
        "strategy_names": "names",
        "workforce_reserved": "reserved",
        "alternative": "alt",
    },
    omit=("strategy_names", "workforce_reserved", "alternative"),
)


def _as_records(decisions) -> "tuple[DecisionRecord, ...]":
    return tuple(DecisionRecord.of(d) for d in decisions)


@dataclass(frozen=True)
class SubmitEvent(_Event, forms={"requests": JOURNAL_REQUEST}):
    """One admission burst: the requests and the decisions they drew.

    ``decisions`` accepts :class:`StreamDecision` values (the service
    hands its responses straight over) and normalizes them to
    :class:`DecisionRecord` — event equality and the JSONL round-trip
    are defined over records.
    """

    kind = "submit"
    session_id: str
    requests: "tuple[DeploymentRequest, ...]"
    decisions: "tuple[DecisionRecord, ...]"
    seq: int = 0
    ts: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "decisions", _as_records(self.decisions))


@dataclass(frozen=True)
class RetryEvent(_Event):
    """A non-empty deferred-queue drain and the decisions it produced."""

    kind = "retry"
    session_id: str
    decisions: "tuple[DecisionRecord, ...]"
    seq: int = 0
    ts: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "decisions", _as_records(self.decisions))


@dataclass(frozen=True)
class ReleaseEvent(_Event):
    """A complete/revoke batch freeing reserved workforce."""

    kind = "release"
    op: str
    session_id: str
    request_ids: "tuple[str, ...]"
    released: float = 0.0
    seq: int = 0
    ts: float = 0.0

    def __post_init__(self):
        if self.op not in ("complete", "revoke"):
            raise ValueError(
                f"release op must be 'complete' or 'revoke', got {self.op!r}"
            )


@dataclass(frozen=True)
class SessionCheckpoint:
    """One live session inside a checkpoint: identity + ledger snapshot.

    ``seq`` is the journal position of the last event folded into
    ``state`` — recovery applies only tail events with a greater seq.
    """

    session_id: str
    fingerprint: str
    spec: EngineSpec
    state: SessionState
    seq: int = 0


@dataclass(frozen=True)
class CheckpointEvent(_Event):
    """Periodic snapshot of every live session (+ their ensembles inline).

    Self-describing: the inline ensembles make checkpoint + tail
    sufficient to rebuild the checkpointed sessions even if earlier
    segments' ensemble events were rotated far behind.
    """

    kind = "checkpoint"
    sessions: "tuple[SessionCheckpoint, ...]" = ()
    ensembles: "tuple[EnsembleRef, ...]" = ()
    seq: int = 0
    ts: float = 0.0


# ------------------------------------------------------------------- codec
def event_to_dict(event) -> dict:
    """One journal event as a JSON-native dict (a JSONL line's payload)."""
    if not isinstance(event, _Event):
        raise ApiError(
            f"unsupported journal event {type(event).__name__}",
            code="invalid_argument",
        )
    return encode(event)


def event_from_dict(payload):
    """Decode one journal line's payload back into its typed event."""
    kind = as_str(require(payload, "event", _WHAT), "event")
    cls = _KINDS.get(kind)
    if cls is None:
        raise ApiError(
            f"unknown journal event kind {kind!r}", code="invalid_payload"
        )
    return decode(cls, payload)
