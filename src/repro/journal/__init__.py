"""Durable decision journal: append-only event log, snapshots, replay.

The durability layer over the serve stack (ROADMAP "durable decision
log + reenactment replay"):

* :class:`~repro.journal.journal.DecisionJournal` — an append-only JSONL
  event log of every service-level decision (session open/close, submit
  bursts, retries, complete/revoke, ensemble registrations), with
  crash-safe framing, size-based segment rotation, and periodic
  checkpoints carrying :class:`~repro.engine.session.SessionState`
  snapshots so a restarted ``repro serve --journal DIR`` rebuilds all
  live sessions from checkpoint + tail.
* :func:`~repro.journal.replay.reenact` — reenactment (Arab et al.,
  PAPERS.md): the one walker that re-drives recorded events through
  engine sessions, shared by recovery, the ``recorded-trace`` scenario
  and :func:`~repro.journal.replay.replay_trace` (``repro replay``:
  re-drive a trace under a possibly different
  :class:`~repro.api.wire.EngineSpec` and diff every decision against
  the recording).

Journal lines go through the one derived codec (:mod:`repro.api.codec`)
the wire uses, so a trace is the same JSON vocabulary clients see on the
wire.
"""

from repro.journal.events import (
    CheckpointEvent,
    EnsembleEvent,
    ReleaseEvent,
    RetryEvent,
    SessionCheckpoint,
    SessionCloseEvent,
    SessionOpenEvent,
    SubmitEvent,
    event_from_dict,
    event_to_dict,
)
from repro.journal.journal import DecisionJournal, journal_files, read_events
from repro.journal.replay import (
    DecisionDiff,
    ReplayReport,
    TraceWorkload,
    load_trace,
    reenact_on_engine,
    replay_trace,
)

__all__ = [
    "CheckpointEvent",
    "DecisionDiff",
    "DecisionJournal",
    "EnsembleEvent",
    "ReleaseEvent",
    "ReplayReport",
    "RetryEvent",
    "SessionCheckpoint",
    "SessionCloseEvent",
    "SessionOpenEvent",
    "SubmitEvent",
    "TraceWorkload",
    "event_from_dict",
    "event_to_dict",
    "journal_files",
    "load_trace",
    "read_events",
    "reenact_on_engine",
    "replay_trace",
]
