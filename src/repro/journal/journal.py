"""The append-only decision journal: crash-safe JSONL segments + reader.

One :class:`DecisionJournal` owns a directory of ``journal-NNNNNN.jsonl``
segments.  :meth:`~DecisionJournal.append` stamps the event's ``seq``
under the journal lock and enqueues it; a dedicated write-behind thread
encodes queued events to JSON *outside* the lock and group-commits each
batch (write + flush) to the newest segment.  JSON encoding is by far
the dominant append cost, so moving it off the caller's thread keeps the
hot path (a service holding a session lock) to a stamp and a queue push.
Durability is bounded-lag: a flushed batch sits in the OS page cache
(the same trade as a Redis AOF between fsyncs), and the writer group-
commits after a short gather window (:attr:`DecisionJournal.GATHER_WINDOW_S`),
so a crash can cost at most the last window's worth of events —
:meth:`~DecisionJournal.close` blocks until everything queued is on
disk.  A segment past ``max_bytes`` rotates.  Crash-safe framing comes
from two rules rather than fsync ceremony:

* segments are **append-only and never reopened** — a restarted journal
  always starts a fresh segment, so the only line a crash can damage is
  the *last* line of a segment;
* the reader therefore tolerates (drops) an unparseable final line per
  segment and raises :class:`~repro.exceptions.JournalCorruptError` for
  anything else malformed.

Every event is stamped with a monotonically increasing ``seq`` that
survives restarts (the writer resumes past the highest recorded seq), so
checkpoint snapshots can name the exact journal position they fold in —
the consistency anchor recovery skips/applies tail events by.

Counters (events, bytes, checkpoints, restores, rotations, replay
decisions/flips) surface through :meth:`DecisionJournal.occupancy`, the
same plumbing shape as ``EngineCache.occupancy()``, and flow into the
``stats`` wire envelope when a journal is attached to the service.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import deque
from dataclasses import replace
from pathlib import Path

from repro.exceptions import ApiError, JournalCorruptError
from repro.journal.events import (
    CheckpointEvent,
    EnsembleEvent,
    event_from_dict,
    event_to_dict,
)

#: Segment naming: zero-padded so lexicographic order == journal order.
SEGMENT_RE = re.compile(r"^journal-(\d{6})\.jsonl$")


def journal_files(path) -> "list[Path]":
    """The journal segments under ``path`` (a directory or one file), in order."""
    path = Path(path)
    if path.is_file():
        return [path]
    if not path.is_dir():
        return []
    return sorted(p for p in path.iterdir() if SEGMENT_RE.match(p.name))


def read_events(path) -> list:
    """Every event recorded under ``path``, in journal order.

    ``path`` is a journal directory or a single segment file.  A torn
    final line in any segment (crash mid-append) is dropped; any other
    malformed line raises :class:`JournalCorruptError` naming its
    ``<segment>:<line>``.
    """
    events = []
    for file in journal_files(path):
        lines = file.read_text(encoding="utf-8").split("\n")
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                if all(not rest.strip() for rest in lines[index + 1 :]):
                    break  # torn tail: the crash interrupted this append
                raise JournalCorruptError(
                    f"{file.name}:{index + 1}: unparseable non-tail line "
                    f"({exc})"
                ) from exc
            try:
                events.append(event_from_dict(payload))
            except ApiError as exc:
                raise JournalCorruptError(f"{file.name}:{index + 1}: {exc}") from exc
    return events


class DecisionJournal:
    """Append-only JSONL writer for service-level decision events.

    Thread-safe: one reentrant lock serializes seq stamping and queue
    pushes, so callers may append while holding their own (session)
    locks — the journal lock is a leaf and is never held while taking
    any other lock.  The expensive part of an append (JSON encoding,
    then the write + flush group commit) runs on the journal's own
    write-behind thread; queue order is journal order, so the recorded
    event sequence still mirrors the callers' lock-ordered appends.

    Parameters
    ----------
    directory:
        Where segments live; created if missing.  A restarted journal
        scans it to resume the ``seq`` counter and starts a fresh
        segment (old segments are never appended to — the crash-safety
        framing contract).
    max_bytes:
        Rotation threshold per segment.
    checkpoint_every:
        How many events between checkpoints; the service consults
        :meth:`should_checkpoint` after journaled operations.
    max_queue:
        Backpressure bound on the write-behind queue: appenders block
        once this many events are waiting, so a stalled disk degrades
        to synchronous-append pacing instead of unbounded memory.
    """

    def __init__(
        self,
        directory,
        max_bytes: int = 16_000_000,
        checkpoint_every: int = 256,
        max_queue: int = 1024,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max(4096, int(max_bytes))
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.max_queue = max(1, int(max_queue))
        existing = journal_files(self.directory)
        self._segment_index = (
            int(SEGMENT_RE.match(existing[-1].name).group(1)) + 1
            if existing
            else 1
        )
        self._seq = self._scan_last_seq(existing)
        self._fh = None
        self._bytes = 0
        self._lock = threading.RLock()
        self._cv = threading.Condition(self._lock)
        self._queue: "deque" = deque()
        self._closing = False
        self._since_checkpoint = 0
        self._seen_fingerprints: "set[str]" = set()
        self.counters = {
            "events": 0,
            "bytes": 0,
            "checkpoints": 0,
            "rotations": 0,
            "restores": 0,
            "replay_decisions": 0,
            "replay_flips": 0,
        }
        self._writer = threading.Thread(
            target=self._writer_loop, name="journal-writer", daemon=True
        )
        self._writer.start()

    @staticmethod
    def _scan_last_seq(segments: "list[Path]") -> int:
        # Newest segment backwards: the first segment with any readable
        # event names the resume point.  (A segment holding only a torn
        # line contributes nothing — fall through to the one before it.)
        for segment in reversed(segments):
            events = read_events(segment)
            if events:
                return max(event.seq for event in events)
        return 0

    # ------------------------------------------------------------- writing
    def _open_segment(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self.counters["rotations"] += 1
        path = self.directory / f"journal-{self._segment_index:06d}.jsonl"
        self._segment_index += 1
        self._fh = path.open("a", encoding="utf-8")
        self._bytes = 0

    @staticmethod
    def _encode(stamped) -> str:
        return json.dumps(event_to_dict(stamped), separators=(",", ":")) + "\n"

    def _write_lines(self, lines) -> None:
        """Write + flush encoded lines; caller holds the journal lock."""
        for line in lines:
            if self._fh is None or self._bytes >= self.max_bytes:
                self._open_segment()
            self._fh.write(line)
            self._bytes += len(line)
            self.counters["bytes"] += len(line)
        if lines and self._fh is not None:
            self._fh.flush()

    #: Group-commit gather window: after a burst's first event lands,
    #: the writer lingers this long so the rest of the burst joins the
    #: same encode + write + flush — per-event wakeups and flushes cost
    #: more than the lag is worth.  Bounds the crash-loss exposure.
    GATHER_WINDOW_S = 0.01
    #: Drain immediately once this many events are waiting, window or not.
    GATHER_MAX = 64

    def _writer_loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._closing:
                    self._cv.wait()
                deadline = time.monotonic() + self.GATHER_WINDOW_S
                while not self._closing and len(self._queue) < self.GATHER_MAX:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cv.wait(remaining)
                batch = tuple(self._queue)
                self._queue.clear()
                self._cv.notify_all()  # free appenders blocked on max_queue
                if not batch:
                    return  # closing and fully drained
            # Encoding dominates append cost — do it outside the lock so
            # appenders (holding session locks) never wait on it.
            lines = [self._encode(event) for event in batch]
            try:
                with self._cv:
                    # lint: lock-ok _cv is a leaf: group commit flushes under it
                    self._write_lines(lines)
            except OSError:
                # A dead disk must not strand appenders behind a full
                # queue forever: flip to closing so appends go inline
                # and surface I/O errors to their own callers.
                with self._cv:
                    self._closing = True
                    self._cv.notify_all()
                return

    def append(self, event) -> int:
        """Stamp (seq, ts) and enqueue one line for the write-behind
        thread; returns the seq.  Blocks only when ``max_queue`` events
        are already waiting (backpressure) — after :meth:`close` (or a
        writer-thread I/O failure) the append degrades to a synchronous
        inline write so ordering and durability still hold.
        """
        with self._cv:
            while len(self._queue) >= self.max_queue and not self._closing:
                self._cv.wait()
            seq = self._seq + 1
            stamped = replace(event, seq=seq, ts=time.time())
            self._seq = seq
            self.counters["events"] += 1
            self._since_checkpoint += 1
            if self._closing:
                pending = [*self._queue, stamped]
                self._queue.clear()
                # lint: lock-ok writer gone: append drains inline under the leaf _cv
                self._write_lines([self._encode(e) for e in pending])
            else:
                self._queue.append(stamped)
                if len(self._queue) == 1:
                    # Empty→non-empty is the only transition the writer
                    # sleeps through; notifying on every append would
                    # just cut its gather window short.
                    self._cv.notify_all()
            return seq

    def ensure_ensemble(self, fingerprint: str, ensemble) -> None:
        """Journal an ensemble once per process (idempotent re-record).

        The dedup set is per-writer, not per-journal: a restarted
        process re-records ensembles it meets again, which recovery
        treats as idempotent re-registrations.
        """
        with self._lock:
            if fingerprint in self._seen_fingerprints:
                return
            from repro.api.wire import EnsembleRef

            self.append(EnsembleEvent(ref=EnsembleRef(fingerprint, ensemble)))
            self._seen_fingerprints.add(fingerprint)

    def should_checkpoint(self) -> bool:
        """True once ``checkpoint_every`` events accrued since the last."""
        return self._since_checkpoint >= self.checkpoint_every

    def write_checkpoint(self, sessions, ensembles) -> int:
        """Append a checkpoint event; resets the between-checkpoints count."""
        with self._lock:
            seq = self.append(
                CheckpointEvent(
                    sessions=tuple(sessions), ensembles=tuple(ensembles)
                )
            )
            self._since_checkpoint = 0
            self.counters["checkpoints"] += 1
            return seq

    # ------------------------------------------------------------ counters
    def note_restores(self, count: int) -> None:
        """Record sessions restored from this journal (recovery path)."""
        with self._lock:
            self.counters["restores"] += int(count)

    def note_replay(self, decisions: int, flips: int) -> None:
        """Record a replay pass's compared decisions and status flips."""
        with self._lock:
            self.counters["replay_decisions"] += int(decisions)
            self.counters["replay_flips"] += int(flips)

    def occupancy(self) -> dict:
        """Numeric counter block for the ``stats`` envelope (summable
        across cluster workers, like ``EngineCache.occupancy()``)."""
        with self._lock:
            out = dict(self.counters)
            out["segments"] = len(journal_files(self.directory))
            out["pending_checkpoint"] = self._since_checkpoint
            out["queued"] = len(self._queue)
            return out

    def close(self) -> None:
        """Drain the write-behind queue to disk, then close the segment."""
        with self._cv:
            self._closing = True
            self._cv.notify_all()
        writer = self._writer
        if writer is not None:
            writer.join()
            self._writer = None
        with self._cv:
            # Anything still queued means the writer bailed on an I/O
            # error — give those events one last synchronous chance.
            pending = tuple(self._queue)
            self._queue.clear()
            # lint: lock-ok final drain under the leaf _cv; the writer is joined
            self._write_lines([self._encode(e) for e in pending])
            if self._fh is not None:
                self._fh.close()
                self._fh = None
