"""Property tests for the decision journal: codecs, framing, recovery.

Four contracts:

* **Lossless JSON round trip** — every journal event type (randomized
  payloads built from the same strategies the wire round-trip suite
  uses) survives ``event_from_dict(json.loads(json.dumps(
  event_to_dict(e)))) == e``, the real JSON *text* round trip.
* **Crash-safe framing** — a journal whose final line was torn mid-write
  reads back as every complete event (the torn tail is dropped), while a
  corrupt *non*-tail line raises the typed ``JournalCorruptError``; a
  writer reopened over an existing directory starts a fresh segment and
  keeps ``seq`` monotonic.
* **Checkpoint + tail ≡ uncrashed** — a service recovered from a
  journal (checkpoint plus tail events, including straddlers appended
  after the snapshot but before the checkpoint line) reproduces the
  uncrashed session's :class:`SessionState` bitwise.  Over mixed
  multi-session histories it also equals a full re-drive of the same
  journal with every checkpoint removed, torn tail or not.
* **Typed corruption** — a recorded op recovery cannot re-apply raises
  ``JournalCorruptError`` naming its session and ``seq``.
"""

import json
import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    EngineService,
    EngineSpec,
    EnsembleRef,
    RetryDeferredRequest,
    SessionOpRequest,
    SubmitBatchRequest,
)
from repro.core.adpar import ADPaRResult
from repro.core.params import TriParams
from repro.core.request import DeploymentRequest
from repro.core.streaming import StreamDecision, StreamStatus
from repro.engine.session import SessionState
from repro.exceptions import JournalCorruptError
from repro.journal import (
    CheckpointEvent,
    DecisionJournal,
    EnsembleEvent,
    ReleaseEvent,
    RetryEvent,
    SessionCheckpoint,
    SessionCloseEvent,
    SessionOpenEvent,
    SubmitEvent,
    event_from_dict,
    event_to_dict,
    journal_files,
    read_events,
)
from repro.utils.rng import spawn_rngs
from repro.workloads.generators import (
    generate_requests,
    generate_strategy_ensemble,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=8
)
seqs = st.integers(min_value=0, max_value=2**40)
stamps = st.floats(min_value=0.0, max_value=2e9, allow_nan=False)


@st.composite
def triparams(draw):
    return TriParams(draw(unit), draw(unit), draw(unit))


@st.composite
def requests(draw):
    return DeploymentRequest(
        request_id=draw(names),
        params=draw(triparams()),
        k=draw(st.integers(min_value=1, max_value=50)),
        task_type=draw(names),
        payoff=draw(st.none() | st.floats(min_value=0.0, max_value=10.0)),
    )


@st.composite
def adpar_results(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    relax = (draw(unit), draw(unit), draw(unit))
    sq = sum(v * v for v in relax)
    return ADPaRResult(
        original=draw(triparams()),
        alternative=draw(triparams()),
        distance=sq**0.5,
        squared_distance=sq,
        relaxation=relax,
        strategy_indices=tuple(range(n)),
        strategy_names=tuple(f"s{i + 1}" for i in range(n)),
    )


@st.composite
def stream_decisions(draw):
    status = draw(st.sampled_from(list(StreamStatus)))
    return StreamDecision(
        request=draw(requests()),
        status=status,
        strategy_names=tuple(draw(st.lists(names, max_size=3))),
        workforce_reserved=draw(unit),
        alternative=(
            draw(adpar_results()) if status is StreamStatus.ALTERNATIVE else None
        ),
    )


@st.composite
def ensemble_refs(draw):
    rng = spawn_rngs(draw(st.integers(0, 2**31)), 1)[0]
    ensemble = generate_strategy_ensemble(
        draw(st.integers(1, 5)), "uniform", rng
    )
    ref = EnsembleRef.of(ensemble)
    return ref if draw(st.booleans()) else EnsembleRef.by_fingerprint(
        ref.fingerprint
    )


@st.composite
def engine_specs(draw):
    return EngineSpec(
        availability=draw(unit),
        objective=draw(st.sampled_from(["throughput", "payoff"])),
        aggregation=draw(st.sampled_from(["sum", "max"])),
        workforce_mode=draw(st.sampled_from(["paper", "strict"])),
        solver=draw(st.sampled_from(["adpar-exact", "adpar-weighted"])),
        solver_options={"norm": draw(st.sampled_from(["l1", "l2", "linf"]))},
    )


@st.composite
def session_states(draw):
    floor = draw(st.none() | st.floats(min_value=0.0, max_value=3.0))
    return SessionState(
        availability=draw(unit),
        used=draw(unit),
        deferred_floor=floor,
        admitted=draw(st.integers(0, 1000)),
        revoked=draw(st.integers(0, 1000)),
        completed=draw(st.integers(0, 1000)),
        reserved=tuple(draw(st.lists(stream_decisions(), max_size=3))),
        deferred=tuple(draw(st.lists(requests(), max_size=3))),
    )


@st.composite
def session_checkpoints(draw):
    return SessionCheckpoint(
        session_id=draw(names),
        fingerprint="f" * 64,
        spec=draw(engine_specs()),
        state=draw(session_states()),
        seq=draw(seqs),
    )


@st.composite
def journal_events(draw):
    kind = draw(
        st.sampled_from(
            [
                "ensemble",
                "session_open",
                "session_close",
                "submit",
                "retry",
                "release",
                "checkpoint",
            ]
        )
    )
    seq, ts = draw(seqs), draw(stamps)
    if kind == "ensemble":
        return EnsembleEvent(ref=draw(ensemble_refs()), seq=seq, ts=ts)
    if kind == "session_open":
        return SessionOpenEvent(
            session_id=draw(names),
            fingerprint="f" * 64,
            spec=draw(engine_specs()),
            seq=seq,
            ts=ts,
        )
    if kind == "session_close":
        return SessionCloseEvent(session_id=draw(names), seq=seq, ts=ts)
    if kind == "submit":
        return SubmitEvent(
            session_id=draw(names),
            requests=tuple(draw(st.lists(requests(), max_size=3))),
            decisions=tuple(draw(st.lists(stream_decisions(), max_size=3))),
            seq=seq,
            ts=ts,
        )
    if kind == "retry":
        return RetryEvent(
            session_id=draw(names),
            decisions=tuple(draw(st.lists(stream_decisions(), max_size=3))),
            seq=seq,
            ts=ts,
        )
    if kind == "release":
        return ReleaseEvent(
            op=draw(st.sampled_from(["complete", "revoke"])),
            session_id=draw(names),
            request_ids=tuple(draw(st.lists(names, max_size=4))),
            released=draw(unit),
            seq=seq,
            ts=ts,
        )
    return CheckpointEvent(
        sessions=tuple(draw(st.lists(session_checkpoints(), max_size=2))),
        ensembles=tuple(draw(st.lists(ensemble_refs(), max_size=2))),
        seq=seq,
        ts=ts,
    )


# ---------------------------------------------------------- codec round trip
@settings(max_examples=80, deadline=None)
@given(journal_events())
def test_event_roundtrip(event):
    """Every event type survives the real JSON text round trip."""
    back = event_from_dict(json.loads(json.dumps(event_to_dict(event))))
    assert back == event


# ------------------------------------------------------------------- framing
def _strip_stamp(event):
    return replace(event, seq=0, ts=0.0)


@settings(max_examples=15, deadline=None)
@given(st.lists(journal_events(), min_size=1, max_size=6))
def test_writer_reader_roundtrip(events):
    """Appended events read back in order, stamped with monotonic seq."""
    with tempfile.TemporaryDirectory() as tmp:
        journal = DecisionJournal(tmp)
        for event in events:
            journal.append(event)
        journal.close()
        back = read_events(tmp)
    assert len(back) == len(events)
    assert [e.seq for e in back] == sorted(e.seq for e in back)
    assert len({e.seq for e in back}) == len(back)
    for original, restored in zip(events, back):
        assert _strip_stamp(restored) == _strip_stamp(original)


@settings(max_examples=15, deadline=None)
@given(st.lists(journal_events(), min_size=2, max_size=5), st.data())
def test_torn_final_line_is_dropped(events, data):
    """A crash mid-append loses exactly the torn final event."""
    with tempfile.TemporaryDirectory() as tmp:
        journal = DecisionJournal(tmp)
        for event in events:
            journal.append(event)
        journal.close()
        segment = journal_files(tmp)[-1]
        raw = segment.read_bytes()
        lines = raw.splitlines(keepends=True)
        last = lines[-1]
        # Tear strictly inside the final line's JSON object so the tail
        # is non-empty and unparseable (cut before the closing brace).
        # The draw's bounds must not depend on the line's length, which
        # varies with the wall-clock ``ts`` stamp: Hypothesis rejects a
        # strategy that changes between replays of one example.
        position = data.draw(st.integers(min_value=0, max_value=10**6), label="cut")
        cut = 1 + position % max(1, len(last) - 2)
        segment.write_bytes(b"".join(lines[:-1]) + last[:cut])
        back = read_events(tmp)
    assert len(back) == len(events) - 1
    for original, restored in zip(events[:-1], back):
        assert _strip_stamp(restored) == _strip_stamp(original)


@settings(max_examples=10, deadline=None)
@given(st.lists(journal_events(), min_size=3, max_size=5))
def test_corrupt_non_tail_line_raises(events):
    """Only the *final* line may be torn; mid-file damage is an error
    that names the damaged line, whether the line is unparseable or
    valid JSON carrying a mistyped field."""
    with tempfile.TemporaryDirectory() as tmp:
        journal = DecisionJournal(tmp)
        for event in events:
            journal.append(event)
        journal.close()
        segment = journal_files(tmp)[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        torn = lines[0][: max(1, len(lines[0]) // 2)].rstrip() + b"\n"
        mistyped = json.dumps({**json.loads(lines[0]), "seq": "5"}).encode()
        for line in (torn, mistyped + b"\n"):
            segment.write_bytes(b"".join([line, *lines[1:]]))
            with pytest.raises(JournalCorruptError, match=rf"^{segment.name}:1: "):
                read_events(tmp)


@settings(max_examples=10, deadline=None)
@given(
    st.lists(journal_events(), min_size=1, max_size=3),
    st.lists(journal_events(), min_size=1, max_size=3),
)
def test_reopened_journal_starts_fresh_segment_and_continues_seq(first, second):
    """Segments are never reopened: restart → new file, monotonic seq."""
    with tempfile.TemporaryDirectory() as tmp:
        journal = DecisionJournal(tmp)
        for event in first:
            journal.append(event)
        journal.close()
        reopened = DecisionJournal(tmp)
        for event in second:
            reopened.append(event)
        reopened.close()
        assert len(journal_files(tmp)) == 2
        back = read_events(tmp)
    assert len(back) == len(first) + len(second)
    stamped = [e.seq for e in back]
    assert stamped == sorted(stamped) and len(set(stamped)) == len(stamped)


# ------------------------------------------------- checkpoint + tail restore
@settings(max_examples=8, deadline=None)
@given(
    st.integers(0, 2**31),
    st.integers(6, 24),
    st.floats(min_value=0.55, max_value=0.95),
    st.integers(1, 7),
)
def test_checkpoint_tail_restore_equals_uncrashed(
    seed, m, availability, checkpoint_every
):
    """Recovery (checkpoint + tail + straddlers) is bitwise exact.

    ``checkpoint_every`` sweeps from "checkpoint after every event"
    (recovery is almost pure snapshot restore) to "never checkpointed"
    (recovery is a pure event re-application), covering the straddler
    window in between.
    """
    with tempfile.TemporaryDirectory() as tmp:
        journal = DecisionJournal(tmp, checkpoint_every=checkpoint_every)
        service = EngineService()
        service.attach_journal(journal)
        rng_s, rng_r = spawn_rngs(seed, 2)
        ensemble = generate_strategy_ensemble(20, "uniform", rng_s)
        stream = generate_requests(m, k=3, seed=rng_r)
        sid = service.open_session(ensemble, EngineSpec(availability=availability))
        for start in range(0, len(stream), 5):
            service.submit_batch(
                SubmitBatchRequest(
                    requests=tuple(stream[start : start + 5]), session_id=sid
                )
            )
        active = sorted(service.session(sid).active)
        if active:
            service.session_op(
                SessionOpRequest(
                    op="complete", session_id=sid, request_ids=tuple(active[:2])
                )
            )
        service.retry_deferred(RetryDeferredRequest(session_id=sid))
        expected = service.session(sid).snapshot()
        journal.close()

        # "Crash": a brand-new process would see only the directory.
        recovered_service = EngineService()
        restored = recovered_service.recover_from_journal(DecisionJournal(tmp))
        assert restored == 1
        assert recovered_service.session(sid).snapshot() == expected


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**31), st.floats(min_value=0.55, max_value=0.9))
def test_restore_after_torn_tail_keeps_complete_prefix(seed, availability):
    """A torn final event rolls recovery back to the last complete one."""
    with tempfile.TemporaryDirectory() as tmp:
        journal = DecisionJournal(tmp, checkpoint_every=1_000_000)
        service = EngineService()
        service.attach_journal(journal)
        rng_s, rng_r = spawn_rngs(seed, 2)
        ensemble = generate_strategy_ensemble(15, "uniform", rng_s)
        stream = generate_requests(12, k=3, seed=rng_r)
        sid = service.open_session(ensemble, EngineSpec(availability=availability))
        service.submit_batch(
            SubmitBatchRequest(requests=tuple(stream[:6]), session_id=sid)
        )
        expected = service.session(sid).snapshot()
        service.submit_batch(
            SubmitBatchRequest(requests=tuple(stream[6:]), session_id=sid)
        )
        journal.close()

        segment = journal_files(tmp)[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        segment.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])

        recovered_service = EngineService()
        assert recovered_service.recover_from_journal(DecisionJournal(tmp)) == 1
        assert recovered_service.session(sid).snapshot() == expected


def test_recovered_service_reuses_no_recorded_session_id():
    """Fresh sessions after recovery never collide with recorded ids."""
    with tempfile.TemporaryDirectory() as tmp:
        journal = DecisionJournal(tmp)
        service = EngineService()
        service.attach_journal(journal)
        rng = spawn_rngs(7, 1)[0]
        ensemble = generate_strategy_ensemble(10, "uniform", rng)
        first = service.open_session(ensemble, EngineSpec(availability=0.7))
        journal.close()

        recovered_service = EngineService()
        recovered_service.recover_from_journal(DecisionJournal(tmp))
        fresh = recovered_service.open_session(
            recovered_service.session(first).engine.ensemble,
            EngineSpec(availability=0.7),
        )
        assert fresh != first


def test_unreplayable_op_is_typed_corruption(
    resubmit_trace, monkeypatch, capsys
):
    """A recorded op recovery cannot re-apply — here a resubmit of an id
    still active — is typed corruption naming its session and seq, which
    ``repro serve`` reports as an error with exit 2."""
    segment = journal_files(resubmit_trace)[-1]
    last_seq = read_events(resubmit_trace)[-1].seq
    lines = segment.read_text(encoding="utf-8").splitlines()
    submit = next(
        json.loads(line)
        for line in reversed(lines)
        if json.loads(line)["event"] == "submit"
    )
    duplicate = {**submit, "seq": last_seq + 1}
    with segment.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(duplicate) + "\n")

    journal = DecisionJournal(resubmit_trace)
    try:
        with pytest.raises(JournalCorruptError) as excinfo:
            EngineService().recover_from_journal(journal)
    finally:
        journal.close()
    message = str(excinfo.value)
    assert f"seq {last_seq + 1}" in message
    assert repr(submit["session_id"]) in message

    from repro.cli import main

    def serve_must_not_start(*_args, **_kwargs):
        pytest.fail("serve started over an unrecoverable journal")

    monkeypatch.setattr("repro.api.serve", serve_must_not_start)
    assert main(["serve", "--journal", resubmit_trace, "--port", "0"]) == 2
    assert "repro serve: error: cannot re-apply" in capsys.readouterr().err


# ------------------------------------------- multi-session recovery gate
OPS = ("submit", "complete", "revoke", "retry", "close")


@st.composite
def session_histories(draw):
    """2–4 sessions over one or two ensembles (|S| ≤ 30), driven by a
    mixed op sequence; sessions open on their first op."""
    n_sessions = draw(st.integers(2, 4))
    return {
        "seed": draw(st.integers(0, 2**31)),
        "sizes": draw(st.lists(st.integers(5, 30), min_size=1, max_size=2)),
        "availability": [
            draw(st.sampled_from([0.45, 0.7, 0.95])) for _ in range(n_sessions)
        ],
        "ops": draw(
            st.lists(
                st.tuples(
                    st.sampled_from(OPS),
                    st.integers(0, n_sessions - 1),
                    st.integers(1, 6),
                    st.booleans(),
                ),
                min_size=2,
                max_size=24,
            )
        ),
        "checkpoint_every": draw(
            st.sampled_from([1, 2, 3, 5, 8, 13, 1_000_000])
        ),
        "straddle": (draw(st.integers(0, 9)), draw(st.integers(0, 4))),
        "torn": draw(st.booleans()),
    }


def _live_state(service) -> dict:
    return {
        sid: (handle.session.snapshot(), handle.last_seq)
        for sid, handle in service._sessions.items()
    }


def _recovered_state(directory) -> dict:
    journal = DecisionJournal(directory)
    try:
        service = EngineService()
        service.recover_from_journal(journal)
    finally:
        journal.close()
    return _live_state(service)


def _drive_history(service, history) -> None:
    rng_s, rng_r = spawn_rngs(history["seed"], 2)
    ensembles = [
        generate_strategy_ensemble(size, "uniform", rng)
        for size, rng in zip(
            history["sizes"], spawn_rngs(rng_s, len(history["sizes"]))
        )
    ]
    ids: "dict[int, str | None]" = {}  # slot -> session id (None: closed)
    for index, (op, slot, size, resubmit) in enumerate(history["ops"]):
        if slot not in ids:
            ids[slot] = service.open_session(
                ensembles[slot % len(ensembles)],
                EngineSpec(availability=history["availability"][slot]),
            )
        sid = ids[slot]
        if sid is None:
            continue
        session = service.session(sid)
        if op == "submit":
            # k=1 over [0.2, 0.8] mixes admitted, deferred and
            # alternative answers; tighter requests only draw alternatives.
            burst = generate_requests(
                size,
                k=1,
                seed=rng_r,
                low=0.2,
                high=0.8,
                quality_offset=0.0,
                prefix=f"s{slot}o{index}-",
            )
            if resubmit and session.deferred:
                burst[0] = session.deferred[0]
            service.submit_batch(
                SubmitBatchRequest(requests=tuple(burst), session_id=sid)
            )
        elif op in ("complete", "revoke"):
            active = sorted(session.active)[:size]
            if active:
                service.session_op(
                    SessionOpRequest(
                        op=op, session_id=sid, request_ids=tuple(active)
                    )
                )
        elif op == "retry":
            service.retry_deferred(RetryDeferredRequest(session_id=sid))
        else:
            service.close_session(sid)
            ids[slot] = None


def _rewrite_journal(directory, keep) -> None:
    """Rewrite the one segment with ``keep(lines)``'s lines."""
    (segment,) = journal_files(directory)
    lines = segment.read_bytes().splitlines(keepends=True)
    segment.write_bytes(b"".join(keep(lines)))


def _is_checkpoint(line: bytes) -> bool:
    return line.startswith(b'{"event":"checkpoint"')


def _tear_last_line(lines):
    return lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]


def _straddle(lines, pick: int, by: int):
    """Make the ``pick``-th checkpoint the last one, ``by`` events late.

    Later checkpoints are dropped, and the picked one moves ``by`` lines
    on: events its snapshot does not hold then land before it, as when
    appends race a checkpoint in the live service.
    """
    marks = [i for i, line in enumerate(lines) if _is_checkpoint(line)]
    if not marks or by == 0:
        return lines
    at = marks[pick % len(marks)]
    rest = [line for line in lines[at + 1 :] if not _is_checkpoint(line)]
    return lines[:at] + rest[:by] + [lines[at]] + rest[by:]


@settings(max_examples=100, deadline=None)
@given(session_histories())
def test_multi_session_recovery_equals_uncrashed_and_full_redrive(history):
    """The bounded-recovery gate: over mixed multi-session histories,
    checkpoint + reenactment recovery gives the same live sessions,
    snapshots and ``last_seq``s as the uncrashed service and as a full
    re-drive of the same journal with every checkpoint removed.  A torn
    last line is compared with the full re-drive only."""
    with tempfile.TemporaryDirectory() as tmp:
        journal = DecisionJournal(
            tmp, checkpoint_every=history["checkpoint_every"]
        )
        service = EngineService()
        service.attach_journal(journal)
        _drive_history(service, history)
        uncrashed = _live_state(service)
        journal.close()

        _rewrite_journal(
            tmp, lambda lines: _straddle(lines, *history["straddle"])
        )
        if history["torn"]:
            _rewrite_journal(tmp, _tear_last_line)
        recovered = _recovered_state(tmp)
        _rewrite_journal(
            tmp, lambda lines: [ln for ln in lines if not _is_checkpoint(ln)]
        )
        redriven = _recovered_state(tmp)

    assert recovered == redriven
    if not history["torn"]:
        assert recovered == uncrashed
