"""Golden-master bytes for every wire envelope, journal event and scenario.

The codecs promise byte-stable output: a refactor of the encoding layer
must not move a single byte of what crosses a process boundary or lands
in a journal.  This script builds one fixed value per case and writes
its encoding, one line per case, to the ``*.jsonl`` files beside it:

* ``wire.jsonl`` — every request and response envelope (``stats`` with
  and without its cluster and journal blocks, and ``error``);
* ``journal.jsonl`` — every journal event kind, plus a bare
  ``SessionState``;
* ``scenarios.jsonl`` — every catalog scenario's ``ScenarioSpec`` and a
  ``SimulationReport``.

Each line is ``{"case": <name>, "payload": <encoded value>}`` as written
by ``json.dumps`` (key order is part of the contract).  ``recorded/``
holds a small decision journal recorded by an earlier tree; it is not
regenerated, because its point is that a journal this code did not
write still replays bitwise.

Usage, from the repository root::

    PYTHONPATH=src python tests/golden/make_golden.py           # rewrite
    PYTHONPATH=src python tests/golden/make_golden.py --check   # exit 1 on drift
    PYTHONPATH=src python tests/golden/make_golden.py --record-journal DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from repro.api import (
    AlternativesRequest,
    EngineService,
    EngineSpec,
    EnsembleRef,
    ErrorResponse,
    PlanRequest,
    ResolveRequest,
    RetryDeferredRequest,
    SessionOpRequest,
    SimulateRequest,
    SimulateResponse,
    StatsRequest,
    StatsResponse,
    SubmitBatchRequest,
    decode,
    encode,
    parse_request,
    parse_response,
)
from repro.core.params import TriParams
from repro.core.request import DeploymentRequest, make_requests
from repro.core.strategy import StrategyEnsemble
from repro.core.streaming import StreamDecision, StreamStatus
from repro.engine.cache import CacheStats
from repro.engine.session import SessionState
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
)
from repro.utils.rng import spawn_rngs
from repro.workloads import ScenarioSpec, SimulationReport, default_scenario_registry
from repro.workloads.generators import (
    generate_requests,
    generate_strategy_ensemble,
)

GOLDEN_DIR = Path(__file__).resolve().parent

#: Fixed journal stamps, so event lines do not depend on the clock.
TS = 1_700_000_000.25

#: Session ids end in a random token; goldens use this one instead.
SID = "sess-000001-5eed5eed"


@dataclass(frozen=True)
class Case:
    """One golden value with the codec pair that owns its bytes."""

    family: str
    name: str
    value: object
    encode: object
    decode: object

    def line(self) -> str:
        return json.dumps({"case": self.name, "payload": self.encode(self.value)})


def _envelope_encode(envelope) -> dict:
    return envelope.to_dict()


def _paper_ensemble() -> StrategyEnsemble:
    """Table 1's s1..s4 as constant strategies."""
    return StrategyEnsemble.from_params(
        [
            TriParams(0.50, 0.25, 0.28),
            TriParams(0.75, 0.33, 0.28),
            TriParams(0.80, 0.50, 0.14),
            TriParams(0.88, 0.58, 0.14),
        ]
    )


def _paper_requests() -> tuple:
    return tuple(
        make_requests([(0.4, 0.17, 0.28), (0.8, 0.20, 0.28), (0.7, 0.83, 0.28)], k=3)
    )


def _stream_world():
    """A 40-strategy session stream that admits, defers and relaxes."""
    rng_s, rng_r = spawn_rngs(13, 2)
    ensemble = generate_strategy_ensemble(40, "uniform", rng_s)
    stream = generate_requests(24, k=3, seed=rng_r)
    spec = EngineSpec(availability=0.7, aggregation="max")
    return ensemble, stream, spec


def drive_session(service: EngineService) -> dict:
    """Drive one session through every journaled operation.

    Three submit bursts, a ``complete`` that frees capacity, a retry
    that admits from the deferred queue, a ``revoke`` and a close —
    every journal event kind appears when a journal is attached.
    Returns the responses and the session's snapshots along the way.
    """
    ensemble, stream, spec = _stream_world()
    sid = service.open_session(ensemble, spec)
    bursts = []
    for start in range(0, len(stream), 8):
        burst = tuple(stream[start : start + 8])
        bursts.append(
            (burst, service.submit_batch(SubmitBatchRequest(requests=burst, session_id=sid)))
        )
    loaded = service.session(sid).snapshot()
    completed = tuple(sorted(service.session(sid).active))
    complete = service.session_op(
        SessionOpRequest(op="complete", session_id=sid, request_ids=completed)
    )
    retry = service.retry_deferred(RetryDeferredRequest(session_id=sid))
    revoked = tuple(sorted(service.session(sid).active))
    revoke = service.session_op(
        SessionOpRequest(op="revoke", session_id=sid, request_ids=revoked)
    )
    drained = service.session(sid).snapshot()
    close = service.session_op(SessionOpRequest(op="close_session", session_id=sid))
    return {
        "ensemble": ensemble,
        "spec": spec,
        "session_id": sid,
        "bursts": bursts,
        "loaded": loaded,
        "complete": (completed, complete),
        "retry": retry,
        "revoke": (revoked, revoke),
        "drained": drained,
        "close": close,
    }


def _wire_cases() -> list:
    ensemble = _paper_ensemble()
    ref = EnsembleRef.of(ensemble)
    thin = EnsembleRef.by_fingerprint(ref.fingerprint)
    named = EnsembleRef.of(
        StrategyEnsemble.from_arrays(ensemble.alpha, ensemble.beta, names=["a", "b", "c", "d"])
    )
    requests = _paper_requests()
    spec = EngineSpec(availability=0.8)
    tuned = EngineSpec(
        availability=0.6,
        objective="payoff",
        aggregation="max",
        workforce_mode="strict",
        eligibility="availability",
        planner="payoff-dp",
        planner_options={"grid": 64},
        solver="adpar-weighted",
        solver_options={"norm": "l1", "weights": (2.0, 1.0, 1.0)},
    )
    priced = (
        DeploymentRequest(
            "t1", TriParams(0.6, 0.4, 0.5), k=2, task_type="translation", payoff=2.5
        ),
    )
    scenario = default_scenario_registry().get("steady-stream")

    service = EngineService()
    plan = service.handle(PlanRequest(ensemble=ref, requests=requests, spec=spec))
    resolve = service.handle(ResolveRequest(ensemble=thin, requests=requests, spec=spec))
    alternatives = service.handle(
        AlternativesRequest(ensemble=thin, requests=requests, spec=spec, k=2)
    )
    session = drive_session(service)
    _burst, submit = session["bursts"][0]

    requests_out = [
        ("plan_request", PlanRequest(ensemble=ref, requests=requests, spec=spec)),
        (
            "plan_request_options",
            PlanRequest(
                ensemble=named,
                requests=requests + priced,
                spec=tuned,
                objective="payoff",
                planner="payoff-dp",
            ),
        ),
        ("plan_request_bare", PlanRequest(ensemble=thin, requests=())),
        (
            "resolve_request",
            ResolveRequest(
                ensemble=thin,
                requests=requests,
                spec=spec,
                objective="throughput",
                planner="batch-greedy",
                solver="onedim",
            ),
        ),
        ("resolve_request_bare", ResolveRequest(ensemble=ref, requests=requests)),
        (
            "alternatives_request",
            AlternativesRequest(
                ensemble=thin, requests=requests, spec=spec, k=2, solver="rtree"
            ),
        ),
        ("alternatives_request_bare", AlternativesRequest(ensemble=thin, requests=requests)),
        (
            "submit_batch_request_open",
            SubmitBatchRequest(requests=requests, ensemble=ref, spec=tuned),
        ),
        (
            "submit_batch_request",
            SubmitBatchRequest(requests=priced, session_id="sess-1"),
        ),
        ("retry_deferred_request", RetryDeferredRequest(session_id="sess-1")),
        (
            "complete_request",
            SessionOpRequest(op="complete", session_id="sess-1", request_ids=("d1", "d2")),
        ),
        (
            "revoke_request",
            SessionOpRequest(op="revoke", session_id="sess-1", request_ids=("d3",)),
        ),
        ("close_session_request", SessionOpRequest(op="close_session", session_id="sess-1")),
        ("simulate_request_inline", SimulateRequest(scenario=scenario)),
        ("simulate_request_named", SimulateRequest(name="paper-batch")),
        (
            "simulate_request_overrides",
            SimulateRequest(
                name="paper-batch",
                overrides={
                    "n_strategies": 50,
                    "solver_options": {"norm": "l1", "weights": (2.0, 1.0, 1.0)},
                },
            ),
        ),
        ("stats_request", StatsRequest()),
    ]

    cache = CacheStats(workforce_hits=12, workforce_misses=4, adpar_hits=3, adpar_misses=5)
    occupancy = {
        "workforce": {"entries": 4, "capacity": 65536},
        "adpar": {"entries": 5, "capacity": 65536},
    }
    coalescer = {"calls": 9, "batches": 4, "coalesced": 5, "in_flight": 0}
    journal = {
        "events": 41,
        "bytes": 23311,
        "checkpoints": 2,
        "rotations": 0,
        "restores": 0,
        "replay_decisions": 0,
        "replay_flips": 0,
        "segments": 1,
        "pending_checkpoint": 1,
        "queued": 0,
    }
    stats = StatsResponse(
        cache=cache,
        engines=2,
        sessions=1,
        ensembles=3,
        workloads=1,
        max_engines=64,
        max_sessions=1024,
        max_ensembles=256,
        occupancy=occupancy,
        coalescer=coalescer,
    )
    report = SimulationReport(
        scenario=scenario,
        kind=scenario.kind,
        fingerprint="ab" * 32,
        n_strategies=scenario.ensemble.n_strategies,
        arrivals=256,
        elapsed_s=0.375,
        satisfied=0,
        alternative=101,
        infeasible=3,
        admitted=140,
        completed=120,
        retried=11,
        still_deferred=1,
        objective_value=140.0,
        workforce_available=0.7,
        workforce_used=0.6484375,
        utilization=0.9263392857142857,
        mean_distance=0.0625,
    )
    responses_out = [
        ("plan_result", plan),
        ("resolve_result", resolve),
        ("alternatives_result", alternatives),
        ("submit_batch_result", replace(submit, session_id=SID)),
        ("retry_deferred_result", replace(session["retry"], session_id=SID)),
        ("complete_result", replace(session["complete"][1], session_id=SID)),
        ("revoke_result", replace(session["revoke"][1], session_id=SID)),
        ("close_session_result", replace(session["close"], session_id=SID)),
        ("simulate_result", SimulateResponse(report=report)),
        (
            "stats_result_minimal",
            StatsResponse(cache=CacheStats(), engines=0, sessions=0, ensembles=0),
        ),
        ("stats_result", stats),
        (
            "stats_result_cluster",
            replace(
                stats,
                coalescer=None,
                shards=[
                    {**stats.to_dict(), "slot": 0, "pid": 4242, "address": "127.0.0.1:8801"},
                ],
                router={
                    "forwarded": 17,
                    "affinity_hits": 12,
                    "replicated": 2,
                    "restarts": 0,
                    "workers": 1,
                },
            ),
        ),
        ("stats_result_journal", replace(stats, journal=journal)),
        (
            "error",
            ErrorResponse(
                code="malformed_payload",
                message="TriParams is missing required field 'latency'",
            ),
        ),
    ]
    return [
        Case("wire", name, value, _envelope_encode, parse_request)
        for name, value in requests_out
    ] + [
        Case("wire", name, value, _envelope_encode, parse_response)
        for name, value in responses_out
    ]


def _journal_cases() -> list:
    service = EngineService()
    session = drive_session(service)
    sid = SID
    ref = EnsembleRef.of(session["ensemble"])
    spec = replace(
        session["spec"],
        planner_options={"grid": 64},
        solver_options={"norm": "l1", "weights": (2.0, 1.0, 1.0)},
    )
    burst, response = session["bursts"][0]
    relaxed = next(
        d for d in response.decisions if d.status is StreamStatus.ALTERNATIVE
    )
    priced = DeploymentRequest(
        "t1", TriParams(0.6, 0.4, 0.5), k=2, task_type="translation", payoff=2.5
    )
    loaded = session["loaded"]
    floored = replace(
        loaded,
        deferred_floor=0.1875,
        reserved=loaded.reserved + (relaxed,),
        deferred=loaded.deferred + (priced,),
    )
    events = [
        ("ensemble", EnsembleEvent(ref=ref, seq=1, ts=TS)),
        (
            "ensemble_by_fingerprint",
            EnsembleEvent(ref=EnsembleRef.by_fingerprint(ref.fingerprint), seq=2, ts=TS),
        ),
        (
            "session_open",
            SessionOpenEvent(
                session_id=sid, fingerprint=ref.fingerprint, spec=spec, seq=3, ts=TS
            ),
        ),
        (
            "submit",
            SubmitEvent(
                session_id=sid,
                requests=burst,
                decisions=response.decisions,
                seq=4,
                ts=TS,
            ),
        ),
        (
            "submit_priced",
            SubmitEvent(
                session_id=sid,
                requests=(priced,),
                decisions=(
                    StreamDecision(request=priced, status=StreamStatus.INFEASIBLE),
                ),
                seq=5,
                ts=TS + 0.5,
            ),
        ),
        (
            "release_complete",
            ReleaseEvent(
                op="complete",
                session_id=sid,
                request_ids=session["complete"][0],
                released=session["complete"][1].released,
                seq=6,
                ts=TS,
            ),
        ),
        (
            "retry",
            RetryEvent(session_id=sid, decisions=session["retry"].decisions, seq=7, ts=TS),
        ),
        (
            "release_revoke",
            ReleaseEvent(
                op="revoke",
                session_id=sid,
                request_ids=session["revoke"][0],
                released=session["revoke"][1].released,
                seq=8,
                ts=TS,
            ),
        ),
        (
            "checkpoint",
            CheckpointEvent(
                sessions=(
                    SessionCheckpoint(
                        session_id=sid,
                        fingerprint=ref.fingerprint,
                        spec=spec,
                        state=floored,
                        seq=8,
                    ),
                ),
                ensembles=(ref,),
                seq=9,
                ts=TS,
            ),
        ),
        ("checkpoint_empty", CheckpointEvent(seq=10, ts=TS)),
        ("session_close", SessionCloseEvent(session_id=sid, seq=11, ts=TS)),
    ]
    return [
        Case("journal", name, value, event_to_dict, event_from_dict)
        for name, value in events
    ] + [
        Case("journal", name, value, encode, partial(decode, SessionState))
        for name, value in (
            ("session_state_loaded", loaded),
            ("session_state_floored", floored),
            ("session_state_drained", session["drained"]),
        )
    ]


def _scenario_cases(wire_cases: list) -> list:
    registry = default_scenario_registry()
    cases = [
        Case("scenarios", name, registry.get(name), encode, partial(decode, ScenarioSpec))
        for name in registry.names()
    ]
    simulate = next(c for c in wire_cases if c.name == "simulate_result")
    cases.append(
        Case(
            "scenarios",
            "simulation_report",
            simulate.value.report,
            encode,
            partial(decode, SimulationReport),
        )
    )
    return cases


def build_cases() -> list:
    """Every golden case, in file order."""
    wire = _wire_cases()
    return wire + _journal_cases() + _scenario_cases(wire)


def render(cases: list) -> "dict[str, str]":
    """File name → expected text."""
    files: "dict[str, list[str]]" = {}
    for case in cases:
        files.setdefault(f"{case.family}.jsonl", []).append(case.line())
    return {name: "\n".join(lines) + "\n" for name, lines in files.items()}


def record_journal(directory) -> None:
    """Record the small journal kept under ``recorded/``.

    ``checkpoint_every=3`` makes checkpoints fall between the session's
    operations, so the recording holds every event kind.
    """
    journal = DecisionJournal(directory, checkpoint_every=3)
    service = EngineService()
    service.attach_journal(journal)
    try:
        drive_session(service)
    finally:
        journal.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true", help="compare instead of writing")
    parser.add_argument("--record-journal", metavar="DIR", help="record a fresh journal into DIR")
    args = parser.parse_args(argv)
    if args.record_journal:
        record_journal(args.record_journal)
        return 0
    expected = render(build_cases())
    if args.check:
        drifted = [
            name
            for name, text in expected.items()
            if not (GOLDEN_DIR / name).exists()
            or (GOLDEN_DIR / name).read_text(encoding="utf-8") != text
        ]
        for name in drifted:
            print(f"golden drift: {name}", file=sys.stderr)
        return 1 if drifted else 0
    for name, text in expected.items():
        (GOLDEN_DIR / name).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
