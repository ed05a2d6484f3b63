"""Property tests: every wire DTO JSON round-trips losslessly.

For every payload type and request/response envelope in
:mod:`repro.api`, a randomized instance must survive
``decode(type(x), json.loads(json.dumps(encode(x)))) == x`` — the *JSON
text* round trip, not just the dict one, so the suite fails if the codec
emits a non-JSON-native value (tuples, numpy scalars, enums) or drops
float precision.  Ensembles compare by content fingerprint via
:class:`~repro.api.EnsembleRef`.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    AlternativesRequest,
    AlternativesResponse,
    EngineSpec,
    EnsembleRef,
    ErrorResponse,
    PlanRequest,
    PlanResponse,
    ResolveRequest,
    ResolveResponse,
    RetryDeferredRequest,
    RetryDeferredResponse,
    SessionOpRequest,
    SessionOpResponse,
    StatsRequest,
    StatsResponse,
    SubmitBatchRequest,
    SubmitBatchResponse,
    decode,
    encode,
    parse_request,
    parse_response,
)
from repro.core.adpar import ADPaRResult
from repro.core.aggregator import (
    AggregatorReport,
    RequestResolution,
    ResolutionStatus,
)
from repro.core.batchstrat import BatchOutcome, StrategyRecommendation
from repro.core.params import TriParams
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.core.streaming import StreamDecision, StreamStatus
from repro.engine.cache import CacheStats

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=8
)


def wire_trip(value):
    """``decode`` after a real JSON text round trip of ``encode``."""
    encoded = json.dumps(encode(value))
    return decode(type(value), json.loads(encoded))


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
def resolutions(draw):
    status = draw(st.sampled_from(list(ResolutionStatus)))
    adpar = (
        draw(adpar_results())
        if status is ResolutionStatus.ALTERNATIVE
        else None
    )
    return RequestResolution(
        request=draw(requests()),
        status=status,
        strategy_names=tuple(draw(st.lists(names, max_size=3))),
        params=draw(triparams()),
        distance=draw(unit),
        adpar=adpar,
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
def batch_outcomes(draw):
    recs = tuple(
        StrategyRecommendation(
            request=draw(requests()),
            strategy_names=tuple(draw(st.lists(names, min_size=1, max_size=3))),
            workforce=draw(unit),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    )
    return BatchOutcome(
        objective=draw(st.sampled_from(["throughput", "payoff"])),
        objective_value=draw(st.floats(min_value=0.0, max_value=100.0)),
        workforce_available=draw(unit),
        workforce_used=draw(unit),
        satisfied=recs,
        unsatisfied=tuple(draw(st.lists(requests(), max_size=2))),
        infeasible=tuple(draw(st.lists(requests(), max_size=2))),
    )


@st.composite
def reports(draw):
    return AggregatorReport(
        availability=draw(unit),
        objective=draw(st.sampled_from(["throughput", "payoff"])),
        batch=draw(batch_outcomes()),
        resolutions=tuple(draw(st.lists(resolutions(), max_size=3))),
    )


@st.composite
def ensembles(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    alpha = np.array(
        [[draw(unit), draw(unit), draw(unit)] for _ in range(n)]
    )
    beta = np.array([[draw(unit), draw(unit), draw(unit)] for _ in range(n)])
    return StrategyEnsemble.from_arrays(alpha, beta)


@st.composite
def specs(draw):
    weights = draw(
        st.none()
        | st.tuples(
            st.floats(min_value=0.1, max_value=5.0),
            st.floats(min_value=0.1, max_value=5.0),
            st.floats(min_value=0.1, max_value=5.0),
        )
    )
    solver_options = {"norm": draw(st.sampled_from(["l1", "l2", "linf"]))}
    if weights is not None:
        solver_options["weights"] = weights
    return EngineSpec(
        availability=draw(unit),
        objective=draw(st.sampled_from(["throughput", "payoff"])),
        aggregation=draw(st.sampled_from(["sum", "max"])),
        workforce_mode=draw(st.sampled_from(["paper", "strict"])),
        eligibility=draw(st.sampled_from(["pool", "availability"])),
        planner=draw(st.sampled_from(["batch-greedy", "payoff-dp"])),
        solver=draw(st.sampled_from(["adpar-exact", "adpar-weighted"])),
        solver_options=solver_options,
    )


@st.composite
def cache_stats(draw):
    count = st.integers(min_value=0, max_value=10_000)
    return CacheStats(
        workforce_hits=draw(count),
        workforce_misses=draw(count),
        adpar_hits=draw(count),
        adpar_misses=draw(count),
    )


# ------------------------------------------------------------- payload DTOs
@settings(max_examples=60, deadline=None)
@given(triparams())
def test_triparams_roundtrip(params):
    assert wire_trip(params) == params


@settings(max_examples=60, deadline=None)
@given(requests())
def test_deployment_request_roundtrip(request):
    assert wire_trip(request) == request


@settings(max_examples=60, deadline=None)
@given(adpar_results())
def test_adpar_result_roundtrip(result):
    back = wire_trip(result)
    assert back == result


@settings(max_examples=60, deadline=None)
@given(resolutions())
def test_resolution_roundtrip(resolution):
    assert wire_trip(resolution) == resolution


@settings(max_examples=60, deadline=None)
@given(stream_decisions())
def test_stream_decision_roundtrip(decision):
    assert wire_trip(decision) == decision


@settings(max_examples=40, deadline=None)
@given(batch_outcomes())
def test_batch_outcome_roundtrip(outcome):
    assert wire_trip(outcome) == outcome


@settings(max_examples=40, deadline=None)
@given(reports())
def test_report_roundtrip(report):
    assert wire_trip(report) == report


@settings(max_examples=40, deadline=None)
@given(cache_stats())
def test_cache_stats_roundtrip(stats):
    assert wire_trip(stats) == stats


@settings(max_examples=30, deadline=None)
@given(ensembles())
def test_ensemble_ref_roundtrip_inline(ensemble):
    ref = EnsembleRef.of(ensemble)
    back = wire_trip(ref)
    assert back == ref
    # Inline form reconstructs the actual arrays, not just the hash.
    assert back.ensemble is not None
    np.testing.assert_array_equal(back.ensemble.alpha, ensemble.alpha)
    np.testing.assert_array_equal(back.ensemble.beta, ensemble.beta)
    assert back.ensemble.names == ensemble.names
    # Reference-only form round-trips too and compares equal by hash.
    thin = EnsembleRef.by_fingerprint(ref.fingerprint)
    assert wire_trip(thin) == ref


@settings(max_examples=60, deadline=None)
@given(specs())
def test_engine_spec_roundtrip(spec):
    back = wire_trip(spec)
    assert back == spec
    assert back.pool_key() == spec.pool_key()


# ---------------------------------------------------------------- envelopes
@settings(max_examples=30, deadline=None)
@given(ensembles(), st.lists(requests(), max_size=3), specs())
def test_request_envelopes_roundtrip(ensemble, reqs, spec):
    ref = EnsembleRef.of(ensemble)
    envelopes = [
        PlanRequest(
            ensemble=ref, requests=tuple(reqs), spec=spec, objective="payoff"
        ),
        ResolveRequest(
            ensemble=ref, requests=tuple(reqs), spec=spec, solver="onedim"
        ),
        AlternativesRequest(ensemble=ref, requests=tuple(reqs), spec=spec, k=2),
        SubmitBatchRequest(requests=tuple(reqs), ensemble=ref, spec=spec),
        SubmitBatchRequest(requests=tuple(reqs), session_id="sess-1"),
        RetryDeferredRequest(session_id="sess-1"),
        SessionOpRequest(op="complete", session_id="sess-1", request_ids=("a",)),
        SessionOpRequest(op="revoke", session_id="sess-1", request_ids=("a",)),
        SessionOpRequest(op="close_session", session_id="sess-1"),
        StatsRequest(),
    ]
    for envelope in envelopes:
        assert parse_request(json.loads(json.dumps(envelope.to_dict()))) == envelope


@settings(max_examples=20, deadline=None)
@given(
    batch_outcomes(),
    reports(),
    st.lists(adpar_results(), max_size=3),
    st.lists(stream_decisions(), max_size=3),
    cache_stats(),
)
def test_response_envelopes_roundtrip(outcome, report, results, decisions, stats):
    envelopes = [
        PlanResponse(outcome=outcome),
        ResolveResponse(report=report),
        AlternativesResponse(results=tuple(results)),
        SubmitBatchResponse(
            session_id="sess-1",
            decisions=tuple(decisions),
            remaining=0.25,
            deferred=1,
        ),
        RetryDeferredResponse(
            session_id="sess-1",
            decisions=tuple(decisions),
            remaining=0.5,
            deferred=0,
        ),
        SessionOpResponse(op="complete", session_id="sess-1", released=0.125),
        StatsResponse(cache=stats, engines=2, sessions=1, ensembles=3),
        ErrorResponse(code="invalid_argument", message="boom"),
    ]
    for envelope in envelopes:
        assert (
            parse_response(json.loads(json.dumps(envelope.to_dict()))) == envelope
        )


# ------------------------------------------------------- journal extensions
journal_counters = st.fixed_dictionaries(
    {
        key: st.integers(min_value=0, max_value=2**40)
        for key in (
            "events",
            "bytes",
            "checkpoints",
            "rotations",
            "restores",
            "replay_decisions",
            "replay_flips",
            "segments",
            "pending_checkpoint",
        )
    }
)


@settings(max_examples=40, deadline=None)
@given(cache_stats(), journal_counters)
def test_stats_response_journal_roundtrip(stats, journal):
    envelope = StatsResponse(
        cache=stats, engines=1, sessions=2, ensembles=3, journal=journal
    )
    assert parse_response(json.loads(json.dumps(envelope.to_dict()))) == envelope


def test_stats_response_without_journal_omits_key():
    """Pre-journal stats payloads stay byte-identical."""
    body = StatsResponse(
        cache=CacheStats(), engines=1, sessions=0, ensembles=0
    ).to_dict()
    assert "journal" not in body


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["", "/var/lib/repro/journal", "journal-000001.jsonl"]))
def test_scenario_spec_trace_path_roundtrip(trace_path):
    from repro.workloads import EnsembleSpec, RequestBatchSpec, ScenarioSpec

    spec = ScenarioSpec(
        kind="trace" if trace_path else "batch",
        ensemble=EnsembleSpec(n_strategies=1),
        requests=RequestBatchSpec(m_requests=1, k=1),
        seed=7,
        trace_path=trace_path,
    )
    encoded = encode(spec)
    # An empty trace_path is omitted so pre-journal payloads are
    # byte-identical; a set one round-trips verbatim.
    assert ("trace_path" in encoded) == bool(trace_path)
    back = decode(ScenarioSpec, json.loads(json.dumps(encoded)))
    assert back == spec


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 1000),
    st.integers(0, 1000),
    st.integers(0, 1000),
)
def test_simulation_report_replay_fields_roundtrip(sessions, decisions, flips):
    from repro.workloads import (
        EnsembleSpec,
        RequestBatchSpec,
        ScenarioSpec,
        SimulationReport,
    )

    report = SimulationReport(
        scenario=ScenarioSpec(
            kind="trace",
            ensemble=EnsembleSpec(n_strategies=1),
            requests=RequestBatchSpec(m_requests=1, k=1),
            seed=7,
            trace_path="journal",
        ),
        kind="trace",
        fingerprint="f" * 64,
        n_strategies=4,
        arrivals=decisions,
        elapsed_s=0.25,
        satisfied=min(sessions, decisions),
        replay_sessions=sessions,
        replay_decisions=decisions,
        replay_flips=flips,
    )
    back = wire_trip(report)
    assert back == report
