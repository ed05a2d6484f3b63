"""Unit tests: service-API error contract, engine pooling, sessions."""

import contextlib
import json
import socket
import threading
from http.client import HTTPConnection

import pytest

from repro import exceptions
from repro.api import (
    API_PATH,
    API_VERSION,
    AlternativesRequest,
    AlternativesResponse,
    EngineService,
    EngineSpec,
    EnsembleRef,
    PlanRequest,
    ResolveRequest,
    RetryDeferredRequest,
    SessionOpRequest,
    SimulateRequest,
    StatsRequest,
    SubmitBatchRequest,
    decode,
    encode,
    error_code_for,
    make_server,
    parse_request,
    parse_response,
)
from repro.api.envelopes import _REQUEST_TYPES
from repro.api.http import HTTP_STATUS
from repro.cluster import RouterService
from repro.core.params import TriParams
from repro.core.request import DeploymentRequest, make_requests
from repro.core.strategy import StrategyEnsemble
from repro.engine import (
    EngineCache,
    RecommendationEngine,
    default_solver_registry,
    ensemble_fingerprint,
)
from repro.exceptions import (
    ApiError,
    InfeasibleRequestError,
    InvalidSpecError,
    UnknownPlannerError,
    UnknownSolverError,
)
from repro.utils.rng import spawn_rngs
from repro.workloads.generators import generate_adpar_points, hard_request_for


def paper_ensemble() -> StrategyEnsemble:
    return StrategyEnsemble.from_params(
        [
            TriParams(0.50, 0.25, 0.28),
            TriParams(0.75, 0.33, 0.28),
            TriParams(0.80, 0.50, 0.14),
            TriParams(0.88, 0.58, 0.14),
        ]
    )


def paper_requests():
    return tuple(
        make_requests(
            [(0.4, 0.17, 0.28), (0.8, 0.20, 0.28), (0.7, 0.83, 0.28)], k=3
        )
    )


def resolve_payload(**overrides) -> dict:
    payload = ResolveRequest(
        ensemble=EnsembleRef.of(paper_ensemble()),
        requests=paper_requests(),
        spec=EngineSpec(availability=0.8),
    ).to_dict()
    payload.update(overrides)
    return payload


def hard_case() -> "tuple[StrategyEnsemble, DeploymentRequest]":
    """An ensemble plus one request no strategy satisfies (k=3)."""
    rng_points, rng_request = spawn_rngs(43, 2)
    points = generate_adpar_points(12, "uniform", rng_points)
    request = DeploymentRequest("hard", hard_request_for(points, rng_request), k=3)
    return StrategyEnsemble.from_params(points), request


#: Envelope type tags no parser knows: a stray name and non-strings.
UNKNOWN_TAGS = ["frobnicate", 5, None, [], {}]
UNKNOWN_TAG_IDS = ["name", "number", "null", "list", "object"]


class _StubSupervisor:
    """A one-slot supervisor whose worker is an in-process server."""

    restart_count = 0

    def __init__(self, address):
        self._address = address

    def slots(self):
        return (0,)

    def address(self, slot):
        return self._address

    def notify_failure(self, slot):
        pass

    def describe(self):
        return []


@contextlib.contextmanager
def http_front_end():
    """A live ``repro serve`` front end; yields a connection to it."""
    server = make_server(EngineService())
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    conn = HTTPConnection(*server.server_address[:2], timeout=30)
    try:
        yield conn
    finally:
        conn.close()
        server.shutdown()
        server.server_close()


def answer(conn) -> "tuple[int, dict]":
    response = conn.getresponse()
    return response.status, json.loads(response.read())


# Each producer sends one request that answers its HTTP_STATUS code
# through the door that really produces it, as ``(status, body)``;
# ``status`` is None on the in-process ``handle_dict`` door.
def unknown_session(monkeypatch):
    request = RetryDeferredRequest(session_id="sess-nope")
    return None, EngineService().handle_dict(request.to_dict())


def unknown_ensemble(monkeypatch):
    request = PlanRequest(
        ensemble=EnsembleRef.by_fingerprint("0" * 64),
        requests=(),
        spec=EngineSpec(availability=0.8),
    )
    return None, EngineService().handle_dict(request.to_dict())


def unknown_reservation(monkeypatch):
    service = EngineService()
    session_id = service.open_session(
        paper_ensemble(), EngineSpec(availability=0.8)
    )
    request = SessionOpRequest(
        op="complete", session_id=session_id, request_ids=("nope",)
    )
    return None, service.handle_dict(request.to_dict())


def unknown_scenario(monkeypatch):
    request = SimulateRequest(name="no-such-family")
    return None, EngineService().handle_dict(request.to_dict())


def not_found(monkeypatch):
    with http_front_end() as conn:
        conn.request("GET", "/elsewhere")
        return answer(conn)


def internal(monkeypatch):
    def broken(service, request):
        raise RuntimeError("boom")

    monkeypatch.setitem(EngineService._HANDLERS, StatsRequest, broken)
    with http_front_end() as conn:
        conn.request("POST", API_PATH, json.dumps(StatsRequest().to_dict()))
        return answer(conn)


def upstream_unavailable(monkeypatch):
    # Bound but never listening: every connection to it is refused.
    with socket.socket() as refusing:
        refusing.bind(("127.0.0.1", 0))
        router = RouterService(_StubSupervisor(refusing.getsockname()))
        payload = resolve_payload()
        status, body = router.forward(
            payload, json.dumps(payload).encode(), API_PATH
        )
        router.close()
    return status, json.loads(body)


STATUS_PRODUCERS = {
    producer.__name__: producer
    for producer in (
        not_found,
        unknown_session,
        unknown_ensemble,
        unknown_reservation,
        unknown_scenario,
        internal,
        upstream_unavailable,
    )
}


class TestWireClosure:
    """The wire tables agree with the live objects: every dispatchable
    request has a handler, every library exception a stable code, and
    every ``HTTP_STATUS`` row a request that produces it."""

    def test_every_dispatched_request_type_has_a_handler(self):
        dispatched = {parse.__self__ for parse in _REQUEST_TYPES.values()}
        assert dispatched == set(EngineService._HANDLERS)

    def test_every_library_exception_has_a_stable_code(self):
        classes = [
            value
            for value in vars(exceptions).values()
            if isinstance(value, type)
            and issubclass(value, BaseException)
            and value.__module__ == exceptions.__name__
        ]
        assert classes
        for cls in classes:
            assert error_code_for(cls("x")) != "internal", cls.__name__

    def test_every_status_row_has_a_producer(self):
        assert set(HTTP_STATUS) == set(STATUS_PRODUCERS)

    @pytest.mark.parametrize("code", sorted(STATUS_PRODUCERS))
    def test_producer_answers_its_code(self, code, monkeypatch):
        status, body = STATUS_PRODUCERS[code](monkeypatch)
        assert (body["type"], body["code"]) == ("error", code)
        if status is not None:
            assert status == HTTP_STATUS[code]


class TestWireErrors:
    def test_missing_field_is_api_error_not_keyerror(self):
        with pytest.raises(ApiError) as excinfo:
            decode(TriParams, {"quality": 0.5, "cost": 0.5})
        assert excinfo.value.code == "malformed_payload"
        assert "latency" in str(excinfo.value)

    def test_wrong_type_is_api_error_not_typeerror(self):
        with pytest.raises(ApiError):
            decode(TriParams, {"quality": "high", "cost": 0.5, "latency": 0.5})
        with pytest.raises(ApiError):
            decode(TriParams, "not a mapping")

    def test_semantically_invalid_value_is_api_error(self):
        # quality=2.0 passes the type check but fails TriParams' range
        # validation — must still surface as the typed error.
        with pytest.raises(ApiError) as excinfo:
            decode(TriParams, {"quality": 2.0, "cost": 0.5, "latency": 0.5})
        assert excinfo.value.code == "invalid_payload"

    def test_empty_request_id_is_api_error(self):
        with pytest.raises(ApiError):
            decode(
                DeploymentRequest,
                {
                    "request_id": "",
                    "params": {"quality": 0.5, "cost": 0.5, "latency": 0.5},
                    "k": 1,
                },
            )

    def test_missing_version_rejected(self):
        payload = resolve_payload()
        del payload["api_version"]
        with pytest.raises(ApiError) as excinfo:
            parse_request(payload)
        assert excinfo.value.code == "malformed_payload"

    def test_unknown_version_rejected(self):
        with pytest.raises(ApiError) as excinfo:
            parse_request(resolve_payload(api_version=API_VERSION + 1))
        assert excinfo.value.code == "unsupported_version"

    @pytest.mark.parametrize("parse", [parse_request, parse_response])
    @pytest.mark.parametrize("tag", UNKNOWN_TAGS, ids=UNKNOWN_TAG_IDS)
    def test_unknown_envelope_type_rejected(self, parse, tag):
        with pytest.raises(ApiError) as excinfo:
            parse(resolve_payload(type=tag))
        assert excinfo.value.code == "unknown_type"

    def test_router_answers_unknown_type_tags(self):
        """Router → worker over HTTP: a non-string tag is a typed
        ``unknown_type`` answer, not a dropped connection."""
        server = make_server(EngineService())
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        router = RouterService(_StubSupervisor(server.server_address[:2]))
        try:
            for tag in UNKNOWN_TAGS:
                out = router.handle_dict(
                    {"api_version": API_VERSION, "type": tag}
                )
                assert (out["type"], out["code"]) == (
                    "error",
                    "unknown_type",
                ), tag
        finally:
            router.close()
            server.shutdown()
            server.server_close()

    def test_inline_ensemble_with_duplicate_names_rejected(self):
        payload = resolve_payload()
        del payload["ensemble"]["fingerprint"]
        payload["ensemble"]["names"] = ["dup"] * len(paper_ensemble().names)
        out = EngineService().handle_dict(payload)
        assert (out["type"], out["code"]) == ("error", "invalid_payload")

    def test_inline_ensembles_with_nul_in_names_rejected(self):
        # Joined on NUL, both name lists read "a\x00b\x00c": with equal
        # arrays the two uploads would share one fingerprint, so the
        # second would be answered by the first's pooled engine.
        service = EngineService()
        for names in (["a\x00b", "c"], ["a", "b\x00c"]):
            payload = resolve_payload()
            del payload["ensemble"]["fingerprint"]
            for column in ("alpha", "beta"):
                payload["ensemble"][column] = payload["ensemble"][column][:2]
            payload["ensemble"]["names"] = names
            out = service.handle_dict(payload)
            assert (out["type"], out.get("code")) == ("error", "invalid_payload")

    def test_inline_ensemble_with_non_finite_models_rejected(self):
        payload = resolve_payload()
        del payload["ensemble"]["fingerprint"]
        payload["ensemble"]["alpha"] = [
            [float("nan")] * 3 for _ in payload["ensemble"]["alpha"]
        ]
        out = EngineService().handle_dict(payload)
        assert (out["type"], out["code"]) == ("error", "invalid_payload")

    def test_fingerprint_mismatch_rejected(self):
        payload = resolve_payload()
        payload["ensemble"]["fingerprint"] = "0" * 64
        with pytest.raises(ApiError) as excinfo:
            parse_request(payload)
        assert excinfo.value.code == "fingerprint_mismatch"


class TestEngineSpecEdgeRoundTrips:
    """Shapes the randomized round-trip suite does not generate."""

    def test_empty_option_dicts_survive(self):
        spec = EngineSpec(
            availability=0.5, planner_options={}, solver_options={}
        )
        assert decode(EngineSpec, encode(spec)) == spec

    def test_tuple_valued_planner_options_survive(self):
        spec = EngineSpec(availability=0.5, planner_options={"w": (1.0, 2.0)})
        back = decode(EngineSpec, encode(spec))
        assert back == spec
        assert back.pool_key() == spec.pool_key()


class TestEngineSpecOptionTypes:
    """Backend options are a mapping or None, however the spec is built."""

    @pytest.mark.parametrize(
        "field, value",
        [("solver_options", 5), ("planner_options", [1]), ("solver_options", "l1")],
    )
    def test_non_mapping_options_rejected_naming_the_field(self, field, value):
        with pytest.raises(TypeError, match=field):
            EngineSpec(availability=0.5, **{field: value})

    @pytest.mark.parametrize("field", ["solver_options", "planner_options"])
    def test_in_process_simulate_answers_invalid_spec(self, field):
        with pytest.raises(InvalidSpecError, match=field):
            EngineService().handle(
                SimulateRequest(name="paper-batch-small", overrides={field: 5})
            )

    @pytest.mark.parametrize("field", ["solver_options", "planner_options"])
    def test_wire_answer_stays_malformed_payload(self, field):
        out = EngineService().handle_dict(
            {
                "api_version": API_VERSION,
                "type": "simulate",
                "name": "paper-batch-small",
                "overrides": {field: 5},
            }
        )
        assert (out["type"], out["code"]) == ("error", "malformed_payload")
        assert field in out["message"]


class TestErrorEnvelopes:
    """handle_dict never raises: stable codes out, tracebacks never."""

    def test_malformed_payload_maps_to_envelope(self):
        service = EngineService()
        out = service.handle_dict({"api_version": API_VERSION})
        assert out["type"] == "error"
        assert out["code"] == "malformed_payload"
        assert out["api_version"] == API_VERSION

    def test_non_mapping_payload_maps_to_envelope(self):
        out = EngineService().handle_dict([1, 2, 3])
        assert (out["type"], out["code"]) == ("error", "malformed_payload")

    def test_unknown_planner_maps_to_stable_code(self):
        payload = resolve_payload()
        payload["spec"]["planner"] = "quantum-annealer"
        out = EngineService().handle_dict(payload)
        assert (out["type"], out["code"]) == ("error", "unknown_planner")
        assert "quantum-annealer" in out["message"]

    def test_unknown_solver_maps_to_stable_code(self):
        payload = resolve_payload()
        payload["spec"]["solver"] = "oracle"
        out = EngineService().handle_dict(payload)
        assert (out["type"], out["code"]) == ("error", "unknown_solver")

    def test_invalid_availability_maps_to_invalid_argument(self):
        payload = resolve_payload()
        payload["spec"]["availability"] = 7.5
        out = EngineService().handle_dict(payload)
        assert (out["type"], out["code"]) == ("error", "invalid_argument")

    def test_infeasible_alternatives_map_to_stable_code(self):
        service = EngineService()
        out = service.handle_dict(
            AlternativesRequest(
                ensemble=EnsembleRef.of(paper_ensemble()),
                requests=paper_requests(),
                spec=EngineSpec(availability=0.8),
                k=99,
            ).to_dict()
        )
        assert (out["type"], out["code"]) == ("error", "infeasible_request")

    def test_unknown_session_maps_to_stable_code(self):
        out = EngineService().handle_dict(
            RetryDeferredRequest(session_id="sess-nope").to_dict()
        )
        assert (out["type"], out["code"]) == ("error", "unknown_session")

    def test_exception_code_table(self):
        assert error_code_for(InfeasibleRequestError("x")) == "infeasible_request"
        assert error_code_for(UnknownPlannerError("x")) == "unknown_planner"
        assert error_code_for(UnknownSolverError("x")) == "unknown_solver"
        assert error_code_for(ValueError("x")) == "invalid_argument"
        assert error_code_for(ApiError("x", code="custom")) == "custom"
        assert error_code_for(RuntimeError("x")) == "internal"


class TestEnginePool:
    def test_same_identity_reuses_engine(self):
        service = EngineService()
        ensemble = paper_ensemble()
        spec = EngineSpec(availability=0.8)
        first = service.engine_for(ensemble, spec)
        again = service.engine_for(ensemble, EngineSpec(availability=0.8))
        assert again is first
        assert service.engine_count == 1

    def test_content_identical_ensembles_share_engines(self):
        service = EngineService()
        spec = EngineSpec(availability=0.8)
        first = service.engine_for(paper_ensemble(), spec)
        again = service.engine_for(paper_ensemble(), spec)  # new object
        assert again is first

    def test_different_spec_gets_distinct_engine(self):
        service = EngineService()
        ensemble = paper_ensemble()
        a = service.engine_for(ensemble, EngineSpec(availability=0.8))
        b = service.engine_for(
            ensemble, EngineSpec(availability=0.8, aggregation="max")
        )
        assert a is not b
        assert service.engine_count == 2

    def test_pool_is_lru_bounded(self):
        service = EngineService(max_engines=2)
        ensemble = paper_ensemble()
        for availability in (0.1, 0.2, 0.3):
            service.engine_for(ensemble, EngineSpec(availability=availability))
        assert service.engine_count == 2

    def test_engines_share_service_cache(self):
        service = EngineService()
        ensemble = paper_ensemble()
        a = service.engine_for(ensemble, EngineSpec(availability=0.8))
        b = service.engine_for(
            ensemble, EngineSpec(availability=0.8, objective="payoff")
        )
        assert a.cache is service.cache
        assert b.cache is service.cache

    def test_missing_spec_without_default_is_typed_error(self):
        service = EngineService()
        with pytest.raises(ApiError) as excinfo:
            service.engine_for(paper_ensemble(), None)
        assert excinfo.value.code == "missing_spec"

    def test_default_spec_fills_in(self):
        service = EngineService(default_spec=EngineSpec(availability=0.8))
        engine = service.engine_for(paper_ensemble(), None)
        assert engine.availability == 0.8

    def test_ensemble_registry_is_lru_bounded(self):
        # A long-running server must not pin every ensemble it ever saw.
        service = EngineService(max_ensembles=2)
        spec = EngineSpec(availability=0.5)
        fingerprints = []
        for i in range(3):
            ensemble = StrategyEnsemble.from_params(
                [TriParams(0.5, 0.5, 0.5)], names=[f"s-{i}"]
            )
            fingerprints.append(service.register_ensemble(ensemble))
        # Oldest fingerprint aged out; the two recent ones still resolve.
        with pytest.raises(ApiError) as excinfo:
            service.engine_for(
                EnsembleRef.by_fingerprint(fingerprints[0]), spec
            )
        assert excinfo.value.code == "unknown_ensemble"
        service.engine_for(EnsembleRef.by_fingerprint(fingerprints[-1]), spec)

    def test_unknown_fingerprint_is_typed_error(self):
        service = EngineService()
        with pytest.raises(ApiError) as excinfo:
            service.engine_for(
                EnsembleRef.by_fingerprint("f" * 64),
                EngineSpec(availability=0.8),
            )
        assert excinfo.value.code == "unknown_ensemble"


class TestSessions:
    def test_opaque_ids_are_unique(self):
        service = EngineService()
        ensemble = paper_ensemble()
        spec = EngineSpec(availability=0.8)
        ids = {service.open_session(ensemble, spec) for _ in range(10)}
        assert len(ids) == 10
        assert service.session_count == 10

    def test_submit_batch_opens_session_implicitly(self):
        service = EngineService()
        response = service.submit_batch(
            SubmitBatchRequest(
                requests=paper_requests(),
                ensemble=EnsembleRef.of(paper_ensemble()),
                spec=EngineSpec(availability=0.8),
            )
        )
        assert service.session_count == 1
        follow_up = service.submit_batch(
            SubmitBatchRequest(
                requests=tuple(
                    make_requests([(0.5, 0.9, 0.9)], k=1, prefix="extra-")
                ),
                session_id=response.session_id,
            )
        )
        assert follow_up.session_id == response.session_id
        assert service.session_count == 1

    def test_submit_batch_without_target_is_typed_error(self):
        # Neither session_id nor ensemble: a client error, never a 500.
        out = EngineService(
            default_spec=EngineSpec(availability=0.8)
        ).handle_dict(SubmitBatchRequest(requests=paper_requests()).to_dict())
        assert (out["type"], out["code"]) == ("error", "missing_ensemble")

    def test_failed_implicit_open_does_not_leak_session(self):
        # A burst with a duplicate id is rejected before any session is
        # opened — a failed implicit open must never leave behind a
        # session whose id the client was never told (unclosable, counts
        # against max_sessions).
        service = EngineService()
        duplicate = paper_requests() + paper_requests()[2:]
        out = service.handle_dict(
            SubmitBatchRequest(
                requests=duplicate,
                ensemble=EnsembleRef.of(paper_ensemble()),
                spec=EngineSpec(availability=0.8),
            ).to_dict()
        )
        assert (out["type"], out["code"]) == ("error", "invalid_argument")
        assert service.session_count == 0

    def test_submit_batch_with_active_id_rejected_atomically(self):
        # A burst naming an already-active id would fail *mid-walk* in
        # submit_many, mutating the ledger before the error; the service
        # must reject it up front with the session untouched.
        service = EngineService()
        first = service.submit_batch(
            SubmitBatchRequest(
                requests=paper_requests(),
                ensemble=EnsembleRef.of(paper_ensemble()),
                spec=EngineSpec(availability=0.8),
            )
        )
        session = service.session(first.session_id)
        active_id = next(iter(session.active))
        before = dict(session.active)
        fresh = make_requests([(0.5, 0.9, 0.9)], k=1, prefix="fresh-")
        retry = fresh + [r for r in paper_requests() if r.request_id == active_id]
        with pytest.raises(ApiError) as excinfo:
            service.submit_batch(
                SubmitBatchRequest(
                    requests=tuple(retry), session_id=first.session_id
                )
            )
        assert excinfo.value.code == "invalid_argument"
        assert dict(session.active) == before  # nothing applied

    def test_session_op_rejects_unknown_op(self):
        service = EngineService()
        session_id = service.open_session(
            paper_ensemble(), EngineSpec(availability=0.8)
        )
        with pytest.raises(ApiError) as excinfo:
            service.session_op(
                SessionOpRequest(
                    op="completed", session_id=session_id, request_ids=("x",)
                )
            )
        assert excinfo.value.code == "invalid_argument"

    def test_submit_batch_rejects_session_id_plus_ensemble(self):
        service = EngineService()
        session_id = service.open_session(
            paper_ensemble(), EngineSpec(availability=0.8)
        )
        with pytest.raises(ApiError) as excinfo:
            service.submit_batch(
                SubmitBatchRequest(
                    requests=paper_requests(),
                    session_id=session_id,
                    ensemble=EnsembleRef.of(paper_ensemble()),
                )
            )
        assert excinfo.value.code == "ambiguous_target"

    def test_close_session_frees_slot(self):
        service = EngineService(max_sessions=1)
        session_id = service.open_session(
            paper_ensemble(), EngineSpec(availability=0.8)
        )
        with pytest.raises(ApiError) as excinfo:
            service.open_session(paper_ensemble(), EngineSpec(availability=0.8))
        assert excinfo.value.code == "session_limit"
        service.close_session(session_id)
        service.open_session(paper_ensemble(), EngineSpec(availability=0.8))

    def test_complete_unknown_reservation_is_typed_error(self):
        service = EngineService()
        session_id = service.open_session(
            paper_ensemble(), EngineSpec(availability=0.8)
        )
        with pytest.raises(ApiError) as excinfo:
            service.session_op(
                SessionOpRequest(
                    op="complete", session_id=session_id, request_ids=("ghost",)
                )
            )
        assert excinfo.value.code == "unknown_reservation"

    def test_session_op_is_atomic_on_unknown_ids(self):
        # ["real", "ghost"] must release *nothing*: a partial release the
        # client only sees as an error would desync its ledger for good.
        service = EngineService()
        session_id = service.open_session(
            paper_ensemble(), EngineSpec(availability=0.8)
        )
        session = service.session(session_id)
        admitted = [
            d.request.request_id
            for d in session.submit_many(list(paper_requests()))
            if d.status.value == "admitted"
        ]
        assert admitted
        before = dict(session.active)
        with pytest.raises(ApiError) as excinfo:
            service.session_op(
                SessionOpRequest(
                    op="complete",
                    session_id=session_id,
                    request_ids=(admitted[0], "ghost"),
                )
            )
        assert excinfo.value.code == "unknown_reservation"
        assert dict(session.active) == before
        assert session.completed_count == 0

    def test_session_op_rejects_duplicate_ids(self):
        service = EngineService()
        session_id = service.open_session(
            paper_ensemble(), EngineSpec(availability=0.8)
        )
        session = service.session(session_id)
        admitted = [
            d.request.request_id
            for d in session.submit_many(list(paper_requests()))
            if d.status.value == "admitted"
        ]
        with pytest.raises(ApiError) as excinfo:
            service.session_op(
                SessionOpRequest(
                    op="complete",
                    session_id=session_id,
                    request_ids=(admitted[0], admitted[0]),
                )
            )
        assert excinfo.value.code == "invalid_argument"

    def test_session_op_requires_request_ids(self):
        service = EngineService()
        session_id = service.open_session(
            paper_ensemble(), EngineSpec(availability=0.8)
        )
        with pytest.raises(ApiError):
            service.session_op(
                SessionOpRequest(op="complete", session_id=session_id)
            )


class TestStats:
    def test_stats_reports_pool_and_cache(self):
        service = EngineService()
        service.handle(
            PlanRequest(
                ensemble=EnsembleRef.of(paper_ensemble()),
                requests=paper_requests(),
                spec=EngineSpec(availability=0.8),
            )
        )
        stats = service.handle(StatsRequest())
        assert stats.engines == 1
        assert stats.ensembles == 1
        assert stats.sessions == 0
        assert stats.cache.misses > 0
        assert stats.cache is service.cache.stats


class TestEqualContentEnsembles:
    """Every inline upload decodes a new ensemble object, while the
    shared cache keys relaxation spaces by content fingerprint: each
    solver must accept the space built for an earlier equal copy."""

    @pytest.mark.parametrize("solver", default_solver_registry().names())
    def test_inline_reupload_serves_every_solver(self, solver):
        ensemble, request = hard_case()
        ref = EnsembleRef.of(ensemble)
        service = EngineService()
        first = service.handle_dict(
            ResolveRequest(
                ensemble=ref, requests=(request,), spec=EngineSpec(availability=1.0)
            ).to_dict()
        )
        spec = EngineSpec(availability=1.0, solver=solver)
        second = service.handle_dict(
            ResolveRequest(ensemble=ref, requests=(request,), spec=spec).to_dict()
        )
        by_fingerprint = EnsembleRef.by_fingerprint(ensemble_fingerprint(ensemble))
        answer = service.handle_dict(
            AlternativesRequest(
                ensemble=by_fingerprint, requests=(request,), spec=spec
            ).to_dict()
        )
        for response in (first, second, answer):
            assert response["type"] != "error", response
        direct = RecommendationEngine(ensemble, availability=1.0, solver=solver)
        assert decode(AlternativesResponse, answer).results == tuple(
            direct.recommend_alternatives([request])
        )

    @pytest.mark.parametrize("solver", default_solver_registry().names())
    def test_shared_cache_engine_accepts_an_equal_copy(self, solver):
        ensemble, request = hard_case()
        copy = StrategyEnsemble.from_arrays(
            ensemble.alpha.copy(), ensemble.beta.copy(), names=ensemble.names
        )
        shared = EngineCache()
        RecommendationEngine(ensemble, availability=1.0, cache=shared)
        engine = RecommendationEngine(
            copy, availability=1.0, cache=shared, solver=solver
        )
        direct = RecommendationEngine(ensemble, availability=1.0, solver=solver)
        assert engine.recommend_alternatives([request]) == (
            direct.recommend_alternatives([request])
        )
