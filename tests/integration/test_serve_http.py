"""End-to-end smoke of ``repro serve``: one request of every type over HTTP.

Starts the stdlib server on an ephemeral port, fires each request
envelope the API defines, asserts the 200s (and the right non-200s for
the error contract), and pins the served decisions identical to driving
a :class:`RecommendationEngine` directly — the CI serve-smoke step runs
exactly this module.
"""

from __future__ import annotations

import json
import threading
from http.client import HTTPConnection

import pytest

from repro.api import (
    API_VERSION,
    EngineService,
    EngineSpec,
    EnsembleRef,
    decode,
    encode,
    make_server,
)
from repro.api.wire import report_from_dict, stream_decision_from_dict
from repro.core.params import TriParams
from repro.core.request import make_requests
from repro.core.strategy import StrategyEnsemble
from repro.engine import RecommendationEngine
from repro.workloads import SimulationReport

AVAILABILITY = 0.8


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
    return make_requests(
        [(0.4, 0.17, 0.28), (0.8, 0.20, 0.28), (0.7, 0.83, 0.28)], k=3
    )


@pytest.fixture()
def server():
    server = make_server(
        EngineService(default_spec=EngineSpec(availability=AVAILABILITY))
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture()
def client(server):
    host, port = server.server_address
    conn = HTTPConnection(host, port, timeout=30)
    try:
        yield conn
    finally:
        conn.close()


def post(conn, path, payload):
    conn.request("POST", path, json.dumps(payload))
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def envelope(envelope_type: str, **fields) -> dict:
    return {"api_version": API_VERSION, "type": envelope_type, **fields}


def request_dicts():
    return [
        {
            "request_id": r.request_id,
            "params": {
                "quality": r.quality,
                "cost": r.cost,
                "latency": r.latency,
            },
            "k": r.k,
        }
        for r in paper_requests()
    ]


def inline_ensemble() -> dict:
    return encode(EnsembleRef.of(paper_ensemble()))


def test_health_endpoint(client):
    client.request("GET", f"/v{API_VERSION}/health")
    response = client.getresponse()
    assert response.status == 200
    assert json.loads(response.read()) == {
        "status": "ok",
        "api_version": API_VERSION,
    }


def test_every_request_type_round_trips(client):
    """plan, resolve, alternatives, submit_batch, retry_deferred,
    complete, close_session, stats — all answered 200 end-to-end."""
    base = f"/v{API_VERSION}"
    spec = encode(EngineSpec(availability=AVAILABILITY))
    common = {"ensemble": inline_ensemble(), "spec": spec}

    status, plan = post(
        client, base, envelope("plan", requests=request_dicts(), **common)
    )
    assert (status, plan["type"]) == (200, "plan_result")

    status, resolve = post(
        client, base, envelope("resolve", requests=request_dicts(), **common)
    )
    assert (status, resolve["type"]) == (200, "resolve_result")

    status, alternatives = post(
        client,
        base,
        envelope("alternatives", requests=request_dicts(), **common),
    )
    assert (status, alternatives["type"]) == (200, "alternatives_result")
    assert len(alternatives["results"]) == 3

    status, burst = post(
        client,
        base,
        envelope("submit_batch", requests=request_dicts(), **common),
    )
    assert (status, burst["type"]) == (200, "submit_batch_result")
    session_id = burst["session_id"]

    status, retry = post(
        client, base, envelope("retry_deferred", session_id=session_id)
    )
    assert (status, retry["type"]) == (200, "retry_deferred_result")

    admitted = [
        d["request"]["request_id"]
        for d in burst["decisions"]
        if d["status"] == "admitted"
    ]
    assert admitted  # d3 fits the paper's world at W=0.8
    status, complete = post(
        client,
        base,
        envelope("complete", session_id=session_id, request_ids=admitted),
    )
    assert (status, complete["type"]) == (200, "session_op_result")
    # Constant paper strategies reserve 0 workforce; the op must still
    # release exactly what the admission decisions reserved.
    assert complete["released"] == sum(
        d["workforce_reserved"]
        for d in burst["decisions"]
        if d["status"] == "admitted"
    )

    status, closed = post(
        client, base, envelope("close_session", session_id=session_id)
    )
    assert (status, closed["type"]) == (200, "session_op_result")

    status, stats = post(client, base, envelope("stats"))
    assert (status, stats["type"]) == (200, "stats_result")
    assert stats["sessions"] == 0  # closed above
    assert stats["engines"] >= 1


def test_served_decisions_identical_to_direct_engine(client):
    """The wire answers == RecommendationEngine/EngineSession in memory."""
    base = f"/v{API_VERSION}"
    spec = EngineSpec(availability=AVAILABILITY)
    direct = RecommendationEngine(paper_ensemble(), **spec.engine_kwargs())

    _, resolve = post(
        client,
        base,
        envelope(
            "resolve",
            ensemble=inline_ensemble(),
            spec=encode(spec),
            requests=request_dicts(),
        ),
    )
    assert report_from_dict(resolve["report"]) == direct.resolve(
        paper_requests()
    )

    _, burst = post(
        client,
        base,
        envelope(
            "submit_batch",
            ensemble=inline_ensemble(),
            spec=encode(spec),
            requests=request_dicts(),
        ),
    )
    session = RecommendationEngine(
        paper_ensemble(), **spec.engine_kwargs()
    ).open_session()
    expected = [session.submit(r) for r in paper_requests()]
    served = [stream_decision_from_dict(d) for d in burst["decisions"]]
    assert [d.comparison_key() for d in served] == [
        d.comparison_key() for d in expected
    ]


def test_default_spec_applies_when_request_omits_it(client):
    """`repro serve --availability ...` flags become the fallback spec."""
    _, resolve = post(
        client,
        f"/v{API_VERSION}/resolve",
        {"ensemble": inline_ensemble(), "requests": request_dicts()},
    )
    assert resolve["type"] == "resolve_result"
    assert resolve["report"]["availability"] == AVAILABILITY


def test_path_implied_type(client):
    status, out = post(
        client,
        f"/v{API_VERSION}/stats",
        {},
    )
    assert (status, out["type"]) == (200, "stats_result")


def test_body_type_contradicting_path_is_rejected(client):
    """The URL is what proxies/ACLs see — the body must not reroute it."""
    status, out = post(
        client,
        f"/v{API_VERSION}/plan",
        {"api_version": API_VERSION, "type": "stats"},
    )
    assert status == 400
    assert (out["type"], out["code"]) == ("error", "malformed_payload")


def test_keep_alive_survives_valid_traffic_and_closes_on_desync(client):
    """Errors whose body was fully consumed keep the connection alive;
    only unrecoverable framing (a bad Content-Length) closes it."""
    base = f"/v{API_VERSION}"
    for _ in range(3):
        status, out = post(client, base, envelope("stats"))
        assert (status, out["type"]) == (200, "stats_result")
    # Wrong path with a well-framed body: the server drains it, answers
    # 404, and the same connection keeps serving.
    client.request("POST", "/elsewhere", json.dumps(envelope("stats")))
    response = client.getresponse()
    assert response.status == 404
    assert response.getheader("Connection") != "close"
    json.loads(response.read())
    status, out = post(client, base, envelope("stats"))
    assert (status, out["type"]) == (200, "stats_result")
    # Invalid JSON with correct framing also survives keep-alive.
    client.request("POST", base, "this is not json")
    response = client.getresponse()
    assert response.status == 400
    assert response.getheader("Connection") != "close"
    assert json.loads(response.read())["code"] == "malformed_payload"
    status, out = post(client, base, envelope("stats"))
    assert (status, out["type"]) == (200, "stats_result")
    # A Content-Length that is not a number leaves the stream in an
    # unknowable state — that (and only that) ends the connection.
    client.request(
        "POST", base, json.dumps(envelope("stats")),
        headers={"Content-Length": "not-a-number"},
    )
    response = client.getresponse()
    assert response.status == 400
    assert response.getheader("Connection") == "close"
    assert json.loads(response.read())["code"] == "malformed_payload"


def test_simulate_batch_scenario_over_http(client):
    """POST /v1/simulate: a named batch family materializes server-side
    and the report matches driving the engine directly."""
    from repro.engine import RecommendationEngine
    from repro.workloads import default_scenario_registry

    status, body = post(
        client,
        f"/v{API_VERSION}/simulate",
        {"name": "paper-batch-small", "overrides": {"m_requests": 4}},
    )
    assert (status, body["type"]) == (200, "simulate_result")
    report = body["report"]
    assert report["kind"] == "batch"
    assert report["arrivals"] == 4
    spec = default_scenario_registry().create("paper-batch-small", m_requests=4)
    ensemble, requests = spec.build()
    direct = RecommendationEngine(
        ensemble, **spec.engine.engine_kwargs()
    ).resolve(requests)
    assert report["satisfied"] == direct.satisfied_count
    assert report["alternative"] == direct.alternative_count
    assert report["objective_value"] == direct.batch.objective_value
    # The server-side ensemble is now addressable by fingerprint alone —
    # the whole point of materializing specs behind the wire.
    status, resolve = post(
        client,
        f"/v{API_VERSION}/resolve",
        {
            "ensemble": {"fingerprint": report["fingerprint"]},
            "spec": encode(spec.engine),
            "requests": request_dicts(),
        },
    )
    assert (status, resolve["type"]) == (200, "resolve_result")


def test_simulate_stream_scenario_over_http(client):
    """POST /v1/simulate for a streaming family: arrival process honoured,
    counters consistent, spec echo round-trips."""

    status, body = post(
        client,
        f"/v{API_VERSION}/simulate",
        {"name": "flash-crowd", "overrides": {"m_requests": 150}},
    )
    assert (status, body["type"]) == (200, "simulate_result")
    report = decode(SimulationReport, body["report"])
    assert report.kind == "stream"
    assert report.arrivals == 150
    assert report.admitted == report.completed
    assert report.scenario.name == "flash-crowd"
    assert report.scenario.arrival.process == "burst"
    assert report.scenario.requests.m_requests == 150


def test_simulate_error_codes_over_http(client):
    status, body = post(
        client, f"/v{API_VERSION}/simulate", {"name": "no-such-family"}
    )
    assert status == 404
    assert body["code"] == "unknown_scenario"

    status, body = post(
        client,
        f"/v{API_VERSION}/simulate",
        {"name": "paper-batch-small", "overrides": {"bogus": True}},
    )
    assert status == 400
    assert body["code"] == "invalid_spec"


def test_cli_port_zero_prints_bound_address_before_serving():
    """``repro serve --port 0`` binds an ephemeral port and prints the
    actual host:port on stdout before the serve loop — the contract the
    cluster's worker supervisor (and any port-collision-free test)
    relies on."""
    import os
    import subprocess
    import sys
    import time
    from pathlib import Path

    from repro.api import ServiceClient
    from repro.cluster import parse_ready_line

    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    try:
        address = None
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            assert line, "serve exited before printing its address"
            address = parse_ready_line(line)
            if address is not None:
                break
        assert address is not None, "no parsable ready line"
        host, port = address
        assert port != 0, "the printed port must be the bound one"
        client = ServiceClient(host, port)
        try:
            assert client.health()["status"] == "ok"
            status, body = client.request(envelope("stats"))
            assert (status, body["type"]) == (200, "stats_result")
        finally:
            client.close()
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_error_contract_over_http(client):
    base = f"/v{API_VERSION}"

    status, out = post(client, base, envelope("resolve"))
    assert status == 400
    assert (out["type"], out["code"]) == ("error", "malformed_payload")

    status, out = post(
        client, base, {"api_version": 99, "type": "stats"}
    )
    assert status == 400
    assert out["code"] == "unsupported_version"

    status, out = post(
        client, base, envelope("retry_deferred", session_id="sess-ghost")
    )
    assert status == 404
    assert out["code"] == "unknown_session"

    status, out = post(
        client,
        base,
        envelope(
            "plan",
            ensemble={"fingerprint": "0" * 64},
            spec={"availability": 0.5},
            requests=[],
        ),
    )
    assert status == 404
    assert out["code"] == "unknown_ensemble"

    client.request("POST", base, "this is not json")
    response = client.getresponse()
    assert response.status == 400
    assert json.loads(response.read())["code"] == "malformed_payload"

    # Missing resource is 404 for POST and GET alike.
    client.request("POST", "/elsewhere", "{}")
    response = client.getresponse()
    assert response.status == 404
    assert json.loads(response.read())["code"] == "not_found"
