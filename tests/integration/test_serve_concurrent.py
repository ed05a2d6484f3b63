"""Concurrent serve vs. serial replay: the AWDIT-style equivalence gate.

M client threads drive mixed traffic (``submit_batch`` / ``complete`` /
``retry_deferred`` / ``resolve`` / ``alternatives`` / ``stats``) at one
threaded, coalescing server over keep-alive connections.  Each client's
trace is deterministic given its seed, so the serial specification is
simply the same per-client trace replayed one call at a time against a
fresh, lock-stepped :class:`EngineService`, whose coalescer then flushes
every call alone.  The gate:
every client's observed decisions — admission statuses, reservations,
ADPaR alternatives, released workforce, even error envelopes — must be
*identical* to its serial replay, no matter how the threads interleaved.
Sessions are per-client ledgers and stateless calls are pure, so any
divergence means the fine-grained locking or the coalescer changed a
decision.

The same gate also runs router-mediated against a 3-worker cluster
(``repro.cluster``): sharding, session affinity and replication must be
decision-invisible too.
"""

from __future__ import annotations

import itertools
import json
import random
import threading
from http.client import HTTPConnection

import pytest

from repro.api import (
    API_VERSION,
    EngineService,
    EngineSpec,
    EnsembleRef,
    encode,
    make_server,
)
from repro.workloads.generators import generate_strategy_ensemble

AVAILABILITY = 0.7
N_CLIENTS = 6
N_OPS = 14
ENSEMBLE_SEED = 20260808


def shared_ensemble():
    return generate_strategy_ensemble(12, seed=ENSEMBLE_SEED)


def service_spec() -> EngineSpec:
    return EngineSpec(availability=AVAILABILITY)


@pytest.fixture()
def server():
    server = make_server(
        EngineService(default_spec=service_spec()), threads=N_CLIENTS + 2
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def envelope(envelope_type: str, **fields) -> dict:
    return {"api_version": API_VERSION, "type": envelope_type, **fields}


def request_dict(request_id: str, rng: random.Random) -> dict:
    return {
        "request_id": request_id,
        "params": {
            "quality": round(rng.uniform(0.2, 0.95), 3),
            "cost": round(rng.uniform(0.05, 0.9), 3),
            "latency": round(rng.uniform(0.05, 0.9), 3),
        },
        "k": rng.randint(1, 5),
    }


def strip_session(body: dict) -> dict:
    """Decision content modulo the opaque session id (fresh per run)."""
    return {k: v for k, v in body.items() if k != "session_id"}


def run_trace(post, seed: int, prefix: str, ensemble_ref: dict) -> list:
    """One client's deterministic op sequence; returns its canonical log.

    Every rng draw happens in the same order in the concurrent run and
    the serial replay (client state is session-local and deterministic),
    so both runs issue byte-identical payload sequences.
    """
    rng = random.Random(seed)
    counter = itertools.count()
    canonical: list = []
    session_id = None
    admitted: list = []
    spec = encode(service_spec())
    for _ in range(N_OPS):
        op = rng.choice(
            ["submit", "submit", "resolve", "alternatives", "retry",
             "complete", "stats"]
        )
        if op == "submit":
            requests = [
                request_dict(f"{prefix}-{next(counter)}", rng)
                for _ in range(rng.randint(1, 4))
            ]
            payload = envelope("submit_batch", requests=requests)
            if session_id is None:
                payload.update(ensemble=ensemble_ref, spec=spec)
            else:
                payload["session_id"] = session_id
            body = post(payload)
            assert body["type"] == "submit_batch_result", body
            session_id = body["session_id"]
            admitted.extend(
                d["request"]["request_id"]
                for d in body["decisions"]
                if d["status"] == "admitted"
            )
            canonical.append(("submit", strip_session(body)))
        elif op == "resolve":
            requests = [
                request_dict(f"{prefix}-r{next(counter)}", rng)
                for _ in range(rng.randint(1, 3))
            ]
            body = post(
                envelope(
                    "resolve",
                    ensemble=ensemble_ref,
                    spec=spec,
                    requests=requests,
                )
            )
            assert body["type"] == "resolve_result", body
            canonical.append(("resolve", body))
        elif op == "alternatives":
            requests = [request_dict(f"{prefix}-a{next(counter)}", rng)]
            body = post(
                envelope(
                    "alternatives",
                    ensemble=ensemble_ref,
                    spec=spec,
                    requests=requests,
                    k=rng.randint(1, 4),
                )
            )
            # Error envelopes must match the replay too, so record
            # whatever came back rather than asserting success.
            canonical.append(("alternatives", body))
        elif op == "retry":
            if session_id is None:
                continue
            body = post(envelope("retry_deferred", session_id=session_id))
            assert body["type"] == "retry_deferred_result", body
            canonical.append(("retry", strip_session(body)))
        elif op == "complete":
            if not admitted:
                continue
            n_ids = rng.randint(1, min(3, len(admitted)))
            ids = [admitted.pop(0) for _ in range(n_ids)]
            body = post(
                envelope("complete", session_id=session_id, request_ids=ids)
            )
            assert body["type"] == "session_op_result", body
            canonical.append(("complete", strip_session(body)))
        else:  # stats: liveness only — counters legitimately differ
            body = post(envelope("stats"))
            assert body["type"] == "stats_result", body
    return canonical


def test_concurrent_decisions_identical_to_serial_replay(server):
    host, port = server.server_address
    ensemble_ref = encode(EnsembleRef.of(shared_ensemble()))
    barrier = threading.Barrier(N_CLIENTS)
    observed: list = [None] * N_CLIENTS
    errors: list = []

    def client(i):
        conn = HTTPConnection(host, port, timeout=60)

        def post(payload):
            conn.request("POST", f"/v{API_VERSION}", json.dumps(payload))
            response = conn.getresponse()
            return json.loads(response.read())

        try:
            barrier.wait()
            observed[i] = run_trace(
                post, seed=1000 + i, prefix=f"c{i}", ensemble_ref=ensemble_ref
            )
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append((i, exc))
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors

    # The serial specification: each client's trace replayed alone, in
    # order, against a fresh single-threaded service (one call per
    # coalescer flush).
    for i in range(N_CLIENTS):
        serial_service = EngineService(default_spec=service_spec())
        replayed = run_trace(
            serial_service.handle_dict,
            seed=1000 + i,
            prefix=f"c{i}",
            ensemble_ref=ensemble_ref,
        )
        assert observed[i] == replayed, f"client {i} diverged from replay"


def test_cluster_decisions_identical_to_serial_replay():
    """The same gate, router-mediated: 6 keep-alive clients through a
    3-worker cluster must equal serial replay against one fresh
    single-process service.

    This is what licenses the cluster as a drop-in scale-out: sharding,
    session affinity, replication and response re-wrapping may move
    work between processes but must never change a decision.
    """
    from repro.cluster import RouterService, WorkerSupervisor, make_router_server

    supervisor = WorkerSupervisor(
        3, worker_args=("--availability", str(AVAILABILITY), "--threads", "24")
    )
    supervisor.start()
    try:
        router = RouterService(supervisor)
        server = make_router_server(router, threads=N_CLIENTS + 2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address
            ensemble_ref = encode(EnsembleRef.of(shared_ensemble()))
            barrier = threading.Barrier(N_CLIENTS)
            observed: list = [None] * N_CLIENTS
            errors: list = []

            def client(i):
                conn = HTTPConnection(host, port, timeout=60)

                def post(payload):
                    conn.request(
                        "POST", f"/v{API_VERSION}", json.dumps(payload)
                    )
                    return json.loads(conn.getresponse().read())

                try:
                    barrier.wait()
                    observed[i] = run_trace(
                        post,
                        seed=3000 + i,
                        prefix=f"k{i}",
                        ensemble_ref=ensemble_ref,
                    )
                except Exception as exc:  # noqa: BLE001 — surfaced below
                    errors.append((i, exc))
                finally:
                    conn.close()

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(N_CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors, errors

            for i in range(N_CLIENTS):
                serial_service = EngineService(default_spec=service_spec())
                replayed = run_trace(
                    serial_service.handle_dict,
                    seed=3000 + i,
                    prefix=f"k{i}",
                    ensemble_ref=ensemble_ref,
                )
                assert observed[i] == replayed, (
                    f"client {i} diverged through the cluster"
                )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            router.close()
    finally:
        supervisor.stop()


def test_health_answers_while_workers_are_busy(server):
    """GET /v1/health is lock-free: it must answer during heavy traffic."""
    host, port = server.server_address
    ensemble_ref = encode(EnsembleRef.of(shared_ensemble()))
    stop = threading.Event()
    errors: list = []

    def hammer(seed):
        conn = HTTPConnection(host, port, timeout=60)

        def post(payload):
            conn.request("POST", f"/v{API_VERSION}", json.dumps(payload))
            return json.loads(conn.getresponse().read())

        try:
            while not stop.is_set():
                run_trace(
                    post, seed=seed, prefix=f"h{seed}", ensemble_ref=ensemble_ref
                )
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)
        finally:
            conn.close()

    workers = [
        threading.Thread(target=hammer, args=(seed,), daemon=True)
        for seed in (7, 8)
    ]
    for worker in workers:
        worker.start()
    try:
        probe = HTTPConnection(host, port, timeout=10)
        for _ in range(10):
            probe.request("GET", f"/v{API_VERSION}/health")
            response = probe.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        probe.close()
    finally:
        stop.set()
        for worker in workers:
            worker.join(timeout=30)
    assert not errors, errors
