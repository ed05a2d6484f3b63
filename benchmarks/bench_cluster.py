"""Bench: horizontal scale-out — req/s vs. worker count behind the router.

The cluster exists because one Python process is GIL-bound on the NumPy
planning/ADPaR kernels (the PR 6 sweep went flat at ~330 req/s no matter
the client count).  This bench pins that the sharded cluster actually
buys throughput: 16 keep-alive clients drive a CPU-bound mixed
``resolve``/``alternatives`` workload over 16 distinct ensembles
(chosen so the hash ring spreads them 4-per-shard at 4 workers) against
clusters of 1, 2 and 4 workers — *router in front in every case*, so
the measured ratio is sharding, not the proxy hop.

Results land in ``BENCH_cluster.json``.  The >= 2.5x four-vs-one pin is
asserted only when the machine has enough CPUs to physically host the
cluster (router + 4 workers); on smaller CI boxes every worker shares
one core, 4 processes cannot beat 1, and the sweep is recorded without
the assertion — same CI-safe-floor idiom as the other benches.

Decision integrity is spot-checked first: one routed resolve must equal
the direct engine answer.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

from bench_recording import record

from repro.api import API_VERSION, EngineSpec, EnsembleRef, ServiceClient, encode
from repro.api.wire import report_from_dict
from repro.cluster import HashRing, RouterService, WorkerSupervisor, make_router_server
from repro.engine import RecommendationEngine
from repro.workloads.generators import generate_requests, generate_strategy_ensemble

N_STRATEGIES = 400
RESOLVE_BATCH = 12
N_ENSEMBLES = 16
N_CLIENTS = 16
OPS_PER_CLIENT = 24
WORKER_COUNTS = (1, 2, 4)
CLUSTER_SPEEDUP_FLOOR = 2.5
#: Router + 4 workers need at least this many CPUs before "4 processes
#: beat 1" is a physical possibility worth asserting.
MIN_CPUS_FOR_PIN = 5

AVAILABILITY = 0.6
ROUTER_THREADS = N_CLIENTS + 4
WORKER_THREADS = ROUTER_THREADS + 8

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_cluster.json"


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _spec() -> EngineSpec:
    return EngineSpec(availability=AVAILABILITY, aggregation="max")


def _balanced_ensembles():
    """16 distinct ensembles whose fingerprints spread 4-per-shard.

    Deterministic seed search against the same ring the 4-worker router
    will build — so the sweep measures sharding capacity rather than
    hash luck on a small key sample.
    """
    ring = HashRing(range(max(WORKER_COUNTS)), vnodes=64)
    per_slot = N_ENSEMBLES // max(WORKER_COUNTS)
    chosen: "list[EnsembleRef]" = []
    counts = {slot: 0 for slot in ring.nodes()}
    seed = 0
    while len(chosen) < N_ENSEMBLES:
        seed += 1
        ref = EnsembleRef.of(
            generate_strategy_ensemble(N_STRATEGIES, "uniform", seed)
        )
        slot = ring.place(ref.fingerprint)
        if counts[slot] < per_slot:
            counts[slot] += 1
            chosen.append(ref)
    return chosen


def _client_payloads(client_idx: int, fingerprint: str):
    """One client's op sequence: distinct params per op (cache misses
    keep the work CPU-bound), alternating resolve/alternatives."""
    spec_wire = encode(_spec())
    requests = generate_requests(
        RESOLVE_BATCH * OPS_PER_CLIENT,
        k=3,
        seed=7000 + client_idx,
        prefix=f"c{client_idx}-",
    )
    payloads = []
    for op in range(OPS_PER_CLIENT):
        chunk = requests[op * RESOLVE_BATCH : (op + 1) * RESOLVE_BATCH]
        wire_requests = [
            {
                "request_id": r.request_id,
                "params": {
                    "quality": r.quality,
                    "cost": r.cost,
                    "latency": r.latency,
                },
                "k": r.k,
            }
            for r in chunk
        ]
        if op % 2 == 0:
            payloads.append(
                {
                    "api_version": API_VERSION,
                    "type": "resolve",
                    "ensemble": {"fingerprint": fingerprint},
                    "spec": spec_wire,
                    "requests": wire_requests,
                }
            )
        else:
            payloads.append(
                {
                    "api_version": API_VERSION,
                    "type": "alternatives",
                    "ensemble": {"fingerprint": fingerprint},
                    "spec": spec_wire,
                    "requests": wire_requests,
                    "k": 3,
                }
            )
    return payloads


def _upload(host: str, port: int, refs) -> None:
    """Register every ensemble through the router (an empty plan both
    registers on the owning shard and replicates to the rest)."""
    client = ServiceClient(host, port)
    try:
        for ref in refs:
            body = client.post(
                {
                    "api_version": API_VERSION,
                    "type": "plan",
                    "ensemble": encode(ref),
                    "requests": [],
                }
            )
            assert body["type"] == "plan_result", body
    finally:
        client.close()


def _drive(host: str, port: int, refs) -> float:
    """16 concurrent keep-alive clients; returns aggregate req/s."""
    barrier = threading.Barrier(N_CLIENTS + 1)
    errors: list = []

    def run(client_idx: int):
        client = ServiceClient(host, port)
        fingerprint = refs[client_idx % len(refs)].fingerprint
        payloads = _client_payloads(client_idx, fingerprint)
        try:
            barrier.wait()
            for payload in payloads:
                body = client.post(payload)
                assert body["type"] in (
                    "resolve_result",
                    "alternatives_result",
                ), body
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)
        finally:
            client.close()

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=600)
    elapsed = time.perf_counter() - start
    assert not errors, errors[:3]
    return N_CLIENTS * OPS_PER_CLIENT / max(elapsed, 1e-9)


def _cluster_point(n_workers: int, refs, check_decisions: bool) -> float:
    supervisor = WorkerSupervisor(
        n_workers,
        worker_args=(
            "--availability", str(AVAILABILITY),
            "--threads", str(WORKER_THREADS),
        ),
    )
    supervisor.start()
    try:
        router = RouterService(supervisor)
        server = make_router_server(router, threads=ROUTER_THREADS)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address
            _upload(host, port, refs)
            if check_decisions:
                client = ServiceClient(host, port)
                try:
                    payload = _client_payloads(0, refs[0].fingerprint)[0]
                    body = client.post(payload)
                finally:
                    client.close()
                direct = RecommendationEngine(
                    refs[0].ensemble, **_spec().engine_kwargs()
                )
                chunk = generate_requests(
                    RESOLVE_BATCH * OPS_PER_CLIENT, k=3, seed=7000, prefix="c0-"
                )[:RESOLVE_BATCH]
                assert report_from_dict(body["report"]) == direct.resolve(
                    chunk
                ), "routed resolve drifted from the direct engine"
            return _drive(host, port, refs)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            router.close()
    finally:
        supervisor.stop()


def _scale_out() -> dict:
    refs = _balanced_ensembles()
    sweep = []
    for n_workers in WORKER_COUNTS:
        rps = _cluster_point(n_workers, refs, check_decisions=(n_workers == 1))
        sweep.append({"workers": n_workers, "req_per_s": round(rps, 1)})
    single = sweep[0]["req_per_s"]
    best = sweep[-1]["req_per_s"]
    cpus = _available_cpus()
    return {
        "n_strategies": N_STRATEGIES,
        "n_ensembles": N_ENSEMBLES,
        "clients": N_CLIENTS,
        "ops_per_client": OPS_PER_CLIENT,
        "requests_per_op": RESOLVE_BATCH,
        "sweep": sweep,
        "scale_4v1_x": round(best / max(single, 1e-9), 2),
        "speedup_floor_x": CLUSTER_SPEEDUP_FLOOR,
        "cpus": cpus,
        "pin_enforced": cpus >= MIN_CPUS_FOR_PIN,
    }


def test_bench_cluster_scale_out(benchmark):
    info = benchmark.pedantic(_scale_out, rounds=1, iterations=1)
    benchmark.extra_info.update(info)
    record(RESULTS_PATH, "cluster_scale_out", info)
    assert all(point["req_per_s"] > 0 for point in info["sweep"])
    if info["pin_enforced"]:
        assert info["scale_4v1_x"] >= CLUSTER_SPEEDUP_FLOOR, (
            f"4 workers reached {info['scale_4v1_x']}x over 1 worker "
            f"(sweep: {info['sweep']}); the sharded cluster must hold "
            f">= {CLUSTER_SPEEDUP_FLOOR}x with the router in front of "
            "both"
        )
