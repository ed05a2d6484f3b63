"""Bench: the service API seam — dispatch overhead, serve-mode req/s and
serve start-up.

Four pins, recorded to ``BENCH_service.json`` next to this file so the
perf trajectory is tracked across commits:

* ``test_bench_dispatch_overhead`` resolves the same batch sequence
  through a bare ``RecommendationEngine`` and through typed
  ``EngineService.handle`` envelopes (fresh caches on both sides,
  reports asserted identical) and pins in-process dispatch at
  <= 1.2x the direct path — the service seam must stay a seam, not a
  tax.
* ``test_bench_serve_throughput`` stands up the stdlib HTTP server on
  an ephemeral port, streams ``submit_batch`` envelopes at it (decisions
  asserted identical to a directly driven session first), and reports
  serve-mode requests/s and arrivals/s with a conservative CI-safe
  floor.
* ``test_bench_concurrent_serve`` measures the concurrent serve path:
  a serial-lock baseline server reproducing the pre-concurrency design
  (one global service lock, Nagle left on) versus the threaded,
  coalescing, TCP_NODELAY server at 1/4/16 keep-alive clients.  The
  pin: best threaded+coalesced throughput >= 5x the baseline, with the
  whole sweep recorded.
* ``test_bench_serve_startup`` launches ``python -m repro serve --port 0``
  and times it from process start to the ready line, which is also what
  every cluster worker restart costs.  The pins: the median ready time
  <= 3x the median launch of a bare ``python -c "import numpy"`` on the
  same host (the ratio cancels the host's speed), and peak RSS (VmHWM)
  at the ready line <= 64 MB.  Both hold only while serving imports
  neither scipy nor the experiment runners.  Linux only (``/proc``).
* ``test_bench_serve_contention`` launches ``repro serve`` the same way
  and reads the server's CPU per op from ``/proc`` over fresh resolve
  envelopes, sent by one keep-alive client and then by two, in
  alternating rounds.  The pin: the median over the rounds of
  two-client over one-client CPU per op <= 1.10x.  A second client that
  arrives while the first is served must not make every request pay
  for threads trading the interpreter lock.  Linux only (``/proc``).
"""

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from bench_recording import record

from repro.api import (
    EngineService,
    EngineSpec,
    EnsembleRef,
    ResolveRequest,
    ServiceClient,
    encode,
    make_server,
)
from repro.api.http import HTTP_STATUS, ApiRequestHandler, _framing
from repro.api.wire import API_VERSION, report_from_dict, stream_decision_from_dict
from repro.cluster import parse_ready_line
from repro.engine import RecommendationEngine
from repro.utils.rng import spawn_rngs
from repro.workloads.generators import generate_requests, generate_strategy_ensemble

N_STRATEGIES = 100
BATCH = 20
N_BATCHES = 30
AVAILABILITY = 0.6
AGGREGATION = "max"

DISPATCH_CEILING = 1.2
SERVE_FLOOR_RPS = 10.0

# Concurrent sweep: resolves per client, requests per resolve, client
# counts, and the speedup the threaded path must hold over the
# serial-lock baseline.
N_RESOLVES = 30
RESOLVE_BATCH = 10
CLIENT_COUNTS = (1, 4, 16)
CONCURRENT_SPEEDUP_FLOOR = 5.0

# Start-up: timed launches per side (after one untimed warm-up each),
# and the ceilings on ready time over a bare numpy launch and on RSS.
STARTUP_LAUNCHES = 5
READY_OVER_NUMPY_CEILING = 3.0
RSS_CEILING_MB = 64.0
SRC_DIR = Path(__file__).resolve().parents[1] / "src"

# Contention: ops per phase (split over the phase's clients), rounds of
# one-client and two-client phases, and the ceiling on their CPU ratio.
CONTENTION_OPS = 600
CONTENTION_ROUNDS = 3
TWO_OVER_ONE_CEILING = 1.10

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_service.json"


def _workload(seed: int = 47):
    rng_s, rng_r = spawn_rngs(seed, 2)
    ensemble = generate_strategy_ensemble(N_STRATEGIES, "uniform", rng_s)
    batches = [
        generate_requests(BATCH, k=3, seed=rng_r, prefix=f"b{i}-")
        for i in range(N_BATCHES)
    ]
    return ensemble, batches


def _spec() -> EngineSpec:
    return EngineSpec(availability=AVAILABILITY, aggregation=AGGREGATION)


def _direct_vs_service() -> tuple[float, float]:
    ensemble, batches = _workload()

    engine = RecommendationEngine(ensemble, **_spec().engine_kwargs())
    start = time.perf_counter()
    direct = [engine.resolve(batch) for batch in batches]
    direct_s = time.perf_counter() - start

    service = EngineService()
    ref = EnsembleRef.of(ensemble)
    spec = _spec()
    start = time.perf_counter()
    served = [
        service.handle(
            ResolveRequest(ensemble=ref, requests=tuple(batch), spec=spec)
        ).report
        for batch in batches
    ]
    service_s = time.perf_counter() - start

    assert served == direct, "service dispatch drifted from the engine"
    return direct_s, service_s


def test_bench_dispatch_overhead(benchmark):
    direct_s, service_s = benchmark.pedantic(
        _direct_vs_service, rounds=1, iterations=1
    )
    overhead = service_s / max(direct_s, 1e-9)
    info = {
        "n_strategies": N_STRATEGIES,
        "batches": N_BATCHES,
        "batch_size": BATCH,
        "direct_s": round(direct_s, 4),
        "service_s": round(service_s, 4),
        "overhead_x": round(overhead, 3),
        "ceiling_x": DISPATCH_CEILING,
    }
    benchmark.extra_info.update(info)
    record(RESULTS_PATH, "dispatch_overhead", info)
    assert overhead <= DISPATCH_CEILING, (
        f"EngineService dispatch ({service_s:.3f}s) should cost <= "
        f"{DISPATCH_CEILING}x direct engine calls ({direct_s:.3f}s), "
        f"got {overhead:.2f}x"
    )


def _serve_throughput() -> dict:
    ensemble, batches = _workload(seed=53)
    spec = _spec()

    # Reference decisions: one directly driven session over the same bursts.
    session = RecommendationEngine(ensemble, **spec.engine_kwargs()).open_session()
    expected = [
        [d.comparison_key() for d in session.submit_many(batch)]
        for batch in batches
    ]

    server = make_server(EngineService())
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(host, port)
        ensemble_wire = encode(EnsembleRef.of(ensemble))
        spec_wire = encode(spec)

        def submit(batch, session_id=None):
            payload = {
                "api_version": API_VERSION,
                "type": "submit_batch",
                "requests": [
                    {
                        "request_id": r.request_id,
                        "params": {
                            "quality": r.quality,
                            "cost": r.cost,
                            "latency": r.latency,
                        },
                        "k": r.k,
                    }
                    for r in batch
                ],
            }
            if session_id is None:
                payload["ensemble"] = ensemble_wire
                payload["spec"] = spec_wire
            else:
                payload["session_id"] = session_id
            return client.post(payload)

        start = time.perf_counter()
        first = submit(batches[0])
        session_id = first["session_id"]
        answers = [first]
        for batch in batches[1:]:
            answers.append(submit(batch, session_id))
        elapsed = time.perf_counter() - start

        served = [
            [stream_decision_from_dict(d).comparison_key() for d in a["decisions"]]
            for a in answers
        ]
        assert served == expected, "served decisions drifted from the session"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    return {
        "requests": N_BATCHES,
        "arrivals": N_BATCHES * BATCH,
        "elapsed_s": round(elapsed, 4),
        "req_per_s": round(N_BATCHES / max(elapsed, 1e-9), 1),
        "arrivals_per_s": round(N_BATCHES * BATCH / max(elapsed, 1e-9), 1),
        "floor_req_per_s": SERVE_FLOOR_RPS,
    }


def test_bench_serve_throughput(benchmark):
    info = benchmark.pedantic(_serve_throughput, rounds=1, iterations=1)
    benchmark.extra_info.update(info)
    record(RESULTS_PATH, "serve_throughput", info)
    assert info["req_per_s"] >= SERVE_FLOOR_RPS, (
        f"serve mode answered {info['req_per_s']} req/s; the stdlib "
        f"transport should sustain >= {SERVE_FLOOR_RPS} req/s on burst "
        "traffic"
    )


class _SerialLockHandler(ApiRequestHandler):
    """The pre-concurrency transport, reproduced as the bench baseline.

    One global lock serializes every request through the service, and
    Nagle's algorithm stays on — with keep-alive JSON ping-pong the
    Nagle/delayed-ACK interplay stalls each response ~40 ms, which is
    what the old serve path actually shipped.  That stall needs each
    answer to leave in two writes (head, then body), so the baseline
    also keeps the stdlib request cycle: its ``email``-parser header
    read and its two-write answer.
    """

    disable_nagle_algorithm = False
    handle_one_request = BaseHTTPRequestHandler.handle_one_request

    def parse_request(self):
        if not super().parse_request():
            return False
        self._body_length, self._framing_error = _framing(
            self.headers.get("Content-Length"),
            self.headers.get("Transfer-Encoding"),
        )
        return True

    def _send_bytes(self, status, data):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self):  # noqa: N802 — http.server API
        payload, error = self._read_payload()
        if error is not None:
            self._send_json(HTTP_STATUS.get(error.get("code"), 400), error)
            return
        with self.server.service_lock:
            body = self.server.service.handle_dict(payload)
        status = 200
        if body.get("type") == "error":
            status = HTTP_STATUS.get(body.get("code"), 400)
        self._send_json(status, body)


def _baseline_server(service: EngineService) -> ThreadingHTTPServer:
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SerialLockHandler)
    server.service = service
    server.service_lock = threading.Lock()
    server.verbose = False
    return server


def _resolve_payloads(
    ensemble_wire: dict,
    spec_wire: dict,
    seed: int,
    prefix: str,
    n: int = N_RESOLVES,
):
    """``n`` resolve envelopes, their params drawn from ``seed``."""
    requests = generate_requests(
        RESOLVE_BATCH * n, k=3, seed=seed, prefix=prefix
    )
    payloads = []
    for i in range(n):
        chunk = requests[i * RESOLVE_BATCH : (i + 1) * RESOLVE_BATCH]
        payloads.append(
            {
                "api_version": API_VERSION,
                "type": "resolve",
                "ensemble": ensemble_wire,
                "spec": spec_wire,
                "requests": [
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
                ],
            }
        )
    return payloads


def _drive_clients(host: str, port: int, n_clients: int, ensemble_wire, spec_wire):
    """``n_clients`` keep-alive clients, each its own payload sequence."""
    barrier = threading.Barrier(n_clients + 1)
    errors: list = []

    def run(client_idx: int):
        client = ServiceClient(host, port)
        payloads = _resolve_payloads(
            ensemble_wire, spec_wire, 900 + client_idx, f"c{client_idx}-"
        )
        try:
            barrier.wait()
            for payload in payloads:
                body = client.post(payload)
                assert body["type"] == "resolve_result", body
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)
        finally:
            client.close()

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=300)
    elapsed = time.perf_counter() - start
    assert not errors, errors
    return n_clients * N_RESOLVES / max(elapsed, 1e-9)


def _concurrent_serve() -> dict:
    ensemble = generate_strategy_ensemble(N_STRATEGIES, "uniform", 61)
    spec = _spec()
    ensemble_wire = encode(EnsembleRef.of(ensemble))
    spec_wire = encode(spec)

    # Decision check first: one served resolve == the direct engine.
    check_server = make_server(EngineService())
    check_thread = threading.Thread(
        target=check_server.serve_forever, daemon=True
    )
    check_thread.start()
    try:
        host, port = check_server.server_address
        client = ServiceClient(host, port)
        payload = _resolve_payloads(ensemble_wire, spec_wire, 900, "c0-")[0]
        body = client.post(payload)
        client.close()
        direct = RecommendationEngine(ensemble, **spec.engine_kwargs())
        chunk = generate_requests(
            RESOLVE_BATCH * N_RESOLVES, k=3, seed=900, prefix="c0-"
        )[:RESOLVE_BATCH]
        assert report_from_dict(body["report"]) == direct.resolve(chunk), (
            "coalesced serve drifted from the direct engine"
        )
    finally:
        check_server.shutdown()
        check_server.server_close()
        check_thread.join(timeout=5)

    # Baseline: serial lock, Nagle on, one keep-alive client.
    baseline = _baseline_server(EngineService())
    baseline_thread = threading.Thread(
        target=baseline.serve_forever, daemon=True
    )
    baseline_thread.start()
    try:
        host, port = baseline.server_address
        baseline_rps = _drive_clients(host, port, 1, ensemble_wire, spec_wire)
    finally:
        baseline.shutdown()
        baseline.server_close()
        baseline_thread.join(timeout=5)

    # Sweep: threaded + coalescing server at 1/4/16 keep-alive clients.
    sweep = []
    coalescer_stats = None
    for n_clients in CLIENT_COUNTS:
        service = EngineService()
        server = make_server(service, threads=max(16, n_clients))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address
            rps = _drive_clients(host, port, n_clients, ensemble_wire, spec_wire)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        sweep.append(
            {
                "clients": n_clients,
                "req_per_s": round(rps, 1),
                "speedup_x": round(rps / max(baseline_rps, 1e-9), 2),
            }
        )
        if n_clients == max(CLIENT_COUNTS):
            coalescer_stats = service.coalescer.occupancy()

    best = max(point["req_per_s"] for point in sweep)
    return {
        "resolves_per_client": N_RESOLVES,
        "requests_per_resolve": RESOLVE_BATCH,
        "baseline_req_per_s": round(baseline_rps, 1),
        "sweep": sweep,
        "best_req_per_s": best,
        "best_speedup_x": round(best / max(baseline_rps, 1e-9), 2),
        "speedup_floor_x": CONCURRENT_SPEEDUP_FLOOR,
        "coalescer": coalescer_stats,
    }


def test_bench_concurrent_serve(benchmark):
    info = benchmark.pedantic(_concurrent_serve, rounds=1, iterations=1)
    benchmark.extra_info.update(info)
    record(RESULTS_PATH, "concurrent_serve", info)
    assert info["best_speedup_x"] >= CONCURRENT_SPEEDUP_FLOOR, (
        f"threaded keep-alive serve reached {info['best_req_per_s']} req/s "
        f"({info['best_speedup_x']}x the serial-lock baseline "
        f"{info['baseline_req_per_s']} req/s); the concurrent path must "
        f"hold >= {CONCURRENT_SPEEDUP_FLOOR}x"
    )
    # The coalescer must have actually merged cross-client work at 16
    # clients — otherwise the sweep measured the wrong code path.
    assert info["coalescer"] is not None
    assert info["coalescer"]["coalesced"] > 0, info["coalescer"]


def _python(*args: str) -> subprocess.Popen:
    """A fresh interpreter importing this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC_DIR), env.get("PYTHONPATH")))
    )
    return subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )


def _numpy_launch_s() -> float:
    start = time.perf_counter()
    with _python("-c", "import numpy") as proc:
        proc.wait(timeout=60)
    assert proc.returncode == 0, "python -c 'import numpy' failed"
    return time.perf_counter() - start


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise AssertionError(f"no VmHWM in /proc/{pid}/status")


def _serve_ready() -> "tuple[float, float]":
    """Seconds from launch to the ready line, and peak RSS (MB) there."""
    start = time.perf_counter()
    with _python("-m", "repro", "serve", "--port", "0") as proc:
        try:
            line = proc.stdout.readline()
            ready_s = time.perf_counter() - start
            assert parse_ready_line(line) is not None, (
                f"repro serve printed no ready line: {line!r}"
            )
            rss_mb = _vm_hwm_mb(proc.pid)
        finally:
            proc.terminate()
    return ready_s, rss_mb


def _serve_startup() -> dict:
    # One untimed launch of each warms the bytecode and page caches.
    _numpy_launch_s()
    _serve_ready()
    numpy_s, ready_s, rss_mb = [], [], []
    for _ in range(STARTUP_LAUNCHES):
        numpy_s.append(_numpy_launch_s())
        ready, rss = _serve_ready()
        ready_s.append(ready)
        rss_mb.append(rss)
    ready_median = statistics.median(ready_s)
    numpy_median = statistics.median(numpy_s)
    return {
        "launches": STARTUP_LAUNCHES,
        "ready_s": round(ready_median, 3),
        "numpy_s": round(numpy_median, 3),
        "ready_over_numpy_x": round(ready_median / numpy_median, 2),
        "ready_over_numpy_ceiling_x": READY_OVER_NUMPY_CEILING,
        "rss_mb": round(max(rss_mb), 1),
        "rss_ceiling_mb": RSS_CEILING_MB,
    }


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads VmHWM from /proc"
)
def test_bench_serve_startup(benchmark):
    info = benchmark.pedantic(_serve_startup, rounds=1, iterations=1)
    benchmark.extra_info.update(info)
    record(RESULTS_PATH, "serve_startup", info)
    assert info["ready_over_numpy_x"] <= READY_OVER_NUMPY_CEILING, (
        f"repro serve took {info['ready_s']}s to its ready line, "
        f"{info['ready_over_numpy_x']}x a bare numpy launch "
        f"({info['numpy_s']}s); serving must stay <= "
        f"{READY_OVER_NUMPY_CEILING}x"
    )
    assert info["rss_mb"] <= RSS_CEILING_MB, (
        f"repro serve peaked at {info['rss_mb']} MB by its ready line; "
        f"serving must stay <= {RSS_CEILING_MB} MB"
    )


def _server_cpu_ns(pid: int) -> int:
    """CPU time of every live thread of ``pid``, in nanoseconds."""
    total = 0
    for path in Path(f"/proc/{pid}/task").glob("*/schedstat"):
        try:
            total += int(path.read_text().split()[0])
        except FileNotFoundError:
            pass  # the thread ended meanwhile
    return total


def _cpu_per_op_us(pid, address, payloads, n_clients: int) -> float:
    """Server CPU per op while ``n_clients`` keep-alive clients send
    ``payloads`` between them, each waiting for its answer."""
    clients = [ServiceClient(*address) for _ in range(n_clients)]
    shares = [payloads[i::n_clients] for i in range(n_clients)]
    errors: list = []

    def run(client, share):
        try:
            for data in share:
                status, body = client.request_raw(data, f"/v{API_VERSION}")
                assert status == 200, body[:200]
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=pair)
        for pair in zip(clients, shares)
    ]
    try:
        before = _server_cpu_ns(pid)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        after = _server_cpu_ns(pid)
    finally:
        for client in clients:
            client.close()
    assert not errors, errors
    assert not any(thread.is_alive() for thread in threads)
    return (after - before) / len(payloads) / 1e3


def _serve_contention() -> dict:
    ensemble = generate_strategy_ensemble(N_STRATEGIES, "uniform", 67)
    ref = EnsembleRef.of(ensemble)
    by_fingerprint = encode(EnsembleRef.by_fingerprint(ref.fingerprint))
    spec_wire = encode(_spec())
    seeds = iter(range(1000, 2000))

    def fresh(n: int, ensemble_wire) -> "list[bytes]":
        seed = next(seeds)
        payloads = _resolve_payloads(
            ensemble_wire, spec_wire, seed, f"s{seed}-", n
        )
        return [json.dumps(payload).encode() for payload in payloads]

    one, two = [], []
    with _python("-m", "repro", "serve", "--port", "0") as proc:
        try:
            address = parse_ready_line(proc.stdout.readline())
            assert address is not None, "repro serve printed no ready line"
            # Upload the ensemble inline once, then warm up both paths.
            [upload] = fresh(1, encode(ref))
            with ServiceClient(*address) as client:
                assert client.request_raw(upload, f"/v{API_VERSION}")[0] == 200
            for n_clients in (1, 2):
                warm = fresh(100, by_fingerprint)
                _cpu_per_op_us(proc.pid, address, warm, n_clients)
            for round_index in range(CONTENTION_ROUNDS):
                order = (1, 2) if round_index % 2 == 0 else (2, 1)
                for n_clients in order:
                    payloads = fresh(CONTENTION_OPS, by_fingerprint)
                    cpu_us = _cpu_per_op_us(
                        proc.pid, address, payloads, n_clients
                    )
                    (one if n_clients == 1 else two).append(cpu_us)
        finally:
            proc.terminate()
    ratios = [b / a for a, b in zip(one, two)]
    return {
        "rounds": CONTENTION_ROUNDS,
        "ops_per_phase": CONTENTION_OPS,
        "one_client_cpu_us_per_op": round(statistics.median(one), 1),
        "two_client_cpu_us_per_op": round(statistics.median(two), 1),
        "two_over_one_x": round(statistics.median(ratios), 3),
        "two_over_one_ceiling_x": TWO_OVER_ONE_CEILING,
    }


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/<pid>/task"
)
def test_bench_serve_contention(benchmark):
    info = benchmark.pedantic(_serve_contention, rounds=1, iterations=1)
    benchmark.extra_info.update(info)
    record(RESULTS_PATH, "serve_contention", info)
    assert info["two_over_one_x"] <= TWO_OVER_ONE_CEILING, (
        f"two keep-alive clients cost the server "
        f"{info['two_client_cpu_us_per_op']} us of CPU per op against "
        f"{info['one_client_cpu_us_per_op']} us with one "
        f"({info['two_over_one_x']}x); a second client must stay <= "
        f"{TWO_OVER_ONE_CEILING}x"
    )
