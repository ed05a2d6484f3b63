"""Bench: the declarative workload platform — spec materialization + simulate.

Two pins, recorded to ``BENCH_workloads.json`` next to this file so the
perf trajectory is tracked across commits:

* ``test_bench_spec_materialization`` measures ``ScenarioSpec.build``
  throughput (strategies/s over a 10k-strategy family) and pins the
  declarative path at <= 1.2x the raw generator calls in the median of
  paired per-round ratios — the spec layer must stay a description, not
  a tax.
* ``test_bench_simulate_throughput`` drives repeated ``simulate``
  envelopes through one ``EngineService`` (in-process and over the
  stdlib HTTP server) and reports requests/s; the server-side workload
  cache must make repeat simulations of one family measurably cheaper
  than cold ones.
"""

import json
import statistics
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

from bench_recording import paired_rounds, record

from repro.api import EngineService, SimulateRequest, make_server
from repro.api.wire import API_VERSION
from repro.utils.rng import spawn_rngs
from repro.workloads import default_scenario_registry
from repro.workloads.generators import generate_requests, generate_strategy_ensemble

MATERIALIZE_N = 10_000
MATERIALIZE_ROUNDS = 5
MATERIALIZE_CEILING = 1.2

SIM_ROUNDS = 40
SERVE_SIM_FLOOR_RPS = 5.0
WARM_SPEEDUP_FLOOR = 1.5

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_workloads.json"


def _materialization() -> "list[tuple[float, float]]":
    """``(spec_s, raw_s)`` per round, after one untimed check that both
    paths build the same workload."""
    spec = default_scenario_registry().create(
        "paper-batch", n_strategies=MATERIALIZE_N
    )

    def raw():
        rng_s, rng_r = spawn_rngs(spec.seed, 2)
        return (
            generate_strategy_ensemble(MATERIALIZE_N, "uniform", rng_s),
            generate_requests(spec.requests.m_requests, spec.requests.k, rng_r),
        )

    ensemble, requests = spec.build()
    raw_ensemble, raw_requests = raw()
    assert (ensemble.alpha == raw_ensemble.alpha).all()
    assert [r.params.as_tuple() for r in requests] == [
        r.params.as_tuple() for r in raw_requests
    ]
    return paired_rounds(spec.build, raw, MATERIALIZE_ROUNDS)


def test_bench_spec_materialization(benchmark):
    rounds = benchmark.pedantic(_materialization, rounds=1, iterations=1)
    # Each round builds both ways back to back, so its ratio is taken
    # within one phase of the host; the median discards a slow round.
    ratios = [spec_s / max(raw_s, 1e-9) for spec_s, raw_s in rounds]
    overhead = statistics.median(ratios)
    spec_s = sum(spec_s for spec_s, _ in rounds)
    raw_s = sum(raw_s for _, raw_s in rounds)
    info = {
        "n_strategies": MATERIALIZE_N,
        "rounds": MATERIALIZE_ROUNDS,
        "spec_s": round(spec_s, 4),
        "raw_s": round(raw_s, 4),
        "round_overheads_x": [round(ratio, 3) for ratio in ratios],
        "overhead_x": round(overhead, 3),
        "ceiling_x": MATERIALIZE_CEILING,
        "strategies_per_s": round(
            MATERIALIZE_N * MATERIALIZE_ROUNDS / max(spec_s, 1e-9)
        ),
    }
    benchmark.extra_info.update(info)
    record(RESULTS_PATH, "spec_materialization", info)
    assert overhead <= MATERIALIZE_CEILING, (
        f"ScenarioSpec.build ({spec_s:.3f}s) should cost <= "
        f"{MATERIALIZE_CEILING}x the raw generators ({raw_s:.3f}s) in the "
        f"median of {MATERIALIZE_ROUNDS} rounds, got {overhead:.2f}x "
        f"(per round: {info['round_overheads_x']})"
    )


def test_bench_scenario_catalog_materialization(benchmark):
    """Build one shrunk instance of every registered family.

    The loop reads the registry, so a new family is measured with no
    edit here.  Materialization is shrunk per family: this pins
    per-family build cost, not full-scale workloads.  A trace-kind
    family has no generated workload (its workload is a recorded
    journal), so it is skipped.
    """
    registry = default_scenario_registry()

    def build_all() -> dict:
        built = {}
        for name in registry.names():
            if registry.get(name).kind == "trace":
                continue
            shrunk = registry.create(
                name, n_strategies=50, m_requests=8
            )
            ensemble, _workload = shrunk.build()
            built[name] = len(ensemble)
        return built

    built = benchmark.pedantic(build_all, rounds=3, iterations=1)
    assert built
    assert all(n == 50 for n in built.values())
    benchmark.extra_info["families"] = len(built)


def _simulate_inprocess() -> dict:
    service = EngineService()
    request = SimulateRequest(
        name="paper-batch-small", overrides={"m_requests": 10}
    )

    start = time.perf_counter()
    cold = service.handle(request)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(SIM_ROUNDS):
        warm = service.handle(request)
    warm_s = (time.perf_counter() - start) / SIM_ROUNDS

    assert warm.report.fingerprint == cold.report.fingerprint
    assert service.stats().workloads == 1  # one cached materialization
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup_x": cold_s / max(warm_s, 1e-9),
        "inprocess_rps": 1.0 / max(warm_s, 1e-9),
    }


def _simulate_over_http() -> dict:
    server = make_server(EngineService())
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        conn = HTTPConnection(host, port, timeout=60)
        payload = json.dumps(
            {"name": "paper-batch-small", "overrides": {"m_requests": 10}}
        )
        start = time.perf_counter()
        for _ in range(SIM_ROUNDS):
            conn.request("POST", f"/v{API_VERSION}/simulate", payload)
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 200, body
        elapsed = time.perf_counter() - start
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return {"serve_rps": SIM_ROUNDS / max(elapsed, 1e-9)}


def _simulate_throughput() -> dict:
    inproc = _simulate_inprocess()
    http = _simulate_over_http()
    return {
        "rounds": SIM_ROUNDS,
        "cold_s": round(inproc["cold_s"], 4),
        "warm_s": round(inproc["warm_s"], 5),
        "warm_speedup_x": round(inproc["warm_speedup_x"], 2),
        "inprocess_rps": round(inproc["inprocess_rps"], 1),
        "serve_rps": round(http["serve_rps"], 1),
        "floor_serve_rps": SERVE_SIM_FLOOR_RPS,
        "floor_warm_speedup_x": WARM_SPEEDUP_FLOOR,
    }


def test_bench_simulate_throughput(benchmark):
    info = benchmark.pedantic(_simulate_throughput, rounds=1, iterations=1)
    benchmark.extra_info.update(info)
    record(RESULTS_PATH, "simulate_throughput", info)
    assert info["serve_rps"] >= SERVE_SIM_FLOOR_RPS, (
        f"serve-mode simulate answered {info['serve_rps']} req/s; should "
        f"sustain >= {SERVE_SIM_FLOOR_RPS}"
    )
    assert info["warm_speedup_x"] >= WARM_SPEEDUP_FLOOR, (
        "the workload cache should make repeat simulations >= "
        f"{WARM_SPEEDUP_FLOOR}x faster than the cold build, got "
        f"{info['warm_speedup_x']}x"
    )
