"""Integration tests for the sharded cluster: router, supervisor, failure.

Covers the cluster tentpole end to end with real worker processes:

* routing — inline ensembles replicate to every shard, by-fingerprint
  refs resolve anywhere, session traffic sticks to its opening worker,
  simulate-materialized ensembles stay addressable;
* aggregated ``stats`` — shard sums plus router/shard diagnostics;
* failure — SIGKILLing a worker mid-traffic answers the typed
  ``upstream_unavailable`` envelope (HTTP 503, retryable), the
  supervisor restarts the worker, and its shard serves again;
* graceful shutdown — SIGTERM on a ``repro serve --workers N`` process
  terminates every worker: no orphan processes survive.

Worker processes are slow to spawn (each imports the full stack), so
the read-mostly tests share one module-scoped cluster; the kill test
builds its own.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.api import API_VERSION, EngineSpec, EnsembleRef, ServiceClient, encode
from repro.cluster import (
    RouterService,
    WorkerSupervisor,
    make_router_server,
    parse_ready_line,
)
from repro.workloads.generators import (
    generate_requests,
    generate_strategy_ensemble,
)

N_WORKERS = 2
SPEC = EngineSpec(availability=0.7)
RECOVERY_TIMEOUT_S = 30.0


def envelope(envelope_type: str, **fields) -> dict:
    return {"api_version": API_VERSION, "type": envelope_type, **fields}


def request_dicts(n: int = 5, seed: int = 11, prefix: str = "r"):
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
        for r in generate_requests(n, k=3, seed=seed, prefix=f"{prefix}-")
    ]


@pytest.fixture(scope="module")
def cluster():
    supervisor = WorkerSupervisor(
        N_WORKERS, worker_args=("--availability", "0.7", "--threads", "24")
    )
    supervisor.start()
    router = RouterService(supervisor)
    try:
        yield supervisor, router
    finally:
        router.close()
        supervisor.stop()


def test_inline_upload_replicates_to_every_shard(cluster):
    supervisor, router = cluster
    ensemble = generate_strategy_ensemble(40, "uniform", 3)
    ref = EnsembleRef.of(ensemble)
    requests = request_dicts(seed=21, prefix="rep")

    body = router.handle_dict(
        envelope(
            "resolve",
            ensemble=encode(ref),
            spec=encode(SPEC),
            requests=requests,
        )
    )
    assert body["type"] == "resolve_result"

    # Every worker must now answer the bare fingerprint directly — the
    # replication pushed the ensemble past the owning shard.
    for slot in supervisor.slots():
        host, port = supervisor.address(slot)
        client = ServiceClient(host, port)
        try:
            direct = client.post(
                envelope(
                    "resolve",
                    ensemble={"fingerprint": ref.fingerprint},
                    spec=encode(SPEC),
                    requests=requests,
                )
            )
        finally:
            client.close()
        assert direct == body, f"shard {slot} answered differently"


def test_by_fingerprint_matches_inline_through_router(cluster):
    _supervisor, router = cluster
    ensemble = generate_strategy_ensemble(40, "uniform", 5)
    ref = EnsembleRef.of(ensemble)
    requests = request_dicts(seed=23, prefix="fp")
    inline = router.handle_dict(
        envelope(
            "resolve",
            ensemble=encode(ref),
            spec=encode(SPEC),
            requests=requests,
        )
    )
    by_ref = router.handle_dict(
        envelope(
            "resolve",
            ensemble={"fingerprint": ref.fingerprint},
            spec=encode(SPEC),
            requests=requests,
        )
    )
    assert inline == by_ref


def test_session_traffic_sticks_to_its_worker(cluster):
    _supervisor, router = cluster
    ensemble = generate_strategy_ensemble(40, "uniform", 7)
    opened = router.handle_dict(
        envelope(
            "submit_batch",
            ensemble=encode(EnsembleRef.of(ensemble)),
            spec=encode(SPEC),
            requests=request_dicts(seed=31, prefix="s0"),
        )
    )
    assert opened["type"] == "submit_batch_result"
    session_id = opened["session_id"]
    # The slot rides inside the opaque id — that *is* the affinity state.
    assert session_id.startswith("w")

    follow = router.handle_dict(
        envelope(
            "submit_batch",
            session_id=session_id,
            requests=request_dicts(seed=32, prefix="s1"),
        )
    )
    assert follow["type"] == "submit_batch_result"
    assert follow["session_id"] == session_id

    retry = router.handle_dict(
        envelope("retry_deferred", session_id=session_id)
    )
    assert retry["type"] == "retry_deferred_result"

    closed = router.handle_dict(
        envelope("close_session", session_id=session_id)
    )
    assert closed["type"] == "session_op_result"

    # A foreign session id is rejected at the front door, same typed
    # code the worker itself would use.
    bogus = router.handle_dict(
        envelope("retry_deferred", session_id="sess-not-ours")
    )
    assert (bogus["type"], bogus["code"]) == ("error", "unknown_session")


def test_simulate_materialized_ensemble_stays_addressable(cluster):
    _supervisor, router = cluster
    sim = router.handle_dict(
        envelope("simulate", name="paper-batch-small", overrides={"m_requests": 4})
    )
    assert sim["type"] == "simulate_result"
    fingerprint = sim["report"]["fingerprint"]
    # The ensemble exists only on the worker that materialized it; the
    # router learned that placement from the response.
    resolved = router.handle_dict(
        envelope(
            "resolve",
            ensemble={"fingerprint": fingerprint},
            spec=sim["report"]["scenario"]["engine"],
            requests=request_dicts(seed=41, prefix="sim"),
        )
    )
    assert resolved["type"] == "resolve_result"


def test_stats_aggregates_shards_and_router_counters(cluster):
    supervisor, router = cluster
    ensemble = generate_strategy_ensemble(40, "uniform", 13)
    body = router.handle_dict(
        envelope(
            "resolve",
            ensemble=encode(EnsembleRef.of(ensemble)),
            spec=encode(SPEC),
            requests=request_dicts(seed=31, prefix="st"),
        )
    )
    assert body["type"] == "resolve_result"
    stats = router.handle_dict(envelope("stats"))
    assert stats["type"] == "stats_result"
    assert len(stats["shards"]) == N_WORKERS
    shard_slots = {shard["slot"] for shard in stats["shards"]}
    assert shard_slots == set(supervisor.slots())
    for shard in stats["shards"]:
        assert shard["alive"] is True
        assert shard["stats"]["type"] == "stats_result"
    # Sums really are sums over the per-shard answers.
    assert stats["ensembles"] == sum(
        shard["stats"]["ensembles"] for shard in stats["shards"]
    )
    assert stats["engines"] == sum(
        shard["stats"]["engines"] for shard in stats["shards"]
    )
    assert stats["coalescer"]["calls"] >= 1
    assert stats["coalescer"]["calls"] == sum(
        shard["stats"]["coalescer"]["calls"] for shard in stats["shards"]
    )
    router_counters = stats["router"]
    assert router_counters["workers"] == N_WORKERS
    assert router_counters["forwarded"] > 0
    assert router_counters["affinity_hits"] > 0  # the session test above
    assert router_counters["replicas"] > 0  # the replication test above


def test_router_http_front_door_proxies_end_to_end(cluster):
    _supervisor, router = cluster
    server = make_router_server(router)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address
        client = ServiceClient(host, port)
        try:
            health = client.health()
            assert health["status"] == "ok"
            ensemble = generate_strategy_ensemble(40, "uniform", 9)
            body = client.post(
                envelope(
                    "resolve",
                    ensemble=encode(EnsembleRef.of(ensemble)),
                    spec=encode(SPEC),
                    requests=request_dicts(seed=51, prefix="http"),
                )
            )
            assert body["type"] == "resolve_result"
            stats = client.post(envelope("stats"))
            assert stats["type"] == "stats_result"
            assert "shards" in stats
        finally:
            client.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_close_closes_the_upstream_connections_of_every_thread(cluster):
    """Pool threads outlive their requests, so ``close`` must reach the
    upstream connections each thread opened, not only the caller's."""
    supervisor, _router = cluster
    router = RouterService(supervisor)
    answers = []

    def route():
        answers.append(router.handle_dict(envelope("stats")))

    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        threads = [threading.Thread(target=route) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        router.close()
        del threads
        gc.collect()
    assert [answer["type"] for answer in answers] == ["stats_result"] * 2
    ports = [supervisor.address(slot)[1] for slot in supervisor.slots()]
    unclosed = [
        str(warning.message)
        for warning in caught
        if "unclosed" in str(warning.message)
        and any(f", {port})" in str(warning.message) for port in ports)
    ]
    assert unclosed == []


def test_killed_worker_is_survived():
    """SIGKILL one worker mid-traffic: typed retryable 503 now, restart
    and a serving shard within the recovery window."""
    supervisor = WorkerSupervisor(2, worker_args=("--threads", "24"))
    supervisor.start()
    router = RouterService(supervisor)
    try:
        ensemble = generate_strategy_ensemble(40, "uniform", 13)
        ref = EnsembleRef.of(ensemble)
        requests = request_dicts(seed=61, prefix="kill")
        resolve = envelope(
            "resolve",
            ensemble=encode(ref),
            spec=encode(SPEC),
            requests=requests,
        )
        healthy = router.handle_dict(resolve)
        assert healthy["type"] == "resolve_result"

        owner = router.ring.place(ref.fingerprint)
        victim_pid = dict(
            zip(supervisor.slots(), supervisor.worker_pids())
        )[owner]
        os.kill(victim_pid, signal.SIGKILL)

        # In-flight-equivalent request against the dead shard: a typed
        # retryable envelope, not a hang.
        dead = router.handle_dict(resolve)
        assert (dead["type"], dead["code"]) == ("error", "upstream_unavailable")

        deadline = time.monotonic() + RECOVERY_TIMEOUT_S
        recovered = None
        while time.monotonic() < deadline:
            answer = router.handle_dict(resolve)
            if answer["type"] == "resolve_result":
                recovered = answer
                break
            assert answer["code"] == "upstream_unavailable", answer
            time.sleep(0.25)
        assert recovered == healthy, "shard did not recover in time"
        assert supervisor.restart_count >= 1
        new_pid = dict(zip(supervisor.slots(), supervisor.worker_pids()))[owner]
        assert new_pid != victim_pid
    finally:
        router.close()
        supervisor.stop()


def test_killed_worker_sessions_survive_with_journal(tmp_path):
    """SIGKILL a worker holding live sessions under ``--journal``: the
    supervisor restarts the slot over its journal directory, the fresh
    process recovers the sessions from checkpoint + tail, and the
    clients' held session ids keep working — no ``unknown_session``."""
    supervisor = WorkerSupervisor(
        2,
        worker_args=("--availability", "0.7", "--threads", "24"),
        journal_dir=str(tmp_path),
    )
    supervisor.start()
    router = RouterService(supervisor)
    try:
        ensemble = generate_strategy_ensemble(40, "uniform", 17)
        opened = router.handle_dict(
            envelope(
                "submit_batch",
                ensemble=encode(EnsembleRef.of(ensemble)),
                spec=encode(SPEC),
                requests=request_dicts(seed=71, prefix="j0"),
            )
        )
        assert opened["type"] == "submit_batch_result"
        session_id = opened["session_id"]
        follow = router.handle_dict(
            envelope(
                "submit_batch",
                session_id=session_id,
                requests=request_dicts(seed=72, prefix="j1"),
            )
        )
        assert follow["type"] == "submit_batch_result"

        owner = int(session_id[1 : session_id.index(".")])
        # Bounded-lag durability: the write-behind journal group-commits
        # a short gather window behind each append, and SIGKILL forfeits
        # whatever is still queued.  The crash contract is "lose at most
        # the last window", so wait until both bursts are actually on
        # disk before pulling the trigger — this test exercises recovery
        # of durable events, not a race against the window.
        from repro.journal import read_events
        from repro.journal.events import SubmitEvent

        journal_dir = tmp_path / f"worker-{owner}"
        durable_by = time.monotonic() + RECOVERY_TIMEOUT_S
        while time.monotonic() < durable_by:
            submits = [
                event
                for event in read_events(journal_dir)
                if isinstance(event, SubmitEvent)
            ]
            if len(submits) >= 2:
                break
            time.sleep(0.05)
        else:
            raise AssertionError("journal never made both bursts durable")

        victim_pid = dict(
            zip(supervisor.slots(), supervisor.worker_pids())
        )[owner]
        os.kill(victim_pid, signal.SIGKILL)

        retry = envelope("retry_deferred", session_id=session_id)
        deadline = time.monotonic() + RECOVERY_TIMEOUT_S
        recovered = None
        while time.monotonic() < deadline:
            answer = router.handle_dict(retry)
            if answer["type"] == "retry_deferred_result":
                recovered = answer
                break
            # While the slot respawns the only acceptable answer is the
            # retryable 503 — an unknown_session here means the restart
            # dropped the journaled sessions.
            assert answer["code"] == "upstream_unavailable", answer
            time.sleep(0.25)
        assert recovered is not None, "worker did not recover in time"
        assert recovered["session_id"] == session_id

        # The restored session still accepts traffic under its old id.
        more = router.handle_dict(
            envelope(
                "submit_batch",
                session_id=session_id,
                requests=request_dicts(seed=73, prefix="j2"),
            )
        )
        assert more["type"] == "submit_batch_result"
        assert more["session_id"] == session_id

        stats = router.handle_dict(envelope("stats"))
        assert stats["journal"]["restores"] >= 1
        assert stats["journal"]["events"] > 0
    finally:
        router.close()
        supervisor.stop()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def test_cli_cluster_sigterm_leaves_no_orphans(tmp_path):
    """``repro serve --workers 2`` + SIGTERM: router exits 0 and every
    worker PID is gone afterwards."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "serve",
            "--workers", "2", "--port", "0", "--threads", "8",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    worker_pids: "list[int]" = []
    try:
        address = None
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            assert line, "serve exited before printing its address"
            address = parse_ready_line(line)
            if address is not None:
                break
        assert address is not None, "no ready line within the deadline"

        client = ServiceClient(*address)
        try:
            stats = client.post(envelope("stats"))
        finally:
            client.close()
        worker_pids = [shard["pid"] for shard in stats["shards"]]
        assert len(worker_pids) == 2
        assert all(_pid_alive(pid) for pid in worker_pids)

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()

    # The supervisor must have reaped its children — a surviving PID
    # here is an orphaned worker.
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and any(
        _pid_alive(pid) for pid in worker_pids
    ):
        time.sleep(0.2)
    leftovers = [pid for pid in worker_pids if _pid_alive(pid)]
    assert not leftovers, f"orphaned workers: {leftovers}"
