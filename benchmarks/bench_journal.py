"""Bench: decision-journal overhead + replay determinism gate.

Two pins, recorded to ``BENCH_journal.json``:

* **Overhead ceiling** — the same session workload (submit bursts,
  completion waves, deferred retries) driven over real HTTP against a
  journaled and an unjournaled ``EngineService``; the journaled run
  must stay within ``LATENCY_CEILING_X`` of the plain one.  Appends
  stamp + enqueue inside the session lock (ordering is the contract)
  while JSON encoding and the write + flush group commit ride the
  journal's write-behind thread, so this pin is what keeps that hot-path
  slice honest.  Both servers stay up for the whole measurement and the
  rounds *interleave* (plain, journaled, plain, ...), so slow drift —
  CPU frequency, container scheduling — hits both variants alike.  The
  pinned ratio is the **median of the per-round paired ratios**: each
  round's plain and journaled drives are adjacent in time (drift
  cancels inside the pair) and the median votes out the occasional
  scheduler spike that would poison a min- or mean-based estimate.
* **Replay determinism** — the journal recorded above, reenacted via
  :func:`repro.journal.replay_trace` under the recorded spec, must
  reproduce every decision bitwise (``StreamDecision.comparison_key``).
  Recorded as the boolean ``identical`` pin.
"""

from __future__ import annotations

import statistics
import tempfile
import threading
from pathlib import Path

from bench_recording import paired_rounds, record

from repro.api import (
    API_VERSION,
    EngineService,
    EngineSpec,
    EnsembleRef,
    ServiceClient,
    encode,
    make_server,
)
from repro.journal import DecisionJournal, replay_trace
from repro.utils.rng import spawn_rngs
from repro.workloads.generators import (
    generate_requests,
    generate_strategy_ensemble,
)

# A realistically sized catalog and streaming-fine bursts: with a toy
# ensemble (or one giant batch) the engine's own work rounds to zero
# and the ratio degenerates into "JSON encoding vs nothing", which is
# not what a journaled deployment pays per arrival.
N_STRATEGIES = 400
ARRIVALS = 240
BURST = 12
ROUNDS = 9
AVAILABILITY = 0.7
LATENCY_CEILING_X = 1.15

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_journal.json"


def _workload():
    rng_s, rng_r = spawn_rngs(17, 2)
    ensemble = generate_strategy_ensemble(N_STRATEGIES, "uniform", rng_s)
    stream = generate_requests(ARRIVALS, k=3, seed=rng_r)
    return EnsembleRef.of(ensemble), stream


def _wire(requests):
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
        for r in requests
    ]


def _drive_once(client: ServiceClient, ref: EnsembleRef, stream) -> int:
    """One full session lifecycle over HTTP; returns the op count."""
    spec_wire = encode(EngineSpec(availability=AVAILABILITY))
    ops = 0
    opened = client.post(
        {
            "api_version": API_VERSION,
            "type": "submit_batch",
            "ensemble": encode(ref),
            "spec": spec_wire,
            "requests": _wire(stream[:BURST]),
        }
    )
    session_id = opened["session_id"]
    ops += 1
    admitted = [
        d["request"]["request_id"]
        for d in opened["decisions"]
        if d["status"] == "admitted"
    ]
    for start in range(BURST, len(stream), BURST):
        body = client.post(
            {
                "api_version": API_VERSION,
                "type": "submit_batch",
                "session_id": session_id,
                "requests": _wire(stream[start : start + BURST]),
            }
        )
        ops += 1
        admitted.extend(
            d["request"]["request_id"]
            for d in body["decisions"]
            if d["status"] == "admitted"
        )
        # A completion wave + retry every other burst keeps the
        # release/retry journal paths on the measured hot path too.
        if admitted and (start // BURST) % 2 == 0:
            client.post(
                {
                    "api_version": API_VERSION,
                    "type": "complete",
                    "session_id": session_id,
                    "request_ids": admitted[: max(1, len(admitted) // 2)],
                }
            )
            del admitted[: max(1, len(admitted) // 2)]
            client.post(
                {
                    "api_version": API_VERSION,
                    "type": "retry_deferred",
                    "session_id": session_id,
                }
            )
            ops += 2
    client.post(
        {
            "api_version": API_VERSION,
            "type": "close_session",
            "session_id": session_id,
        }
    )
    return ops + 1


class _Variant:
    """One served ``EngineService`` plus a client driving it."""

    def __init__(self, journal_dir: "str | None"):
        self.service = EngineService()
        if journal_dir is not None:
            self.service.attach_journal(DecisionJournal(journal_dir))
        self.server = make_server(self.service)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        host, port = self.server.server_address
        self.client = ServiceClient(host, port)

    def stop(self) -> None:
        self.client.close()
        if self.service.journal is not None:
            self.service.journal.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


def _journal_overhead() -> dict:
    ref, stream = _workload()
    with tempfile.TemporaryDirectory() as journal_dir:
        plain = _Variant(None)
        journaled = _Variant(journal_dir)
        try:
            ops = _drive_once(plain.client, ref, stream)  # engine warmup
            _drive_once(journaled.client, ref, stream)
            plain_rounds, journaled_rounds = zip(
                *paired_rounds(
                    lambda: _drive_once(plain.client, ref, stream),
                    lambda: _drive_once(journaled.client, ref, stream),
                    ROUNDS,
                )
            )
        finally:
            plain.stop()
            journaled.stop()
        plain_s, journaled_s = min(plain_rounds), min(journaled_rounds)
        # Paired ratios: round i's two drives ran back to back, so any
        # machine drift divides out; the median across rounds discards
        # one-off scheduler spikes on either side of a pair.
        latency_x = statistics.median(
            j / max(p, 1e-9)
            for p, j in zip(plain_rounds, journaled_rounds)
        )
        report = replay_trace(journal_dir)
    return {
        "n_strategies": N_STRATEGIES,
        "arrivals": ARRIVALS,
        "burst": BURST,
        "rounds": ROUNDS,
        "http_ops": ops,
        "plain_s": round(plain_s, 4),
        "journaled_s": round(journaled_s, 4),
        "latency_x": round(latency_x, 3),
        "latency_ceiling_x": LATENCY_CEILING_X,
        "replay_decisions": report.decisions,
        "replay_flips": report.flips,
        "identical": bool(report.bitwise_identical),
    }


def test_bench_journal_overhead_and_determinism(benchmark):
    info = benchmark.pedantic(_journal_overhead, rounds=1, iterations=1)
    benchmark.extra_info.update(info)
    record(RESULTS_PATH, "journal_overhead", info)
    assert info["identical"], (
        f"same-spec replay drifted on {info['replay_flips']} flip(s) over "
        f"{info['replay_decisions']} decisions — the journal must "
        "reproduce every recorded decision bitwise"
    )
    assert info["latency_x"] <= LATENCY_CEILING_X, (
        f"journaled serve cost {info['latency_x']}x the unjournaled run "
        f"(plain {info['plain_s']}s vs journaled {info['journaled_s']}s); "
        f"the durability tax must stay within {LATENCY_CEILING_X}x"
    )
