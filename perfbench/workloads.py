"""The four serving workloads: seeded inputs, envelopes and reference checks.

Every op carries fresh request parameters (drawn from the run's seed, the
connection and a stream tag), so engine cache hit rates stay flat however
long a run lasts.  Envelopes are built with the public envelope classes
and encoded outside the round-trip timer: stateless ones before the timed
window starts, session ones (which carry the server's session id) just
before they are sent.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.api import (
    AlternativesRequest,
    AlternativesResponse,
    EngineSpec,
    EnsembleRef,
    ResolveRequest,
    RetryDeferredRequest,
    SessionOpRequest,
    SubmitBatchRequest,
)
from repro.api.wire import report_from_dict, stream_decision_from_dict
from repro.core.streaming import StreamStatus
from repro.engine import RecommendationEngine
from repro.journal import replay_trace
from repro.workloads.generators import generate_requests, generate_strategy_ensemble

#: Stream tags: the timed traffic, the untimed warm-up traffic, and the
#: one op that ends each server's set-up.
MAIN, WARM, SETUP = 0, 1, 2

#: Seeds the strategy catalog, which is the same in every run.
CATALOG_SEED = 20200614


@dataclass
class Op:
    """One envelope to send, plus what its reference check needs."""

    kind: str
    data: bytes
    requests: tuple = ()
    first: bool = False  # opens a session lifecycle
    ids: tuple = ()  # request ids a ``complete`` releases


@dataclass
class Record:
    """One op as the load generator saw it."""

    op: Op
    start: float
    end: float
    status: int
    body: bytes

    @property
    def rtt_ms(self) -> float:
        return (self.end - self.start) * 1e3


@dataclass(frozen=True)
class Inputs:
    """Everything one seed determines."""

    ensemble: object
    spec: EngineSpec
    fingerprint: str

    def engine(self) -> RecommendationEngine:
        """A fresh direct engine: the reference the served answers must match."""
        return RecommendationEngine(self.ensemble, **self.spec.engine_kwargs())


def _encode(envelope) -> bytes:
    return json.dumps(envelope.to_dict()).encode()


class BatchStream:
    """Stateless ops for one connection: one fresh batch per op."""

    def __init__(self, workload, inputs: Inputs, seed: int, conn: int, tag: int):
        self.workload, self.inputs = workload, inputs
        self.rng = np.random.default_rng([seed, conn, tag])
        self.prefix = f"c{conn}t{tag}o"
        self.count = 0
        self.ready: deque = deque()

    def _batch(self) -> list:
        self.count += 1
        w = self.workload
        return generate_requests(
            w.batch, k=w.k, seed=self.rng, prefix=f"{self.prefix}{self.count}-"
        )

    def prepare(self, n: int) -> None:
        """Generate and encode ops until ``n`` are ready to send."""
        ref = EnsembleRef.by_fingerprint(self.inputs.fingerprint)
        while len(self.ready) < n:
            batch = tuple(self._batch())
            envelope = self.workload.envelope(ref, batch, self.inputs.spec)
            self.ready.append(Op(self.workload.kind, _encode(envelope), batch))

    def next_op(self) -> Op:
        if not self.ready:
            self.prepare(1)
        return self.ready.popleft()

    def on_answer(self, record: Record) -> None:
        """Stateless: nothing depends on the answer."""


class SessionStream:
    """Fixed-length session lifecycles for one connection.

    Each lifecycle opens with ``submit_batch`` (ensemble by fingerprint),
    then per burst: ``submit_batch``, ``complete`` on half the admitted
    requests (rounded up, skipped when none were admitted), and
    ``retry_deferred`` after every second burst; it ends with
    ``close_session``.
    """

    def __init__(self, workload, inputs: Inputs, seed: int, conn: int, tag: int):
        self.workload, self.inputs = workload, inputs
        self.rng = np.random.default_rng([seed, conn, tag])
        self.prefix = f"c{conn}t{tag}"
        self.bursts: deque = deque()
        self.drawn = 0
        self.session_id = None
        self.pending: deque = deque()  # follow-up ops of the current burst
        self.burst = 0

    def prepare(self, n: int) -> None:
        """Draw request bursts ahead, so the loop only encodes."""
        w = self.workload
        while len(self.bursts) < n:
            self.drawn += 1
            prefix = f"{self.prefix}b{self.drawn}-"
            self.bursts.append(
                tuple(generate_requests(w.batch, k=w.k, seed=self.rng, prefix=prefix))
            )

    def next_op(self) -> Op:
        if self.pending:
            return self.pending.popleft()
        if self.burst == self.workload.bursts:
            self.burst = 0
            op = Op("close", _encode(SessionOpRequest("close_session", self.session_id)))
            self.session_id = None
            return op
        if not self.bursts:
            self.prepare(1)
        burst = self.bursts.popleft()
        first = self.session_id is None
        if first:
            envelope = SubmitBatchRequest(
                requests=burst,
                ensemble=EnsembleRef.by_fingerprint(self.inputs.fingerprint),
                spec=self.inputs.spec,
            )
        else:
            envelope = SubmitBatchRequest(requests=burst, session_id=self.session_id)
        self.burst += 1
        return Op("submit", _encode(envelope), burst, first=first)

    def on_answer(self, record: Record) -> None:
        if record.op.kind != "submit":
            return
        if record.status != 200:
            # A failed burst leaves no usable session: start a new lifecycle.
            self.session_id, self.burst = None, 0
            self.pending.clear()
            return
        body = json.loads(record.body)
        self.session_id = body["session_id"]
        admitted = [
            d["request"]["request_id"]
            for d in body["decisions"]
            if d["status"] == StreamStatus.ADMITTED.value
        ]
        if admitted:
            ids = tuple(admitted[: math.ceil(len(admitted) / 2)])
            envelope = SessionOpRequest("complete", self.session_id, ids)
            self.pending.append(Op("complete", _encode(envelope), ids=ids))
        if self.burst % 2 == 0:
            envelope = RetryDeferredRequest(session_id=self.session_id)
            self.pending.append(Op("retry", _encode(envelope)))


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one serving stack."""

    name: str
    mode: str  # launcher mode: plain | journal | cluster
    kind: str  # resolve | alternatives | session
    n_strategies: int
    batch: int  # requests per envelope (per burst for sessions)
    k: int
    availability: float
    latency_limit_ms: float  # goodput counts ops answered within this
    bursts: int = 0  # bursts per session lifecycle

    # ---------------------------------------------------------------- inputs
    def build(self, seed: int) -> Inputs:
        """The strategy catalog is fixed per size; the seed drives the traffic.

        A catalog drawn per seed moved throughput by more than the
        run-to-run noise (the ADPaR and admission mix depend on it), so
        runs with different seeds would not be comparable.
        """
        rng = np.random.default_rng([CATALOG_SEED, self.n_strategies])
        ensemble = generate_strategy_ensemble(self.n_strategies, "uniform", rng)
        spec = EngineSpec(availability=self.availability, aggregation="max")
        return Inputs(ensemble, spec, EnsembleRef.of(ensemble).fingerprint)

    def stream(self, inputs: Inputs, seed: int, conn: int, tag: int = MAIN):
        cls = SessionStream if self.kind == "session" else BatchStream
        return cls(self, inputs, seed, conn, tag)

    def envelope(self, ref, batch, spec):
        if self.kind == "alternatives":
            return AlternativesRequest(ensemble=ref, requests=batch, spec=spec)
        return ResolveRequest(ensemble=ref, requests=batch, spec=spec)

    def setup_op(self, inputs: Inputs, seed: int, launch: int) -> Op:
        """The first op a fresh server answers: uploads the ensemble inline."""
        rng = np.random.default_rng([seed, launch, SETUP])
        batch = tuple(generate_requests(self.batch, k=self.k, seed=rng, prefix="setup-"))
        ref = EnsembleRef.of(inputs.ensemble)
        if self.kind == "session":
            envelope = SubmitBatchRequest(requests=batch, ensemble=ref, spec=inputs.spec)
        else:
            envelope = self.envelope(ref, batch, inputs.spec)
        return Op("setup", _encode(envelope), batch)

    # ----------------------------------------------------------------- check
    def check(self, inputs: Inputs, records) -> "list[bool]":
        """Per record of one connection, whether the served answer is right.

        Answers are compared with a fresh direct engine; non-200 answers
        and transport errors (status 0) are failures.
        """
        engine = inputs.engine()
        if self.kind == "session":
            return self._check_sessions(engine, records)
        return [
            record.status == 200 and self._check_stateless(engine, record)
            for record in records
        ]

    def _check_stateless(self, engine, record: Record) -> bool:
        body = json.loads(record.body)
        batch = list(record.op.requests)
        if self.kind == "alternatives":
            served = AlternativesResponse.from_dict(body).results
            return served == tuple(engine.recommend_alternatives(batch))
        return report_from_dict(body["report"]) == engine.resolve(batch)

    @staticmethod
    def _check_sessions(engine, records) -> "list[bool]":
        """Replay one connection's ops on directly driven sessions."""
        verdicts = []
        session = None
        for record in records:
            op = record.op
            body = json.loads(record.body) if record.status == 200 else None
            if op.kind == "submit" and op.first:
                session = engine.open_session()
            if op.kind == "submit":
                expected = session.submit_many(list(op.requests))
            elif op.kind == "retry":
                expected = session.retry_deferred()
            elif op.kind == "complete":
                released = sum(session.complete(i) for i in op.ids)
                verdicts.append(body is not None and body["released"] == released)
                continue
            else:  # close
                session = None
                verdicts.append(body is not None and body["op"] == "close_session")
                continue
            verdicts.append(
                body is not None
                and [stream_decision_from_dict(d).comparison_key() for d in body["decisions"]]
                == [d.comparison_key() for d in expected]
            )
        return verdicts


def journal_problem(journal_dir: str) -> "str | None":
    """Replay a run's journal; ``None`` when it reenacts bitwise."""
    report = replay_trace(journal_dir)
    if report.decisions and report.bitwise_identical:
        return None
    return f"journal replay: {report.changed} of {report.decisions} decisions differ"


#: Why each exists is in BENCHMARK.json and README.md.  Latency limits sit
#: 1.5 to 4 times above each workload's p99 on a two-CPU host.  ``alternatives-large``
#: runs by hand only: a run needs about 18 s to hold 1000 ops plus about
#: 17 s of reference ADPaR solves, more than the benchmark's time budget.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="resolve-small",
            mode="plain",
            kind="resolve",
            n_strategies=100,
            batch=10,
            k=3,
            availability=0.6,
            latency_limit_ms=25.0,
        ),
        Workload(
            name="alternatives-large",
            mode="plain",
            kind="alternatives",
            n_strategies=5000,
            batch=16,
            k=3,
            availability=0.6,
            latency_limit_ms=250.0,
        ),
        Workload(
            name="session-journaled",
            mode="journal",
            kind="session",
            n_strategies=400,
            batch=12,
            k=3,
            availability=0.9,
            latency_limit_ms=50.0,
            bursts=8,
        ),
        Workload(
            name="cluster-routed",
            mode="cluster",
            kind="resolve",
            n_strategies=100,
            batch=10,
            k=3,
            availability=0.6,
            latency_limit_ms=25.0,
        ),
    )
}
