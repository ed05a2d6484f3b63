"""Service-level scenario simulation: one spec in, one structured report out.

:func:`simulate_scenario` is the execution half of the declarative
workload API: given a materialized :class:`~repro.workloads.spec.ScenarioSpec`
and the engine to run it on, it drives the scenario's kind through the
engine's canonical entry points — :meth:`RecommendationEngine.resolve`
for ``batch``, :func:`~repro.engine.session.drive_stream` (with the
arrival process's burst schedule) for ``stream``, batch ADPaR for
``adpar`` — and folds the outcome into one flat, wire-serializable
:class:`SimulationReport`.

:class:`~repro.api.EngineService` exposes this as the ``simulate``
envelope; ``repro simulate`` is the CLI front end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.workloads.spec import ScenarioSpec


@dataclass(frozen=True)
class SimulationReport:
    """The structured outcome of one scenario simulation.

    One flat record covering all scenario kinds; fields that do not
    apply to a kind hold their zero value (e.g. ``admitted`` for a
    batch run, ``objective_value`` for an ADPaR run, the ``replay_*``
    trio for anything but a ``trace`` reenactment).  A stream's
    ``utilization`` is the peak reserved fraction of its availability
    budget over the drive.  ``elapsed_s`` is wall-clock and therefore
    the one non-reproducible field.
    """

    scenario: ScenarioSpec
    kind: str
    fingerprint: str
    n_strategies: int
    arrivals: int
    elapsed_s: float
    satisfied: int = 0
    alternative: int = 0
    infeasible: int = 0
    admitted: int = 0
    completed: int = 0
    retried: int = 0
    still_deferred: int = 0
    objective_value: float = 0.0
    workforce_available: float = 0.0
    workforce_used: float = 0.0
    utilization: float = 0.0
    mean_distance: float = 0.0
    replay_sessions: int = 0
    replay_decisions: int = 0
    replay_flips: int = 0

    def throughput_rps(self) -> float:
        """Requests driven per wall-clock second."""
        return self.arrivals / max(self.elapsed_s, 1e-9)

    def summary(self) -> str:
        """A compact human-readable rendering (the CLI output)."""
        name = self.scenario.name or "<inline>"
        lines = [
            f"scenario={name} kind={self.kind} |S|={self.n_strategies} "
            f"arrivals={self.arrivals} seed={self.scenario.seed}",
        ]
        if self.kind == "adpar":
            lines.append(
                f"alternative={self.alternative} infeasible={self.infeasible} "
                f"mean_distance={self.mean_distance:.4f}"
            )
        elif self.kind == "trace":
            lines.append(
                f"replayed sessions={self.replay_sessions} "
                f"decisions={self.replay_decisions} "
                f"identical={self.satisfied} flips={self.replay_flips}"
            )
        elif self.kind == "stream":
            lines.append(
                f"admitted={self.admitted} completed={self.completed} "
                f"alternative={self.alternative} "
                f"infeasible={self.infeasible} retried={self.retried} "
                f"deferred={self.still_deferred}"
            )
            lines.append(f"utilization={self.utilization:.2f}")
        else:
            lines.append(
                f"satisfied={self.satisfied} alternative={self.alternative} "
                f"infeasible={self.infeasible}"
            )
            lines.append(
                f"objective_value={self.objective_value:.3f} "
                f"workforce_used={self.workforce_used:.3f}"
                f"/{self.workforce_available:.3f}"
            )
        lines.append(
            f"throughput={self.throughput_rps():.0f} req/s "
            f"({self.elapsed_s * 1e3:.1f} ms)"
        )
        return "\n".join(lines)


def simulate_scenario(
    engine,
    spec: ScenarioSpec,
    ensemble=None,
    payload=None,
) -> SimulationReport:
    """Run one scenario on ``engine`` and fold the outcome into a report.

    ``ensemble``/``payload`` are the pre-materialized halves of
    ``spec.build()`` — pass them when the caller already built them
    (the service's content-hash workload cache does); omitted, the spec
    is built here.  The engine must be configured for the scenario (the
    service pools it by ``spec.engine``).
    """
    from repro.core.streaming import StreamStatus
    from repro.engine.cache import ensemble_fingerprint
    from repro.engine.session import drive_stream

    if ensemble is None or payload is None:
        ensemble, payload = spec.build()
    fingerprint = ensemble_fingerprint(ensemble)
    common = {
        "scenario": spec,
        "kind": spec.kind,
        "fingerprint": fingerprint,
        "n_strategies": spec.ensemble.n_strategies,
    }

    if spec.kind == "batch":
        requests = list(payload)
        start = time.perf_counter()
        report = engine.resolve(requests)
        elapsed = time.perf_counter() - start
        infeasible = (
            len(report.resolutions)
            - report.satisfied_count
            - report.alternative_count
        )
        return SimulationReport(
            arrivals=len(requests),
            elapsed_s=elapsed,
            satisfied=report.satisfied_count,
            alternative=report.alternative_count,
            infeasible=infeasible,
            objective_value=report.batch.objective_value,
            workforce_available=report.batch.workforce_available,
            workforce_used=report.batch.workforce_used,
            **common,
        )

    if spec.kind == "stream":
        ordered, arrival, schedule = spec.arrival_plan(list(payload))
        session = engine.open_session()
        start = time.perf_counter()
        decisions, retried, peak = drive_stream(
            session,
            ordered,
            burst_size=arrival.burst_size,
            hold_bursts=arrival.hold_bursts,
            schedule=schedule,
        )
        elapsed = time.perf_counter() - start
        by_status = {status: 0 for status in StreamStatus}
        for decision in decisions:
            by_status[decision.status] += 1
        # ``satisfied`` stays 0 for streams: admission outcomes live in
        # admitted/completed, which would otherwise just be duplicated.
        return SimulationReport(
            arrivals=len(ordered),
            elapsed_s=elapsed,
            alternative=by_status[StreamStatus.ALTERNATIVE],
            infeasible=by_status[StreamStatus.INFEASIBLE],
            admitted=session.admitted_count,
            completed=session.completed_count,
            retried=retried,
            still_deferred=len(session.deferred),
            utilization=peak,
            **common,
        )

    if spec.kind == "trace":
        # Reenactment: the payload is a recorded TraceWorkload; re-drive
        # its primary-ensemble sessions on this engine and fold the
        # decision diff into the flat report (``satisfied`` carries the
        # exactly-reproduced pair count, ``alternative`` the changed
        # pairs — the full diff comes from ``repro replay``).
        from repro.journal.replay import reenact_on_engine

        common["n_strategies"] = len(ensemble.names)
        start = time.perf_counter()
        replay = reenact_on_engine(engine, payload)
        elapsed = time.perf_counter() - start
        return SimulationReport(
            arrivals=payload.arrivals,
            elapsed_s=elapsed,
            satisfied=replay.identical,
            alternative=replay.changed,
            replay_sessions=replay.sessions,
            replay_decisions=replay.decisions,
            replay_flips=replay.flips,
            **common,
        )

    # adpar: one deliberately unsatisfiable request, answered with the
    # closest alternative parameters by the engine's solver backend.
    # The batch path answers an infeasible request with its verdict's
    # text instead of raising, so it is counted as infeasible.
    request = spec.deployment_request(payload)
    start = time.perf_counter()
    results = engine._alternatives_for([request])
    elapsed = time.perf_counter() - start
    solved = [result for result in results if not isinstance(result, str)]
    mean_distance = (
        sum(result.distance for result in solved) / len(solved)
        if solved
        else 0.0
    )
    return SimulationReport(
        arrivals=1,
        elapsed_s=elapsed,
        alternative=len(solved),
        infeasible=len(results) - len(solved),
        mean_distance=mean_distance,
        **common,
    )
