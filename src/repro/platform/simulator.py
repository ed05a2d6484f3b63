"""Deployment windows and the platform availability simulator.

§5.1.1 question 1: the paper runs three deployments per task in three
windows (weekend; Monday–Thursday; Thursday–Sunday) and finds that
availability varies over time, peaking mid-week (Figure 11).  The
simulator reproduces that: each window has a base participation level,
workers arrive as a Poisson process thinned by that level and stay for
random sessions, and the observed availability is the fraction of the
recruited cap that actually undertook the HIT — the paper's ``x'/x``.
:meth:`PlatformSimulator.run_scenario` closes Figure 1's loop: a
declarative scenario runs through the service at that observed
availability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.platform.events import DiscreteEventSimulator, Event
from repro.platform.hit import HIT
from repro.platform.pool import WorkerPool
from repro.platform.worker import Worker
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fraction


@dataclass(frozen=True)
class DeploymentWindow:
    """One deployment window with its participation climate."""

    name: str
    duration_hours: float
    base_participation: float  # mean fraction of recruited workers who show up
    participation_std: float = 0.05

    def __post_init__(self):
        if self.duration_hours <= 0:
            raise ValueError("duration_hours must be > 0")
        check_fraction("base_participation", self.base_participation)


#: The paper's three windows.  Window 2 (Mon–Thu) has the highest
#: availability — that is Figure 11's headline observation.
PAPER_WINDOWS = (
    DeploymentWindow("window-1 (Fri-Mon)", 72.0, 0.62),
    DeploymentWindow("window-2 (Mon-Thu)", 72.0, 0.86),
    DeploymentWindow("window-3 (Thu-Sun)", 72.0, 0.68),
)


@dataclass(frozen=True)
class WindowObservation:
    """What one deployment window yields."""

    window: DeploymentWindow
    task_type: str
    recruited: int
    engaged: int
    availability: float  # x'/x — engaged over recruited cap
    mean_session_hours: float
    engaged_workers: tuple[Worker, ...]


class PlatformSimulator:
    """Simulates worker participation for deployments on the platform.

    ``service`` is the :class:`~repro.api.EngineService` the closed loop
    (:meth:`run_scenario`) routes its recommendation traffic through —
    engines are pooled per (ensemble, configuration) and share the
    service cache across windows, so repeated deployments against the
    same ensemble skip model inversion.  A private service is created
    lazily when omitted.
    """

    def __init__(
        self,
        pool: WorkerPool,
        seed: "int | np.random.Generator | None" = None,
        service=None,
    ):
        self.pool = pool
        self._rng = ensure_rng(seed)
        self._service = service

    @property
    def service(self):
        """The lazily created service behind :meth:`run_scenario`."""
        if self._service is None:
            from repro.api import EngineService

            self._service = EngineService()
        return self._service

    def run_window(
        self,
        window: DeploymentWindow,
        task_type: str,
        hit: "HIT | None" = None,
        strategy_name: str = "SEQ-IND-CRO",
    ) -> WindowObservation:
        """Deploy one HIT in ``window`` and observe worker availability.

        Recruited workers arrive as a Poisson process whose rate encodes
        the window's participation climate (collaborative strategies draw
        slightly fewer simultaneous participants, matching the small
        Seq-IC/Sim-CC gaps of Figure 11); arrivals beyond the HIT's worker
        cap or the window's end do not count as engaged.
        """
        rng = self._rng
        if hit is None:
            hit = HIT(hit_id=f"hit-{window.name}-{task_type}", task_type=task_type)
        recruited = self.pool.recruit(task_type, seed=rng, limit=hit.max_workers * 4)
        cap = min(hit.max_workers, len(recruited))
        if cap == 0:
            return WindowObservation(window, task_type, 0, 0, 0.0, 0.0, ())

        participation = float(
            np.clip(
                rng.normal(window.base_participation, window.participation_std),
                0.05,
                1.0,
            )
        )
        if "COL" in strategy_name and "SIM" in strategy_name:
            # Simultaneous collaboration needs co-presence; slightly fewer
            # workers manage to engage.
            participation *= float(rng.uniform(0.92, 1.0))

        sim = DiscreteEventSimulator()
        engaged: list[Worker] = []
        sessions: list[float] = []
        # Mean number of arrivals over the window = participation * cap.
        rate = participation * cap / window.duration_hours
        candidates = iter(recruited)

        def handle_arrival(simulator: DiscreteEventSimulator, event: Event) -> None:
            worker = event.payload
            if len(engaged) < cap:
                engaged.append(worker)
                session = float(rng.exponential(2.0) + hit.min_minutes / 60.0)
                sessions.append(min(session, window.duration_hours - simulator.now))
            gap = float(rng.exponential(1.0 / rate)) if rate > 0 else window.duration_hours
            nxt = next(candidates, None)
            if nxt is not None:
                simulator.schedule(Event(simulator.now + gap, "arrival", nxt))

        sim.on("arrival", handle_arrival)
        first = next(candidates, None)
        if first is not None and rate > 0:
            sim.schedule(Event(float(rng.exponential(1.0 / rate)), "arrival", first))
        sim.run(window.duration_hours)

        availability = len(engaged) / cap
        mean_session = float(np.mean(sessions)) if sessions else 0.0
        return WindowObservation(
            window=window,
            task_type=task_type,
            recruited=cap,
            engaged=len(engaged),
            availability=availability,
            mean_session_hours=mean_session,
            engaged_workers=tuple(engaged),
        )

    def run_scenario(
        self,
        scenario,
        window: DeploymentWindow,
        task_type: str = "translation",
        strategy_name: str = "SEQ-IND-CRO",
    ):
        """Run one declarative scenario against a live deployment window.

        The closed loop of Figure 1: the platform measures ``x'/x`` from
        the window, and the scenario — a
        :class:`~repro.workloads.spec.ScenarioSpec` or a family name in
        the service's :class:`~repro.workloads.registry.ScenarioRegistry`
        — runs through :meth:`EngineService.simulate
        <repro.api.EngineService.simulate>` at the *observed*
        availability (the scenario's own ``availability`` knob is
        superseded by the measurement; every other engine knob applies).
        ``batch`` scenarios resolve their requests, ``stream`` scenarios
        drive their arrival schedule through a session, and ``trace``
        scenarios reenact their recorded journal.  Returns
        ``(observation, SimulationReport)``.  ``adpar`` scenarios raise
        :class:`ValueError`: their strategy points do not depend on the
        workforce, so a window has nothing to feed them.
        """
        from repro.api import SimulateRequest

        if isinstance(scenario, str):
            scenario = self.service.scenario_registry.get(scenario)
        if scenario.kind == "adpar":
            raise ValueError(
                "adpar scenarios have no platform counterpart; use "
                "EngineService.simulate"
            )
        observation = self.run_window(
            window, task_type, strategy_name=strategy_name
        )
        spec = scenario.with_(availability=observation.availability)
        response = self.service.simulate(SimulateRequest(scenario=spec))
        return observation, response.report

    def observe_availability(
        self,
        windows: "tuple[DeploymentWindow, ...]" = PAPER_WINDOWS,
        task_type: str = "translation",
        strategy_name: str = "SEQ-IND-CRO",
        repetitions: int = 3,
    ) -> dict:
        """Repeated deployments per window → availability samples (Fig. 11)."""
        results: dict = {}
        for window in windows:
            samples = [
                self.run_window(window, task_type, strategy_name=strategy_name).availability
                for _ in range(repetitions)
            ]
            results[window.name] = samples
        return results
