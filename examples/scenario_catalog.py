"""The declarative workload platform: scenario catalog + service simulation.

Workloads are data now: a frozen ``ScenarioSpec`` describes the
ensemble, the requests, the arrival process and the engine knobs, and
the ``ScenarioRegistry`` catalogs named families (the paper's §5.2.2
defaults plus flash crowds, heavy tails, deferred churn, ...).  The
service materializes a spec on its side of the wire — a `repro serve`
client sends a few hundred bytes, never 10k strategies — and answers
with one structured SimulationReport.

Run:  python examples/scenario_catalog.py
"""

import json

from repro.api import EngineService, SimulateRequest, StatsRequest
from repro.platform import PAPER_WINDOWS, PlatformSimulator, WorkerPool
from repro.platform.worker import generate_workers
from repro.workloads import default_scenario_registry

registry = default_scenario_registry()
print(f"{len(registry.names())} scenario families in the catalog:")
for name in registry.names():
    print(f"  {name:26s} [{registry.get(name).kind}]")

# --- one service, several scenario families -------------------------------
service = EngineService()
print("\nSimulating three families through one EngineService:")
for name, overrides in (
    ("paper-batch-small", None),
    ("flash-crowd", {"m_requests": 400}),
    ("paper-adpar", None),
):
    report = service.handle(SimulateRequest(name=name, overrides=overrides)).report
    print(f"\n{report.summary()}")

# Sweeps are spec overrides; unknown fields fail with the typed
# `invalid_spec` error instead of a 500.
print("\nAvailability sweep over the heavy-tail family:")
for availability in (0.2, 0.5, 0.8):
    report = service.handle(
        SimulateRequest(
            name="heavy-tail", overrides={"availability": availability}
        )
    ).report
    print(
        f"  W={availability:.2f}: satisfied={report.satisfied:3d} "
        f"alternative={report.alternative:3d}"
    )

# The wire form of the same thing — exactly what POST /v1/simulate takes.
envelope = SimulateRequest(
    name="mixture-of-distributions", overrides={"m_requests": 20}
).to_dict()
print(f"\nWire envelope ({len(json.dumps(envelope))} bytes): {envelope}")
body = service.handle_dict(envelope)
print(
    f"→ {body['type']}: satisfied={body['report']['satisfied']} "
    f"of {body['report']['arrivals']}"
)

# Service observability: pool + cache occupancy over the sweep.
stats = service.handle(StatsRequest())
print(
    f"\nService stats: engines={stats.engines}/{stats.max_engines} "
    f"workloads={stats.workloads} hit_rate={stats.hit_rate:.0%}"
)
for section, usage in stats.occupancy.items():
    print(f"  cache[{section}]: {usage['entries']}/{usage['capacity']}")

# --- closed loop: a scenario against a live deployment window -------------
pool = WorkerPool(generate_workers(160, seed=5))
simulator = PlatformSimulator(pool, seed=6, service=service)
observation, loop_report = simulator.run_scenario(
    "paper-batch-small", PAPER_WINDOWS[1]
)
print(
    f"\nClosed loop in {observation.window.name}: observed availability "
    f"{observation.availability:.2f} → {loop_report.satisfied} satisfied, "
    f"{loop_report.alternative} alternatives"
)
