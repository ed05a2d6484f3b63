"""Synthetic workload generation (the §5.2 experimental setup).

Three layers:

* :mod:`repro.workloads.generators` — the raw samplers (pluggable
  dimension-value distributions via :func:`register_distribution`).
* :mod:`repro.workloads.spec` — the declarative, JSON-serializable
  ``WorkloadSpec`` family (:class:`EnsembleSpec`, :class:`RequestBatchSpec`,
  :class:`ArrivalSpec`, :class:`ScenarioSpec`) and
  :mod:`repro.workloads.simulation` (:class:`SimulationReport`).
* :mod:`repro.workloads.registry` — the :class:`ScenarioRegistry`
  catalog of named scenario families (``repro simulate --list``); the
  §5.2.2 defaults are ``paper-batch[-small]`` and
  ``paper-adpar[-small]``.
"""

from repro.workloads.generators import (
    DISTRIBUTIONS,
    distribution_names,
    generate_adpar_points,
    generate_requests,
    generate_strategy_ensemble,
    hard_request_for,
    register_distribution,
)
from repro.workloads.registry import ScenarioRegistry, default_scenario_registry
from repro.workloads.simulation import SimulationReport, simulate_scenario
from repro.workloads.spec import (
    ARRIVAL_PROCESSES,
    ArrivalSpec,
    EnsembleSpec,
    RequestBatchSpec,
    SCENARIO_KINDS,
    ScenarioSpec,
    replace_spec,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "ArrivalSpec",
    "DISTRIBUTIONS",
    "EnsembleSpec",
    "RequestBatchSpec",
    "SCENARIO_KINDS",
    "ScenarioRegistry",
    "ScenarioSpec",
    "SimulationReport",
    "default_scenario_registry",
    "distribution_names",
    "generate_adpar_points",
    "generate_requests",
    "generate_strategy_ensemble",
    "hard_request_for",
    "register_distribution",
    "replace_spec",
    "simulate_scenario",
]
