"""Pluggable planner backends for the recommendation engine.

A *planner* answers one question — which subset of a batch to satisfy,
and with which strategies — behind a single protocol: ``plan(requests,
objective) -> BatchOutcome``.  The registry maps stable backend names to
factories so callers (the engine, the CLI's ``--planner`` flag, future
sharded/async frontends) can swap optimizers without rewiring:

========================  ====================================================
``batch-greedy``          BatchStrat (Algorithm 1; throughput-exact,
                          pay-off 1/2-approximate) — the default.
``payoff-dp``             Pseudo-polynomial knapsack DP (exact up to
                          weight discretization).
``baseline-greedy``       BaselineG: density greedy without the backstop.
``batch-bruteforce``      Exhaustive subset enumeration (exact, m <= 24).
========================  ====================================================

All four share the context's :class:`WorkforceComputer`, so one engine
evaluating several backends over the same batch pays for model inversion
once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.baselines.batch_bruteforce import batch_brute_force
from repro.baselines.batch_greedy import BaselineG
from repro.core.batchstrat import BatchOutcome, BatchStrat
from repro.core.objectives import ObjectiveSpec
from repro.core.payoff_dp import payoff_dynamic_program
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.core.workforce import WorkforceComputer
from repro.exceptions import UnknownPlannerError
from repro.utils.registry import Registry


@dataclass(frozen=True)
class PlannerContext:
    """Everything a planner backend needs to instantiate itself."""

    ensemble: StrategyEnsemble
    availability: float
    aggregation: str = "sum"
    workforce_mode: str = "paper"
    eligibility: str = "pool"
    computer: "WorkforceComputer | None" = None


class Planner(Protocol):
    """The one seam every batch optimizer sits behind."""

    name: str

    def plan(
        self,
        requests: "list[DeploymentRequest]",
        objective: ObjectiveSpec = "throughput",
    ) -> BatchOutcome:
        """Select and equip the subset of ``requests`` to satisfy."""
        ...


class _BatchStratPlanner:
    name = "batch-greedy"

    def __init__(self, context: PlannerContext, options: dict):
        self._solver = BatchStrat(
            context.ensemble,
            context.availability,
            aggregation=context.aggregation,
            workforce_mode=context.workforce_mode,
            eligibility=context.eligibility,
            computer=context.computer,
        )

    def plan(self, requests, objective="throughput"):
        return self._solver.run(requests, objective=objective)


class _BaselineGreedyPlanner:
    name = "baseline-greedy"

    def __init__(self, context: PlannerContext, options: dict):
        self._solver = BaselineG(
            context.ensemble,
            context.availability,
            aggregation=context.aggregation,
            workforce_mode=context.workforce_mode,
            eligibility=context.eligibility,
            computer=context.computer,
        )

    def plan(self, requests, objective="throughput"):
        return self._solver.run(requests, objective=objective)


class _PayoffDPPlanner:
    name = "payoff-dp"

    def __init__(self, context: PlannerContext, options: dict):
        self._context = context
        self._resolution = int(options.get("resolution", 4096))

    def plan(self, requests, objective="payoff"):
        context = self._context
        return payoff_dynamic_program(
            context.ensemble,
            requests,
            context.availability,
            objective=objective,
            resolution=self._resolution,
            aggregation=context.aggregation,
            workforce_mode=context.workforce_mode,
            eligibility=context.eligibility,
            computer=context.computer,
        )


class _BruteForcePlanner:
    name = "batch-bruteforce"

    def __init__(self, context: PlannerContext, options: dict):
        self._context = context

    def plan(self, requests, objective="throughput"):
        context = self._context
        return batch_brute_force(
            context.ensemble,
            requests,
            context.availability,
            objective=objective,
            aggregation=context.aggregation,
            workforce_mode=context.workforce_mode,
            eligibility=context.eligibility,
            computer=context.computer,
        )


class PlannerRegistry(Registry):
    """Name → planner factory ``(PlannerContext, options) -> Planner``;
    an unknown name raises :class:`UnknownPlannerError`."""

    kind = "planner backend"
    error = UnknownPlannerError

    def create(
        self,
        name: str,
        context: PlannerContext,
        options: "dict | None" = None,
    ) -> Planner:
        """Instantiate a backend for one engine context."""
        return self.get(name)(context, dict(options or {}))


def _builtin_registry() -> PlannerRegistry:
    registry = PlannerRegistry()
    registry.register(
        "batch-greedy",
        _BatchStratPlanner,
        "BatchStrat greedy + backstop (Algorithm 1); the default",
    )
    registry.register(
        "payoff-dp",
        _PayoffDPPlanner,
        "discretized 0/1-knapsack DP; exact up to resolution",
    )
    registry.register(
        "baseline-greedy",
        _BaselineGreedyPlanner,
        "BaselineG density greedy without the backstop (§5.2.1)",
    )
    registry.register(
        "batch-bruteforce",
        _BruteForcePlanner,
        "exhaustive subset enumeration; exact, m <= 24",
    )
    return registry


_DEFAULT_REGISTRY = _builtin_registry()


def default_registry() -> PlannerRegistry:
    """The process-wide registry with the built-in backends."""
    return _DEFAULT_REGISTRY
