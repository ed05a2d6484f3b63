"""The scenario registry: named workload families behind one seam.

A :class:`~repro.utils.registry.Registry`, like the planner and solver
backends: stable names map to frozen
:class:`~repro.workloads.spec.ScenarioSpec` values, so the CLI (``repro
simulate <name>``), the service (``simulate`` envelopes naming a
family), the platform simulator and the fig-runners all draw workloads
from one catalog instead of hand-wiring generator calls.

The built-in catalog covers the paper's §5.2.2 defaults plus the
beyond-the-paper families the ROADMAP asks for (skewed availability,
heavy-tail and mixture ensembles, flash crowds, high-k stress,
deferred churn, diurnal and adversarial arrivals).  ``create(name,
**overrides)`` clones a family with sweep overrides routed through
:meth:`ScenarioSpec.with_` — unknown fields fail with the typed
``invalid_spec`` error, unknown names with ``unknown_scenario``.
"""

from __future__ import annotations

import dataclasses

from repro.exceptions import UnknownScenarioError
from repro.utils.registry import Registry
from repro.workloads.spec import (
    ArrivalSpec,
    EnsembleSpec,
    RequestBatchSpec,
    ScenarioSpec,
)


class ScenarioRegistry(Registry):
    """Name → :class:`ScenarioSpec`; an unknown name raises
    :class:`UnknownScenarioError`."""

    kind = "scenario"
    error = UnknownScenarioError

    def register(
        self, name: str, spec: ScenarioSpec, replace: bool = False
    ) -> None:
        """Register a family under ``name``, stamping the name on its spec;
        its description is the spec's own."""
        if spec.name != name:
            spec = dataclasses.replace(spec, name=name)
        super().register(name, spec, spec.description, replace=replace)

    def create(self, name: str, **overrides) -> ScenarioSpec:
        """One family instance, with sweep overrides applied."""
        spec = self.get(name)
        return spec.with_(**overrides) if overrides else spec


def _engine(availability: float, **kwargs):
    # Lazy import: repro.api.wire imports repro.workloads.spec to declare
    # its wire forms, so the registry must not import it at module load.
    from repro.api.wire import EngineSpec

    return EngineSpec(availability=availability, **kwargs)


def _builtin_registry() -> ScenarioRegistry:
    registry = ScenarioRegistry()
    register = registry.register

    register(
        "paper-batch",
        ScenarioSpec(
            kind="batch",
            description=(
                "§5.2.2 batch defaults: |S|=10000, m=10, k=10, W=0.5, "
                "uniform dimension values"
            ),
            ensemble=EnsembleSpec(n_strategies=10_000),
            requests=RequestBatchSpec(m_requests=10, k=10),
            engine=_engine(0.5),
            seed=7,
        ),
    )
    register(
        "paper-batch-small",
        ScenarioSpec(
            kind="batch",
            description=(
                "brute-force-tractable batch (§5.2.2): |S|=30, m=5, k=10, "
                "W=0.5, max-case aggregation + strict workforce "
                "(the Figure 15/16 setup)"
            ),
            ensemble=EnsembleSpec(n_strategies=30),
            requests=RequestBatchSpec(m_requests=5, k=10),
            engine=_engine(0.5, aggregation="max", workforce_mode="strict"),
            seed=7,
        ),
    )
    register(
        "paper-adpar",
        ScenarioSpec(
            kind="adpar",
            description=(
                "§5.2.2 ADPaR defaults: |S|=200, k=5, uniform points, one "
                "hard request 0.15 past the frontier"
            ),
            ensemble=EnsembleSpec(n_strategies=200),
            requests=RequestBatchSpec(m_requests=1, k=5),
            engine=_engine(1.0),
            seed=11,
            tightness=0.15,
        ),
    )
    register(
        "paper-adpar-small",
        ScenarioSpec(
            kind="adpar",
            description="brute-force-tractable ADPaR: |S|=20, k=5",
            ensemble=EnsembleSpec(n_strategies=20),
            requests=RequestBatchSpec(m_requests=1, k=5),
            engine=_engine(1.0),
            seed=11,
            tightness=0.15,
        ),
    )
    register(
        "skewed-availability",
        ScenarioSpec(
            kind="batch",
            description=(
                "scarcity regime: paper batch at W=0.15 — most requests "
                "fall through to ADPaR alternatives"
            ),
            ensemble=EnsembleSpec(n_strategies=2_000),
            requests=RequestBatchSpec(m_requests=50, k=10),
            engine=_engine(0.15),
            seed=19,
        ),
    )
    register(
        "heavy-tail",
        ScenarioSpec(
            kind="batch",
            description=(
                "Pareto-tailed ensemble: a few elite strategies over a "
                "mediocre mass (distribution='heavy-tail')"
            ),
            ensemble=EnsembleSpec(n_strategies=2_000, distribution="heavy-tail"),
            requests=RequestBatchSpec(m_requests=20, k=10),
            engine=_engine(0.5, workforce_mode="strict"),
            seed=23,
        ),
    )
    register(
        "mixture-of-distributions",
        ScenarioSpec(
            kind="batch",
            description=(
                "bimodal ensemble: 70% uniform mass + 30% tight normal "
                "elite (distribution='mixture')"
            ),
            ensemble=EnsembleSpec(
                n_strategies=2_000,
                distribution="mixture",
                options={
                    "components": [
                        ["uniform", 0.7],
                        ["normal", 0.3, {"mean": 0.9, "std": 0.03}],
                    ]
                },
            ),
            requests=RequestBatchSpec(m_requests=20, k=10),
            engine=_engine(0.5, workforce_mode="strict"),
            seed=29,
        ),
    )
    register(
        "high-k-stress",
        ScenarioSpec(
            kind="batch",
            description=(
                "high-k stress: every request demands k=|S|/2 strategies "
                "at once — the worst case for the workforce ledger"
            ),
            ensemble=EnsembleSpec(n_strategies=500),
            requests=RequestBatchSpec(m_requests=40, k=250),
            engine=_engine(0.7),
            seed=31,
        ),
    )
    register(
        "steady-stream",
        ScenarioSpec(
            kind="stream",
            description=(
                "steady streaming admission: |S|=30, 1000 arrivals in "
                "64-request micro-bursts, hold 2 (the `repro stream` defaults)"
            ),
            ensemble=EnsembleSpec(n_strategies=30),
            requests=RequestBatchSpec(m_requests=1_000, k=3),
            arrival=ArrivalSpec(process="steady", burst_size=64, hold_bursts=2),
            engine=_engine(0.9, aggregation="max"),
            seed=7,
        ),
    )
    register(
        "flash-crowd",
        ScenarioSpec(
            kind="stream",
            description=(
                "flash-crowd streaming: every 6th burst spikes 8x over the "
                "32-request baseline, stressing burst admission"
            ),
            ensemble=EnsembleSpec(n_strategies=50),
            requests=RequestBatchSpec(m_requests=1_200, k=3),
            arrival=ArrivalSpec(
                process="burst",
                burst_size=32,
                hold_bursts=2,
                spike_every=6,
                spike_factor=8.0,
            ),
            engine=_engine(0.8, aggregation="max"),
            seed=37,
        ),
    )
    register(
        "diurnal-stream",
        ScenarioSpec(
            kind="stream",
            description=(
                "diurnal streaming: burst sizes follow a sinusoidal load "
                "curve (±75% around 48 requests, 16-burst period)"
            ),
            ensemble=EnsembleSpec(n_strategies=50),
            requests=RequestBatchSpec(m_requests=1_200, k=3),
            arrival=ArrivalSpec(
                process="diurnal",
                burst_size=48,
                hold_bursts=2,
                period_bursts=16,
                amplitude=0.75,
            ),
            engine=_engine(0.85, aggregation="max"),
            seed=41,
        ),
    )
    register(
        "deferred-churn",
        ScenarioSpec(
            kind="stream",
            description=(
                "deferred-queue churn: W=0.7 with k=3 and long holds keeps "
                "the deferred queue full and the retry path hot"
            ),
            ensemble=EnsembleSpec(n_strategies=30),
            requests=RequestBatchSpec(m_requests=800, k=3),
            arrival=ArrivalSpec(process="steady", burst_size=32, hold_bursts=5),
            engine=_engine(0.7, aggregation="max"),
            seed=43,
        ),
    )
    register(
        "recorded-trace",
        ScenarioSpec(
            kind="trace",
            description=(
                "reenact a recorded decision journal: point trace_path at "
                "a --journal directory (repro simulate recorded-trace "
                "--set trace_path=...) and the primary ensemble's "
                "sessions replay against this engine spec"
            ),
            # Nominal sub-specs: a trace scenario's workload is the
            # journal itself, not a generated batch.  The engine spec is
            # what the trace replays *against* — override it (--set
            # availability=0.3 etc.) to make the reenactment a
            # counterfactual instead of a determinism check.
            ensemble=EnsembleSpec(n_strategies=1),
            requests=RequestBatchSpec(m_requests=1, k=1),
            engine=_engine(0.6),
            seed=7,
        ),
    )
    register(
        "adversarial-arrivals",
        ScenarioSpec(
            kind="stream",
            description=(
                "adversarial ordering: the hardest requests (tight budgets, "
                "demanding quality) arrive first and drain the ledger early"
            ),
            ensemble=EnsembleSpec(n_strategies=40),
            requests=RequestBatchSpec(m_requests=800, k=4),
            arrival=ArrivalSpec(
                process="adversarial", burst_size=32, hold_bursts=3
            ),
            engine=_engine(0.6, aggregation="max"),
            seed=47,
        ),
    )
    return registry


_DEFAULT_REGISTRY: "ScenarioRegistry | None" = None


def default_scenario_registry() -> ScenarioRegistry:
    """The process-wide registry with the built-in scenario catalog.

    Built lazily on first use — the catalog carries
    :class:`~repro.api.wire.EngineSpec` values and the wire module
    imports the spec classes, so eager construction would cycle.
    """
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = _builtin_registry()
    return _DEFAULT_REGISTRY
