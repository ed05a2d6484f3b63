"""The declarative ``WorkloadSpec`` family — workloads as data.

A workload used to be imperative code: every fig-runner, example and CLI
subcommand hand-wired ``generate_strategy_ensemble`` + ``generate_requests``
calls around its own seeds.  This module turns that construction into
frozen, serializable specs that compose:

* :class:`EnsembleSpec` — how many strategies, drawn from which
  (pluggable, see :func:`~repro.workloads.generators.register_distribution`)
  dimension-value distribution.
* :class:`RequestBatchSpec` — how many deployment requests, with which
  parameter ranges and ``k``.
* :class:`ArrivalSpec` — how a stream of requests arrives: ``steady``
  micro-bursts, ``burst`` flash crowds, ``diurnal`` load curves, or
  ``adversarial`` hardest-first ordering.
* :class:`ScenarioSpec` — the composition: a kind (``batch`` / ``stream``
  / ``adpar``), the sub-specs above, engine/solver knobs (an
  :class:`~repro.api.wire.EngineSpec`), and one seed from which
  :meth:`ScenarioSpec.build` materializes everything bit-for-bit
  deterministically.

Every spec round-trips losslessly through the JSON codec
(:func:`repro.api.encode` / :func:`repro.api.decode`), so a
``repro serve`` client can describe a 10k-strategy workload in a few
hundred bytes and let the server materialize it (the ``simulate``
envelope).  Named spec families live in the
:class:`~repro.workloads.registry.ScenarioRegistry`.

Sweep helpers (:meth:`ScenarioSpec.with_` and the checked
:func:`replace_spec`) reject unknown field names with a typed
:class:`~repro.exceptions.InvalidSpecError` — mapped to the stable
``invalid_spec`` service error code — instead of the bare ``TypeError``
``dataclasses.replace`` would leak.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.core.params import TriParams
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.exceptions import InvalidSpecError
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.workloads.generators import (
    generate_adpar_points,
    generate_requests,
    generate_strategy_ensemble,
    hard_request_for,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (wire imports us)
    from repro.api.wire import EngineSpec

#: The scenario kinds :meth:`ScenarioSpec.build` understands.  ``trace``
#: replays a recorded decision journal (``trace_path``) instead of
#: generating synthetic requests.
SCENARIO_KINDS = ("batch", "stream", "adpar", "trace")

#: The arrival processes :class:`ArrivalSpec` models.
ARRIVAL_PROCESSES = ("steady", "burst", "diurnal", "adversarial")


def replace_spec(spec, **overrides):
    """``dataclasses.replace`` with a typed error for unknown fields.

    The sweep helper every spec's ``with_`` routes through: an override
    naming a field the spec lacks raises :class:`InvalidSpecError`
    (stable ``invalid_spec`` wire code) instead of a bare ``TypeError``
    that would surface as a 500 through ``repro serve``.
    """
    known = {f.name for f in fields(spec)}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise InvalidSpecError(
            f"unknown {type(spec).__name__} field(s) "
            f"{', '.join(repr(name) for name in unknown)}; "
            f"known fields: {', '.join(sorted(known))}"
        )
    try:
        return replace(spec, **overrides)
    except (TypeError, ValueError) as exc:
        raise InvalidSpecError(
            f"invalid {type(spec).__name__} override: {exc}"
        ) from exc


def _check_int(name: str, value) -> None:
    """Typed integer check (bool is not an int here; numpy ints are)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidSpecError(
            f"{name} must be an integer, got {type(value).__name__}"
        )


def _check_number(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise InvalidSpecError(
            f"{name} must be a number, got {type(value).__name__}"
        )


def _check_str(name: str, value) -> None:
    if not isinstance(value, str):
        raise InvalidSpecError(
            f"{name} must be a string, got {type(value).__name__}"
        )


def _canonical_options(options) -> str:
    """Distribution options canonicalized to one hashable JSON string.

    ``""`` means no options.  Canonical form (sorted keys, no spaces)
    makes spec equality/hashing independent of dict insertion order, and
    keeps frozen specs hashable while still carrying nested structures
    (e.g. mixture component lists).
    """
    if options is None:
        return ""
    if isinstance(options, str):
        if not options:
            return ""
        try:
            options = json.loads(options)
        except json.JSONDecodeError as exc:
            raise InvalidSpecError(
                f"distribution options must be a JSON object: {exc}"
            ) from exc
    if not isinstance(options, dict):
        raise InvalidSpecError(
            "distribution options must be a mapping, got "
            f"{type(options).__name__}"
        )
    if not options:
        return ""
    try:
        return json.dumps(options, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise InvalidSpecError(
            f"distribution options must be JSON-serializable: {exc}"
        ) from exc


@dataclass(frozen=True)
class EnsembleSpec:
    """One strategy ensemble, declaratively: size + dimension distribution.

    ``options`` accepts a mapping at construction time and is stored as
    its canonical JSON string (``""`` = none), so the spec stays frozen,
    hashable, and equality-stable across JSON round trips.
    """

    n_strategies: int = 10_000
    distribution: str = "uniform"
    options: str = ""

    def __post_init__(self):
        object.__setattr__(self, "options", _canonical_options(self.options))
        _check_int("n_strategies", self.n_strategies)
        _check_str("distribution", self.distribution)
        if self.n_strategies < 1:
            raise InvalidSpecError("n_strategies must be >= 1")

    def options_dict(self) -> "dict | None":
        """The options mapping (``None`` when there are none)."""
        return json.loads(self.options) if self.options else None

    def with_(self, **overrides) -> "EnsembleSpec":
        return replace_spec(self, **overrides)

    def build(self, rng=None) -> StrategyEnsemble:
        """Materialize the ensemble (linear α/β models) from ``rng``."""
        return generate_strategy_ensemble(
            self.n_strategies,
            self.distribution,
            ensure_rng(rng),
            options=self.options_dict(),
        )

    def build_points(self, rng=None) -> list[TriParams]:
        """Materialize fixed parameter points (the ADPaR setting)."""
        return generate_adpar_points(
            self.n_strategies,
            self.distribution,
            ensure_rng(rng),
            options=self.options_dict(),
        )


@dataclass(frozen=True)
class RequestBatchSpec:
    """One batch (or stream) of deployment requests, declaratively."""

    m_requests: int = 10
    k: int = 10
    low: float = 0.625
    high: float = 1.0
    task_type: str = "generic"
    quality_offset: float = 0.25
    prefix: str = "d"

    def __post_init__(self):
        _check_int("m_requests", self.m_requests)
        _check_int("k", self.k)
        _check_number("low", self.low)
        _check_number("high", self.high)
        _check_number("quality_offset", self.quality_offset)
        _check_str("task_type", self.task_type)
        _check_str("prefix", self.prefix)
        if self.m_requests < 1:
            raise InvalidSpecError("m_requests must be >= 1")
        if self.k < 1:
            raise InvalidSpecError("k must be >= 1")
        # Chained comparisons are False for NaN and, unlike math.isfinite,
        # do not raise on ints too large for a float.
        for name in ("low", "high"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InvalidSpecError(
                    f"{name} must be finite and in [0, 1], got {value!r}"
                )
        if self.low > self.high:
            raise InvalidSpecError(
                f"low must be <= high, got low={self.low!r} > "
                f"high={self.high!r}"
            )
        if not 0.0 <= self.quality_offset <= sys.float_info.max:
            raise InvalidSpecError(
                "quality_offset must be finite and >= 0, got "
                f"{self.quality_offset!r}"
            )

    def with_(self, **overrides) -> "RequestBatchSpec":
        return replace_spec(self, **overrides)

    def build(self, rng=None) -> list[DeploymentRequest]:
        """Materialize the request batch from ``rng``."""
        return generate_requests(
            self.m_requests,
            self.k,
            ensure_rng(rng),
            low=self.low,
            high=self.high,
            task_type=self.task_type,
            quality_offset=self.quality_offset,
            prefix=self.prefix,
        )


@dataclass(frozen=True)
class ArrivalSpec:
    """How a stream of requests reaches the admission loop.

    ``schedule`` turns an arrival count into deterministic micro-burst
    sizes; ``order`` decides the request ordering.  Processes:

    ``steady``
        Constant ``burst_size`` micro-bursts (the seed behaviour).
    ``burst``
        Every ``spike_every``-th burst is a flash crowd of
        ``spike_factor × burst_size`` arrivals.
    ``diurnal``
        Burst sizes follow one sinusoidal load curve per
        ``period_bursts`` bursts, swinging ``±amplitude``.
    ``adversarial``
        Steady bursts, but the hardest requests (tight budgets, high
        quality demands) arrive first, front-loading ledger pressure.
    """

    process: str = "steady"
    burst_size: int = 64
    hold_bursts: int = 2
    spike_every: int = 8
    spike_factor: float = 4.0
    period_bursts: int = 12
    amplitude: float = 0.75

    def __post_init__(self):
        if self.process not in ARRIVAL_PROCESSES:
            raise InvalidSpecError(
                f"process must be one of {ARRIVAL_PROCESSES}, "
                f"got {self.process!r}"
            )
        _check_int("burst_size", self.burst_size)
        _check_int("hold_bursts", self.hold_bursts)
        _check_int("spike_every", self.spike_every)
        _check_int("period_bursts", self.period_bursts)
        _check_number("spike_factor", self.spike_factor)
        _check_number("amplitude", self.amplitude)
        if self.burst_size < 1:
            raise InvalidSpecError("burst_size must be >= 1")
        if self.hold_bursts < 1:
            raise InvalidSpecError("hold_bursts must be >= 1")
        if self.spike_every < 2:
            raise InvalidSpecError("spike_every must be >= 2")
        if self.spike_factor < 1.0:
            raise InvalidSpecError("spike_factor must be >= 1")
        if self.period_bursts < 2:
            raise InvalidSpecError("period_bursts must be >= 2")
        if not 0.0 <= self.amplitude < 1.0:
            raise InvalidSpecError("amplitude must be in [0, 1)")

    def with_(self, **overrides) -> "ArrivalSpec":
        return replace_spec(self, **overrides)

    def schedule(self, arrivals: int) -> list[int]:
        """Deterministic micro-burst sizes summing to ``arrivals``."""
        if arrivals < 1:
            raise InvalidSpecError("arrivals must be >= 1")
        sizes: list[int] = []
        total = 0
        index = 0
        while total < arrivals:
            size = self.burst_size
            if self.process == "burst" and (index + 1) % self.spike_every == 0:
                size = max(1, int(round(self.burst_size * self.spike_factor)))
            elif self.process == "diurnal":
                swing = self.amplitude * math.sin(
                    2.0 * math.pi * index / self.period_bursts
                )
                size = max(1, int(round(self.burst_size * (1.0 + swing))))
            size = min(size, arrivals - total)
            sizes.append(size)
            total += size
            index += 1
        return sizes

    def order(self, requests: list) -> list:
        """The arrival ordering (``adversarial`` sorts hardest-first)."""
        if self.process != "adversarial":
            return list(requests)
        # Hardest = tight cost/latency budgets with a demanding quality
        # floor; the stable sort keeps equally-hard requests in stream
        # order, so the schedule stays deterministic.
        return sorted(
            requests,
            key=lambda r: r.params.cost + r.params.latency - r.params.quality,
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, serializable workload scenario.

    Composes the ensemble/requests/arrival specs with the engine
    configuration (:class:`~repro.api.wire.EngineSpec`) and a single
    seed.  :meth:`build` is bit-for-bit deterministic: two equal specs
    materialize identical ensembles and requests.
    """

    kind: str = "batch"
    ensemble: EnsembleSpec = field(default_factory=EnsembleSpec)
    requests: RequestBatchSpec = field(default_factory=RequestBatchSpec)
    seed: int = 7
    name: str = ""
    description: str = ""
    arrival: "ArrivalSpec | None" = None
    engine: "EngineSpec | None" = None
    tightness: float = 0.15
    trace_path: str = ""

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise InvalidSpecError(
                f"kind must be one of {SCENARIO_KINDS}, got {self.kind!r}"
            )
        # Composite fields are validated here so a bad override (e.g.
        # ``--set ensemble=5`` over the wire) answers the typed
        # invalid_spec error instead of an AttributeError deep in build.
        if not isinstance(self.ensemble, EnsembleSpec):
            raise InvalidSpecError(
                "ensemble must be an EnsembleSpec, got "
                f"{type(self.ensemble).__name__}"
            )
        if not isinstance(self.requests, RequestBatchSpec):
            raise InvalidSpecError(
                "requests must be a RequestBatchSpec, got "
                f"{type(self.requests).__name__}"
            )
        if self.arrival is not None and not isinstance(self.arrival, ArrivalSpec):
            raise InvalidSpecError(
                f"arrival must be an ArrivalSpec, got "
                f"{type(self.arrival).__name__}"
            )
        if self.engine is not None:
            from repro.api.wire import EngineSpec

            if not isinstance(self.engine, EngineSpec):
                raise InvalidSpecError(
                    f"engine must be an EngineSpec, got "
                    f"{type(self.engine).__name__}"
                )
        _check_int("seed", self.seed)
        if self.seed < 0:
            raise InvalidSpecError("seed must be >= 0")
        _check_number("tightness", self.tightness)
        if not 0.0 <= self.tightness <= 1.0:
            raise InvalidSpecError("tightness must be in [0, 1]")
        _check_str("trace_path", self.trace_path)

    # ------------------------------------------------------------ overrides
    #: Flat override aliases ``with_`` routes into sub-specs, so sweeps
    #: stay one flat call: ``spec.with_(n_strategies=500,
    #: availability=0.3, burst_size=128)``.
    _ENSEMBLE_KEYS = frozenset(("n_strategies", "distribution"))
    _REQUEST_KEYS = frozenset(
        ("m_requests", "k", "low", "high", "task_type", "quality_offset", "prefix")
    )
    _ARRIVAL_KEYS = frozenset(
        (
            "process",
            "burst_size",
            "hold_bursts",
            "spike_every",
            "spike_factor",
            "period_bursts",
            "amplitude",
        )
    )
    _ENGINE_KEYS = frozenset(
        (
            "availability",
            "objective",
            "aggregation",
            "workforce_mode",
            "eligibility",
            "planner",
            "planner_options",
            "solver",
            "solver_options",
        )
    )

    def with_(self, **overrides) -> "ScenarioSpec":
        """Copy with overrides; flat aliases reach into the sub-specs.

        Unknown field names raise :class:`InvalidSpecError` — the whole
        override is rejected, nothing is partially applied.
        """
        own_fields = {f.name for f in fields(self)}
        own: dict = {}
        ensemble: dict = {}
        requests: dict = {}
        arrival: dict = {}
        engine: dict = {}
        unknown: list[str] = []
        for key, value in overrides.items():
            if key in own_fields:
                own[key] = value
            elif key in self._ENSEMBLE_KEYS:
                ensemble[key] = value
            elif key == "distribution_options":
                ensemble["options"] = value
            elif key in self._REQUEST_KEYS:
                requests[key] = value
            elif key in self._ARRIVAL_KEYS:
                arrival[key] = value
            elif key in self._ENGINE_KEYS:
                engine[key] = value
            else:
                unknown.append(key)
        if unknown:
            known = sorted(
                own_fields
                | self._ENSEMBLE_KEYS
                | {"distribution_options"}
                | self._REQUEST_KEYS
                | self._ARRIVAL_KEYS
                | self._ENGINE_KEYS
            )
            raise InvalidSpecError(
                f"unknown ScenarioSpec field(s) "
                f"{', '.join(repr(name) for name in sorted(unknown))}; "
                f"known fields and aliases: {', '.join(known)}"
            )
        for sub_name, aliases in (
            ("ensemble", ensemble),
            ("requests", requests),
            ("arrival", arrival),
            ("engine", engine),
        ):
            if aliases and sub_name in own:
                raise InvalidSpecError(
                    f"override {sub_name!r} either as a whole spec or via "
                    f"its flat aliases ({', '.join(sorted(aliases))}), "
                    "not both"
                )
        if ensemble:
            own["ensemble"] = self.ensemble.with_(**ensemble)
        if requests:
            own["requests"] = self.requests.with_(**requests)
        if arrival:
            base = self.arrival if self.arrival is not None else ArrivalSpec()
            own["arrival"] = base.with_(**arrival)
        if engine:
            own["engine"] = self._engine_with(engine)
        return replace_spec(self, **own) if own else self

    def _engine_with(self, overrides: dict) -> "EngineSpec":
        from repro.api.wire import EngineSpec

        if self.engine is not None:
            try:
                return replace(self.engine, **overrides)
            except (TypeError, ValueError) as exc:
                raise InvalidSpecError(
                    f"invalid EngineSpec override: {exc}"
                ) from exc
        if "availability" not in overrides:
            raise InvalidSpecError(
                "engine overrides on a scenario without an engine spec "
                "must include 'availability'"
            )
        try:
            return EngineSpec(**overrides)
        except (TypeError, ValueError) as exc:
            raise InvalidSpecError(f"invalid EngineSpec override: {exc}") from exc

    # --------------------------------------------------------------- build
    def build(self, rng: "int | np.random.Generator | None" = None):
        """Materialize the scenario's workload, bit-for-bit deterministic.

        ``batch`` / ``stream`` kinds return ``(ensemble, requests)``;
        ``adpar`` returns ``(ensemble, hard_request)`` where the request
        is a deliberately unsatisfiable :class:`TriParams` near the point
        cloud (the seed's ADPaR setup, §5.2.2); ``trace`` reads
        the recorded journal at ``trace_path`` and returns ``(ensemble,
        TraceWorkload)`` — deterministic by construction, the trace *is*
        the workload.  ``rng`` overrides the spec seed — how the
        fig-runners drive repetition sweeps from externally spawned
        generators.
        """
        if self.kind == "trace":
            if not self.trace_path:
                raise InvalidSpecError(
                    "a 'trace' scenario needs trace_path (a decision "
                    "journal directory or segment file)"
                )
            from repro.journal.replay import load_trace

            return load_trace(self.trace_path)
        source = self.seed if rng is None else rng
        rng_ensemble, rng_requests = spawn_rngs(source, 2)
        if self.kind == "adpar":
            points = self.ensemble.build_points(rng_ensemble)
            request = hard_request_for(
                points, rng_requests, tightness=self.tightness
            )
            return StrategyEnsemble.from_params(points), request
        ensemble = self.ensemble.build(rng_ensemble)
        requests = self.requests.build(rng_requests)
        return ensemble, requests

    def arrival_plan(self, requests: list):
        """``(ordered, arrival, schedule)`` for materialized stream requests.

        The one place the effective :class:`ArrivalSpec` (spec's own, or
        the steady default), the arrival ordering, and the burst schedule
        are derived — :func:`~repro.workloads.simulate_scenario` drives
        every stream through this, the platform closed loop included.
        """
        arrival = self.arrival if self.arrival is not None else ArrivalSpec()
        ordered = arrival.order(requests)
        return ordered, arrival, arrival.schedule(len(ordered))

    def build_stream(self, rng: "int | np.random.Generator | None" = None):
        """Materialize a stream scenario as ``(ensemble, ordered, arrival)``.

        Requests come back already in arrival order (the ``adversarial``
        process reorders; the others keep stream order) together with the
        effective :class:`ArrivalSpec`.
        """
        if self.kind != "stream":
            raise InvalidSpecError(
                f"build_stream needs a 'stream' scenario, got kind={self.kind!r}"
            )
        ensemble, requests = self.build(rng)
        ordered, arrival, _ = self.arrival_plan(requests)
        return ensemble, ordered, arrival

    def deployment_request(self, params: TriParams) -> DeploymentRequest:
        """Wrap an ADPaR hard request as a :class:`DeploymentRequest`."""
        return DeploymentRequest(
            request_id=f"{self.requests.prefix}1",
            params=params,
            k=self.requests.k,
            task_type=self.requests.task_type,
        )
