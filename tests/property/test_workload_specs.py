"""Property tests for the declarative WorkloadSpec family.

Three contracts:

* **Lossless JSON round trip** — every spec (randomized and every named
  catalog family) survives ``decode(type(x), json.loads(json.dumps(
  encode(x)))) == x``, including the ``simulate`` envelopes.
* **Seed determinism** — ``ScenarioSpec.build()`` is a pure function of
  the spec: two builds of an equal spec produce bitwise-identical
  ensembles and identical request batches.
* **Seed fidelity** — ``ScenarioSpec(kind="batch" | "adpar").build()``
  reproduces the seed-era generator pipeline exactly (the generator
  calls re-implemented inline here).  The pins keep their ``*_shim_*``
  names from the seed-era scenario classes they first pinned.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    EngineSpec,
    SimulateRequest,
    SimulateResponse,
    decode,
    encode,
    parse_request,
    parse_response,
)
from repro.core.strategy import StrategyEnsemble
from repro.utils.rng import spawn_rngs
from repro.workloads import (
    ArrivalSpec,
    EnsembleSpec,
    RequestBatchSpec,
    ScenarioSpec,
    SimulationReport,
    default_scenario_registry,
)
from repro.workloads.generators import (
    generate_adpar_points,
    generate_requests,
    generate_strategy_ensemble,
    hard_request_for,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def ensemble_specs(draw):
    distribution = draw(
        st.sampled_from(["uniform", "normal", "heavy-tail", "mixture"])
    )
    options = None
    if distribution == "mixture":
        options = {
            "components": [
                ["uniform", draw(st.floats(0.1, 2.0))],
                ["normal", draw(st.floats(0.1, 2.0)), {"mean": 0.8, "std": 0.05}],
            ]
        }
    elif distribution == "heavy-tail" and draw(st.booleans()):
        options = {"tail": draw(st.floats(0.5, 3.0)), "scale": 0.1}
    return EnsembleSpec(
        n_strategies=draw(st.integers(1, 200)),
        distribution=distribution,
        options=options,
    )


@st.composite
def request_batch_specs(draw):
    low = draw(st.floats(0.1, 0.7))
    return RequestBatchSpec(
        m_requests=draw(st.integers(1, 50)),
        k=draw(st.integers(1, 20)),
        low=low,
        high=draw(st.floats(low + 0.05, 1.0)),
        task_type=draw(st.sampled_from(["generic", "translation"])),
        quality_offset=draw(st.floats(0.0, 0.5)),
        prefix=draw(st.sampled_from(["d", "s", "req-"])),
    )


@st.composite
def arrival_specs(draw):
    return ArrivalSpec(
        process=draw(
            st.sampled_from(["steady", "burst", "diurnal", "adversarial"])
        ),
        burst_size=draw(st.integers(1, 128)),
        hold_bursts=draw(st.integers(1, 5)),
        spike_every=draw(st.integers(2, 10)),
        spike_factor=draw(st.floats(1.0, 8.0)),
        period_bursts=draw(st.integers(2, 24)),
        amplitude=draw(st.floats(0.0, 0.95)),
    )


@st.composite
def engine_specs(draw):
    return EngineSpec(
        availability=draw(unit),
        objective=draw(st.sampled_from(["throughput", "payoff"])),
        aggregation=draw(st.sampled_from(["sum", "max"])),
        workforce_mode=draw(st.sampled_from(["paper", "strict"])),
        solver_options=draw(
            st.none() | st.just({"norm": "l1", "weights": (2.0, 1.0, 1.0)})
        ),
    )


@st.composite
def scenario_specs(draw):
    kind = draw(st.sampled_from(["batch", "stream", "adpar"]))
    return ScenarioSpec(
        kind=kind,
        ensemble=draw(ensemble_specs()),
        requests=draw(request_batch_specs()),
        seed=draw(st.integers(0, 2**31)),
        name=draw(st.sampled_from(["", "some-family"])),
        description=draw(st.sampled_from(["", "a scenario"])),
        arrival=draw(st.none() | arrival_specs()),
        engine=draw(st.none() | engine_specs()),
        tightness=draw(unit),
    )


def wire_trip(value):
    return decode(type(value), json.loads(json.dumps(encode(value))))


# ------------------------------------------------------------- round trips
@settings(max_examples=60, deadline=None)
@given(ensemble_specs())
def test_ensemble_spec_roundtrip(spec):
    assert wire_trip(spec) == spec


@settings(max_examples=60, deadline=None)
@given(request_batch_specs())
def test_request_batch_spec_roundtrip(spec):
    assert wire_trip(spec) == spec


@settings(max_examples=60, deadline=None)
@given(arrival_specs())
def test_arrival_spec_roundtrip(spec):
    assert wire_trip(spec) == spec


@settings(max_examples=60, deadline=None)
@given(scenario_specs())
def test_scenario_spec_roundtrip(spec):
    assert wire_trip(spec) == spec


def test_every_catalog_family_roundtrips():
    registry = default_scenario_registry()
    assert len(registry.names()) >= 8
    for name in registry.names():
        spec = registry.get(name)
        back = wire_trip(spec)
        assert back == spec, name


@settings(max_examples=30, deadline=None)
@given(scenario_specs())
def test_simulate_request_roundtrip(spec):
    for envelope in (
        SimulateRequest(scenario=spec),
        SimulateRequest(name="paper-batch"),
        SimulateRequest(
            name="paper-batch",
            overrides={"n_strategies": 50, "solver_options": {"norm": "l2"}},
        ),
    ):
        assert (
            parse_request(json.loads(json.dumps(envelope.to_dict()))) == envelope
        )


@settings(max_examples=20, deadline=None)
@given(scenario_specs(), unit, st.integers(0, 100))
def test_simulate_response_roundtrip(spec, elapsed, count):
    report = SimulationReport(
        scenario=spec,
        kind=spec.kind,
        fingerprint="f" * 64,
        n_strategies=spec.ensemble.n_strategies,
        arrivals=count,
        elapsed_s=elapsed,
        satisfied=count // 2,
        alternative=count - count // 2,
        objective_value=elapsed * 3,
        utilization=elapsed,
        mean_distance=elapsed / 2,
    )
    envelope = SimulateResponse(report=report)
    assert parse_response(json.loads(json.dumps(envelope.to_dict()))) == envelope


# -------------------------------------------------------- seed determinism
@settings(max_examples=20, deadline=None)
@given(scenario_specs())
def test_build_is_seed_deterministic(spec):
    ensemble_a, payload_a = spec.build()
    ensemble_b, payload_b = spec.build()
    np.testing.assert_array_equal(ensemble_a.alpha, ensemble_b.alpha)
    np.testing.assert_array_equal(ensemble_a.beta, ensemble_b.beta)
    if spec.kind == "adpar":
        assert payload_a == payload_b
    else:
        assert [r.request_id for r in payload_a] == [
            r.request_id for r in payload_b
        ]
        assert [r.params.as_tuple() for r in payload_a] == [
            r.params.as_tuple() for r in payload_b
        ]


@settings(max_examples=20, deadline=None)
@given(arrival_specs(), st.integers(1, 3000))
def test_arrival_schedule_covers_exactly(spec, arrivals):
    schedule = spec.schedule(arrivals)
    assert sum(schedule) == arrivals
    assert all(size >= 1 for size in schedule)


# ------------------------------------------------------------ seed fidelity
@settings(max_examples=15, deadline=None)
@given(
    st.integers(1, 100),
    st.integers(1, 20),
    st.integers(1, 20),
    st.sampled_from(["uniform", "normal"]),
    st.integers(0, 2**31),
)
def test_batch_scenario_shim_matches_seed_implementation(
    n, m, k, distribution, seed
):
    """A batch spec's build == the seed-era build, bit for bit."""
    spec_ensemble, spec_requests = ScenarioSpec(
        kind="batch",
        ensemble=EnsembleSpec(n_strategies=n, distribution=distribution),
        requests=RequestBatchSpec(m_requests=m, k=k),
        seed=seed,
    ).build()
    rng_strategies, rng_requests = spawn_rngs(seed, 2)
    ensemble = generate_strategy_ensemble(n, distribution, rng_strategies)
    requests = generate_requests(m, k, rng_requests)
    np.testing.assert_array_equal(spec_ensemble.alpha, ensemble.alpha)
    np.testing.assert_array_equal(spec_ensemble.beta, ensemble.beta)
    assert [r.request_id for r in spec_requests] == [
        r.request_id for r in requests
    ]
    assert [r.params.as_tuple() for r in spec_requests] == [
        r.params.as_tuple() for r in requests
    ]
    assert [r.k for r in spec_requests] == [r.k for r in requests]


@settings(max_examples=15, deadline=None)
@given(
    st.integers(1, 100),
    st.sampled_from(["uniform", "normal"]),
    st.integers(0, 2**31),
    unit,
)
def test_adpar_scenario_shim_matches_seed_implementation(
    n, distribution, seed, tightness
):
    """An adpar spec's build == the seed-era build, bit for bit."""
    spec_ensemble, spec_request = ScenarioSpec(
        kind="adpar",
        ensemble=EnsembleSpec(n_strategies=n, distribution=distribution),
        requests=RequestBatchSpec(m_requests=1, k=5),
        seed=seed,
        tightness=tightness,
    ).build()
    rng_points, rng_request = spawn_rngs(seed, 2)
    points = generate_adpar_points(n, distribution, rng_points)
    request = hard_request_for(points, rng_request, tightness=tightness)
    expected = StrategyEnsemble.from_params(points)
    assert spec_request == request
    np.testing.assert_array_equal(spec_ensemble.alpha, expected.alpha)
    np.testing.assert_array_equal(spec_ensemble.beta, expected.beta)


def test_shim_build_pinned_to_seed_constants():
    """Absolute pin: a batch spec's first draws never drift."""
    ensemble, requests = ScenarioSpec(
        kind="batch",
        ensemble=EnsembleSpec(n_strategies=3),
        requests=RequestBatchSpec(m_requests=2, k=4),
        seed=7,
    ).build()
    # Regenerated from the seed implementation; any change to the
    # spawn/generate pipeline breaks this.
    rng_strategies, rng_requests = spawn_rngs(7, 2)
    expected = generate_strategy_ensemble(3, "uniform", rng_strategies)
    np.testing.assert_array_equal(ensemble.alpha, expected.alpha)
    assert [r.request_id for r in requests] == ["d1", "d2"]
    assert all(r.k == 4 for r in requests)
