"""The backend contract: every registered name is covered by construction.

One suite per registry, modelled on forml's strategy tests: the clauses
live on a base class and each concrete subclass binds one registry,
parametrized over its ``names()``.  A newly registered planner, solver
or scenario family is collected with no test edit, and fails until
someone decides how its answers are pinned.

Every planner and solver name:

1. answers deterministically: two fresh ``EngineService``s agree;
2. has a :data:`REFERENCES` entry naming the oracle its answers are
   pinned to over hypothesis-drawn instances, or none, with the reason;
3. answers an out-of-range value of each option it reads
   (:data:`BAD_OPTIONS`) with a typed error through ``handle_dict``,
   never ``internal``;
4. (solvers) answers an equal-content ensemble from another upload
   identically;
5. answers with a response that round-trips through ``parse_response``.

Every scenario family simulates deterministically (wall-clock aside)
and its response round-trips.
"""

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from admissible_inputs import adpar_batches, random_batches, unit
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    AlternativesRequest,
    EngineService,
    EngineSpec,
    EnsembleRef,
    PlanRequest,
    SimulateRequest,
    parse_response,
)
from repro.baselines.adpar_bruteforce import adpar_brute_force
from repro.baselines.adpar_onedim import OneDimBaseline
from repro.baselines.adpar_rtree import RTreeBaseline
from repro.baselines.batch_bruteforce import batch_brute_force
from repro.core.adpar import ADPaRExact
from repro.core.adpar_variants import (
    NORMS,
    RelaxationPenalty,
    weighted_adpar_brute_force,
)
from repro.core.batchstrat import BatchStrat
from repro.core.params import TriParams
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.engine import (
    RecommendationEngine,
    default_registry,
    default_solver_registry,
)
from repro.workloads import default_scenario_registry
from repro.workloads.generators import (
    generate_requests,
    generate_strategy_ensemble,
)

RECORDED = Path(__file__).resolve().parents[1] / "golden" / "recorded"

#: The service-level clauses' workload: small enough for the exhaustive
#: backends, and with requests the planners refuse.
ENSEMBLE = generate_strategy_ensemble(12, "uniform", seed=29)
REQUESTS = tuple(generate_requests(6, k=3, seed=31))

weight = st.floats(min_value=0.125, max_value=10.0, allow_nan=False, width=32)


# ----------------------------------------------------------------- instances
#: One request under a drawn norm and weights, the weighted solver's options.
weighted_batches = st.tuples(
    random_batches(max_points=8, max_requests=1),
    st.sampled_from(NORMS),
    st.tuples(weight, weight, weight),
)


@st.composite
def planner_batches(draw):
    """Small worlds where brute force stays tractable.

    Strategies are modeled with a cost slope of 1 so every request's
    workforce requirement is its cost threshold: a clean knapsack.
    """
    n_strategies = draw(st.integers(min_value=1, max_value=3))
    alpha = np.zeros((n_strategies, 3))
    beta = np.zeros((n_strategies, 3))
    for j in range(n_strategies):
        alpha[j] = [0.0, 1.0, 0.0]
        beta[j] = [draw(unit), 0.0, draw(unit)]
    ensemble = StrategyEnsemble.from_arrays(alpha, beta)
    requests = [
        DeploymentRequest(
            f"d{i}",
            TriParams(draw(unit), draw(unit), draw(unit)),
            k=draw(st.integers(min_value=1, max_value=n_strategies)),
        )
        for i in range(draw(st.integers(min_value=1, max_value=7)))
    ]
    return ensemble, requests, draw(unit)


def deployment_requests(specs) -> "list[DeploymentRequest]":
    return [
        DeploymentRequest(f"d{i}", params, k=k)
        for i, (params, k) in enumerate(specs)
    ]


# ------------------------------------------------------------------- oracles
def matches_bitwise(reference: Callable) -> Callable:
    """Both engine paths answer exactly what ``reference(ensemble)``'s
    ``solve`` does: the batch path, then each request on a fresh engine."""

    def check(name, instance):
        points, specs = instance
        ensemble = StrategyEnsemble.from_params(points)
        requests = deployment_requests(specs)
        solve = reference(ensemble)
        expected = [solve(request) for request in requests]
        batch = RecommendationEngine(ensemble, 1.0, solver=name)
        assert batch.recommend_alternatives(requests) == expected
        scalar = RecommendationEngine(ensemble, 1.0, solver=name)
        assert [scalar.recommend_alternative(r) for r in requests] == expected

    return check


def matches_weighted_brute_force(name, instance):
    """The optimum distance under the norm and weights, covering >= k."""
    (points, specs), norm, weights = instance
    ensemble = StrategyEnsemble.from_params(points)
    penalty = RelaxationPenalty(weights=weights, norm=norm)
    engine = RecommendationEngine(
        ensemble,
        1.0,
        solver=name,
        solver_options={"norm": norm, "weights": weights},
    )
    for request in deployment_requests(specs):
        got = engine.recommend_alternative(request)
        brute = weighted_adpar_brute_force(
            ensemble, request, request.k, penalty=penalty
        )
        assert math.isclose(got.distance, brute.distance, abs_tol=1e-9)
        covered = sum(got.alternative.satisfied_by(p) for p in points)
        assert covered >= request.k


def planned(name, instance, objective, options=None):
    ensemble, requests, availability = instance
    engine = RecommendationEngine(
        ensemble, availability, planner=name, planner_options=options
    )
    return engine.plan(requests, objective).objective_value


def exhaustive(instance, objective):
    ensemble, requests, availability = instance
    return batch_brute_force(
        ensemble, requests, availability, objective
    ).objective_value


def matches_optimal_throughput(name, instance):
    """Theorem 2: the greedy is throughput-exact."""
    assert planned(name, instance, "throughput") == exhaustive(
        instance, "throughput"
    )


def payoff_within_rounding_slack(name, instance):
    """The DP rounds weights up, so it can only lose the items whose
    exact weights straddle a bucket boundary: at this resolution its
    pay-off is the optimum up to rounding slack."""
    got = planned(name, instance, "payoff", {"resolution": 100_000})
    optimum = exhaustive(instance, "payoff")
    assert optimum - 1e-3 <= got <= optimum + 1e-9


def never_beats_batchstrat(name, instance):
    ensemble, requests, availability = instance
    greedy = BatchStrat(ensemble, availability)
    for objective in ("throughput", "payoff"):
        best = greedy.run(requests, objective).objective_value
        assert planned(name, instance, objective) <= best + 1e-9


@dataclass(frozen=True)
class Oracle:
    """How one backend's answers are pinned: ``check(name, instance)``
    over ``max_examples`` draws of ``instances``.  A backend that is
    itself the oracle has ``check=None`` and says why in ``reason``."""

    check: "Callable | None"
    instances: "st.SearchStrategy | None" = None
    max_examples: int = 0
    reason: str = ""


EXACT = Oracle(
    matches_bitwise(lambda ensemble: ADPaRExact(ensemble).solve),
    adpar_batches,
    150,
)

#: Registered planner and solver name -> the oracle its answers match.
REFERENCES = {
    "batch-greedy": Oracle(matches_optimal_throughput, planner_batches(), 60),
    "payoff-dp": Oracle(payoff_within_rounding_slack, planner_batches(), 60),
    "baseline-greedy": Oracle(never_beats_batchstrat, planner_batches(), 60),
    "batch-bruteforce": Oracle(
        None, reason="exhaustive enumeration is itself the planners' oracle"
    ),
    "adpar-exact": EXACT,
    "adpar-incremental": EXACT,
    "adpar-weighted": Oracle(matches_weighted_brute_force, weighted_batches, 120),
    "onedim": Oracle(
        matches_bitwise(lambda ensemble: OneDimBaseline(ensemble).solve),
        adpar_batches,
        60,
    ),
    "rtree": Oracle(
        matches_bitwise(lambda ensemble: RTreeBaseline(ensemble).solve),
        adpar_batches,
        60,
    ),
    "bruteforce": Oracle(
        matches_bitwise(lambda ensemble: partial(adpar_brute_force, ensemble)),
        adpar_batches,
        60,
    ),
}

#: Name -> an out-of-range value of each option the backend reads.
#: Unknown keys are left alone: every backend ignores what it does not read.
BAD_OPTIONS = {
    "payoff-dp": {"resolution": 0},
    "adpar-exact": {"block": 0},
    "adpar-incremental": {"block": 0},
    "adpar-weighted": {"norm": "l7"},
    "rtree": {"max_entries": 1},
}


# ----------------------------------------------------------------- contracts
def test_every_entry_names_a_registered_backend():
    # The converse of test_reference: deleting a backend fails here
    # until its entries go too.
    registered = {*default_registry().names(), *default_solver_registry().names()}
    assert {*REFERENCES, *BAD_OPTIONS} <= registered


class RegistryContract:
    """Clauses every registered name meets.  A subclass supplies the
    parametrized ``name`` fixture and :meth:`request`, the wire payload
    that drives one name."""

    def request(self, name) -> dict:
        raise NotImplementedError

    @staticmethod
    def reproducible(body: dict) -> dict:
        """The part of an answer two runs must agree on."""
        return body

    def test_deterministic(self, name):
        payload = self.request(name)
        first = EngineService().handle_dict(payload)
        assert first["type"] != "error", first
        second = EngineService().handle_dict(payload)
        assert self.reproducible(second) == self.reproducible(first)

    def test_response_round_trips(self, name):
        body = EngineService().handle_dict(self.request(name))
        assert parse_response(body).to_dict() == body


class BackendContract(RegistryContract):
    """Clauses every planner and solver backend meets."""

    def test_reference(self, name):
        assert name in REFERENCES, (
            f"{name!r} is registered with no REFERENCES entry: pin it to "
            "an oracle, or give none with the reason none applies"
        )
        oracle = REFERENCES[name]
        if oracle.check is None:
            assert oracle.reason
            return

        @settings(max_examples=oracle.max_examples, deadline=None)
        @given(oracle.instances)
        def holds(instance):
            oracle.check(name, instance)

        holds()

    def test_bad_options_answer_typed_errors(self, name):
        for key, value in BAD_OPTIONS.get(name, {}).items():
            body = EngineService().handle_dict(self.request(name, {key: value}))
            assert body["type"] == "error", (key, body)
            assert body["code"] != "internal", (key, body)
            assert key in body["message"], (key, body)


class TestPlannerContract(BackendContract):
    @pytest.fixture(params=default_registry().names())
    def name(self, request):
        return request.param

    def request(self, name, options=None) -> dict:
        spec = EngineSpec(availability=0.6, planner=name, planner_options=options)
        return PlanRequest(
            ensemble=EnsembleRef.of(ENSEMBLE), requests=REQUESTS, spec=spec
        ).to_dict()


class TestSolverContract(BackendContract):
    @pytest.fixture(params=default_solver_registry().names())
    def name(self, request):
        return request.param

    def request(self, name, options=None) -> dict:
        spec = EngineSpec(availability=0.6, solver=name, solver_options=options)
        return AlternativesRequest(
            ensemble=EnsembleRef.of(ENSEMBLE), requests=REQUESTS, spec=spec
        ).to_dict()

    def test_equal_content_upload_answers_identically(self, name):
        # Every inline upload decodes a new ensemble object, and the
        # shared cache keys relaxation spaces by content: the first
        # upload builds the space under another solver, and the second
        # one's solver must accept it.
        service = EngineService()
        other = next(n for n in default_solver_registry().names() if n != name)
        warm = service.handle_dict(self.request(other))
        assert warm["type"] != "error", warm
        fresh = EngineService().handle_dict(self.request(name))
        assert service.handle_dict(self.request(name)) == fresh


class TestScenarioContract(RegistryContract):
    @pytest.fixture(params=default_scenario_registry().names())
    def name(self, request):
        return request.param

    def request(self, name) -> dict:
        spec = default_scenario_registry().get(name)
        if spec.kind == "trace":
            overrides = {"trace_path": str(RECORDED)}
        else:
            # A stream's drive re-decides its deferred queue on every
            # retry wave, so its cost grows with the square of arrivals.
            overrides = {"m_requests": min(spec.requests.m_requests, 200)}
        return SimulateRequest(name=name, overrides=overrides).to_dict()

    @staticmethod
    def reproducible(body: dict) -> dict:
        report = dict(body["report"])
        del report["elapsed_s"]  # wall-clock
        return {**body, "report": report}
