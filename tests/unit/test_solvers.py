"""Unit tests for the ADPaR solver subsystem: registry, space, engine API."""

import math

import numpy as np
import pytest

from repro.core.adpar import ADPaRExact
from repro.core.params import TriParams
from repro.core.relaxation import RelaxationSpace
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.core.streaming import StreamStatus
from repro.baselines.adpar_onedim import OneDimBaseline
from repro.engine import (
    RecommendationEngine,
    SolverContext,
    SolverRegistry,
    default_solver_registry,
    solver_options_key,
)
from repro.engine.solvers import ExactSolver, _admissible_results
from repro.exceptions import InfeasibleRequestError, UnknownSolverError
from repro.utils.rng import spawn_rngs
from repro.workloads.generators import generate_adpar_points, hard_request_for

HARD_REQUEST = TriParams(0.8, 0.2, 0.28)


@pytest.fixture
def engine(table1_ensemble):
    return RecommendationEngine(table1_ensemble, availability=0.8)


class TestSolverRegistry:
    def test_unknown_backend_raises_typed_error(self, table1_ensemble):
        context = SolverContext(ensemble=table1_ensemble, availability=0.8)
        with pytest.raises(UnknownSolverError, match="quantum-annealer"):
            default_solver_registry().create("quantum-annealer", context)

    def test_unknown_solver_at_engine_construction(self, table1_ensemble):
        with pytest.raises(UnknownSolverError):
            RecommendationEngine(table1_ensemble, 0.8, solver="nope")

    def test_invalid_options_fail_fast_at_construction(self, table1_ensemble):
        with pytest.raises(ValueError):
            RecommendationEngine(
                table1_ensemble,
                0.8,
                solver="adpar-weighted",
                solver_options={"weights": (-1.0, 1.0, 1.0)},
            )

    def test_duplicate_registration_rejected_unless_replace(self):
        registry = SolverRegistry()
        registry.register("custom", lambda ctx, opts: None, "first")
        with pytest.raises(ValueError):
            registry.register("custom", lambda ctx, opts: None, "second")
        registry.register("custom", lambda ctx, opts: None, "second", replace=True)
        assert registry.describe("custom") == "second"

    def test_describe_unknown_raises(self):
        with pytest.raises(UnknownSolverError):
            SolverRegistry().describe("ghost")

    def test_custom_backend_usable_by_engine(self, table1_ensemble):
        class EchoSolver:
            name = "echo"

            def __init__(self, context, options):
                self.space = context.space
                self._reference = ADPaRExact(
                    context.ensemble, context.availability, space=context.space
                )

            def solve(self, request, k=None):
                return self._reference.solve(request, k)

            def solve_batch(self, requests, k=None):
                return [self.solve(r, k) for r in requests]

        registry = SolverRegistry()
        registry.register("echo", EchoSolver)
        engine = RecommendationEngine(
            table1_ensemble, 0.8, solver="echo", solver_registry=registry
        )
        result = engine.recommend_alternative(HARD_REQUEST, 3)
        assert len(result.strategy_indices) == 3

    def test_exact_names_create_one_solver_equal_to_reference(self):
        # Specs and journals carry both names; they must answer alike.
        rng_points, rng_requests = spawn_rngs(43, 2)
        points = generate_adpar_points(60, "uniform", rng_points)
        ensemble = StrategyEnsemble.from_params(points)
        requests = [
            DeploymentRequest(f"d{i}", hard_request_for(points, rng_requests), k=5)
            for i in range(8)
        ]
        context = SolverContext(ensemble, 1.0).with_space()
        reference = ADPaRExact(ensemble, space=context.space)
        expected = [reference.solve(request) for request in requests]
        for name in ("adpar-exact", "adpar-incremental"):
            solver = default_solver_registry().create(name, context)
            assert type(solver) is ExactSolver
            assert solver.solve_batch(requests) == expected

    def test_options_key_canonicalizes(self):
        assert solver_options_key({"weights": [2, 1, 1], "norm": "l1"}) == (
            solver_options_key({"norm": "l1", "weights": (2, 1, 1)})
        )
        assert solver_options_key(None) == solver_options_key({})


class TestRelaxationSpace:
    def test_points_match_reference_construction(self, table1_ensemble):
        space = RelaxationSpace(table1_ensemble, 0.8)
        reference = ADPaRExact(table1_ensemble, availability=0.8)
        assert np.array_equal(space.points, reference._points)

    def test_sweep_values_match_numpy_unique(self, table1_ensemble):
        space = RelaxationSpace(table1_ensemble, 1.0)
        origin = space.origin_of(HARD_REQUEST)
        relax = space.relaxations(origin)
        sorted_x, unique_x, _ = space.sweep_table(float(origin[0]), 1e-12)
        assert np.array_equal(sorted_x, np.sort(relax[:, 0]))
        assert np.array_equal(unique_x, np.unique(relax[:, 0]))

    def test_relaxation_batch_matches_scalar(self, table1_ensemble):
        space = RelaxationSpace(table1_ensemble, 1.0)
        origins = np.stack(
            [space.origin_of(HARD_REQUEST), space.origin_of(TriParams(0.5, 0.5, 0.5))]
        )
        batch = space.relaxation_batch(origins)
        for row, origin in zip(batch, origins):
            assert np.array_equal(row, space.relaxations(origin))

    def test_shared_across_backends_via_cache(self, engine):
        exact = engine._solver_for("adpar-exact")
        onedim = engine._solver_for("onedim")
        rtree = engine._solver_for("rtree")
        assert exact.space is onedim.space
        assert exact.space is rtree.space
        assert exact.space is engine.cache.relaxation_space(
            engine.ensemble, engine.availability
        )

    def test_mismatched_space_rejected(self, table1_ensemble):
        from repro.baselines.adpar_bruteforce import adpar_brute_force
        from repro.core.adpar_variants import weighted_adpar_brute_force

        space = RelaxationSpace(table1_ensemble, 0.5)
        with pytest.raises(ValueError):
            ADPaRExact(table1_ensemble, availability=0.8, space=space)
        with pytest.raises(ValueError):
            OneDimBaseline(table1_ensemble, availability=0.8, space=space)
        with pytest.raises(ValueError):
            adpar_brute_force(
                table1_ensemble, HARD_REQUEST, 3, availability=0.8, space=space
            )
        with pytest.raises(ValueError):
            weighted_adpar_brute_force(
                table1_ensemble, HARD_REQUEST, 3, availability=0.8, space=space
            )


    def test_context_adopts_only_an_equal_content_ensemble(self, table1_ensemble):
        space = RelaxationSpace(table1_ensemble, 0.8)
        copy = StrategyEnsemble.from_arrays(
            table1_ensemble.alpha.copy(),
            table1_ensemble.beta.copy(),
            names=table1_ensemble.names,
        )
        context = SolverContext(copy, 0.8, space).with_space()
        assert context.ensemble is table1_ensemble
        renamed = StrategyEnsemble.from_arrays(
            table1_ensemble.alpha,
            table1_ensemble.beta,
            names=[f"other-{name}" for name in table1_ensemble.names],
        )
        mismatched = SolverContext(renamed, 0.8, space)
        assert mismatched.with_space().ensemble is renamed
        registry = default_solver_registry()
        for name in ("adpar-weighted", "onedim", "rtree"):
            with pytest.raises(ValueError):
                registry.create(name, mismatched)
        with pytest.raises(ValueError):
            registry.create("bruteforce", mismatched).solve(HARD_REQUEST, 3)


class TestEngineSolverAPI:
    def test_all_backends_selectable_by_name(self, engine):
        distances = {
            name: engine.recommend_alternative(HARD_REQUEST, 3, solver=name).distance
            for name in default_solver_registry().names()
        }
        # Exact solvers agree; heuristics never beat them.
        assert distances["adpar-exact"] == pytest.approx(distances["bruteforce"])
        assert distances["adpar-exact"] == pytest.approx(distances["adpar-weighted"])
        assert distances["adpar-incremental"] == distances["adpar-exact"]
        assert distances["onedim"] >= distances["adpar-exact"] - 1e-12
        assert distances["rtree"] >= distances["adpar-exact"] - 1e-12

    def test_solver_options_reach_weighted_backend(self, table1_ensemble):
        heavy_cost = RecommendationEngine(
            table1_ensemble,
            0.8,
            solver="adpar-weighted",
            solver_options={"norm": "l1", "weights": (100.0, 1.0, 1.0)},
        )
        result = heavy_cost.recommend_alternative(HARD_REQUEST, 3)
        backend = heavy_cost._solver_for()
        assert backend.penalty.norm == "l1"
        assert backend.penalty.weights == (100.0, 1.0, 1.0)
        assert result.distance >= 0.0

    def test_cache_keys_include_solver(self, engine):
        engine.recommend_alternative(HARD_REQUEST, 3)
        misses = engine.stats.adpar_misses
        engine.recommend_alternative(HARD_REQUEST, 3, solver="onedim")
        assert engine.stats.adpar_misses == misses + 1  # distinct entry
        engine.recommend_alternative(HARD_REQUEST, 3, solver="onedim")
        assert engine.stats.adpar_misses == misses + 1  # now warm

    def test_batch_deduplicates_within_batch(self, engine):
        requests = [
            DeploymentRequest(f"d{i}", HARD_REQUEST, k=3) for i in range(4)
        ]
        results = engine.recommend_alternatives(requests)
        assert len(results) == 4
        assert all(r is results[0] for r in results)  # computed once

    def test_batch_k_override(self, engine):
        [one] = engine.recommend_alternatives([HARD_REQUEST], 2)
        assert len(one.strategy_indices) == 2

    def test_batch_requires_k_for_bare_params(self, engine):
        with pytest.raises(ValueError):
            engine.recommend_alternatives([HARD_REQUEST])

    def test_batch_infeasible_raises_like_scalar(self, engine):
        ok = DeploymentRequest("ok", HARD_REQUEST, k=3)
        impossible = DeploymentRequest("no", HARD_REQUEST, k=9)
        with pytest.raises(InfeasibleRequestError):
            engine.recommend_alternatives([ok, impossible])
        with pytest.raises(InfeasibleRequestError):
            engine.recommend_alternative(impossible)

    def test_resolve_infeasible_status_preserved(self, table1_ensemble):
        engine = RecommendationEngine(table1_ensemble, 0.8)
        report = engine.resolve(
            [DeploymentRequest("no", TriParams(0.9, 0.1, 0.1), k=9)]
        )
        assert report.resolutions[0].status.value == "infeasible"

    def test_backend_raising_mid_batch_does_not_abort_batchmates(
        self, table1_ensemble
    ):
        """A solve_batch that refuses one request degrades to per-request."""

        class PickyExact:
            name = "picky"

            def __init__(self, context, options):
                self.space = context.space
                self._reference = ADPaRExact(
                    context.ensemble, context.availability, space=context.space
                )

            def solve(self, request, k=None):
                if request.params.quality > 0.85:
                    raise InfeasibleRequestError("refused")
                return self._reference.solve(request, k)

            def solve_batch(self, requests, k=None):
                results = [self.solve(r, k) for r in requests]
                return results

        registry = SolverRegistry()
        registry.register("picky", PickyExact)
        engine = RecommendationEngine(
            table1_ensemble, 0.0, solver="picky", solver_registry=registry
        )
        report = engine.resolve(
            [
                DeploymentRequest("fine", TriParams(0.7, 0.1, 0.1), k=2),
                DeploymentRequest("refused", TriParams(0.9, 0.1, 0.1), k=2),
            ]
        )
        by_id = {r.request_id: r.status.value for r in report.resolutions}
        assert by_id == {"fine": "alternative", "refused": "infeasible"}

    def test_shared_cache_keeps_registries_apart(self, table1_ensemble):
        """Two engines, one cache, same backend name, different factories."""
        from repro.engine import EngineCache

        class ConstantSolver:
            name = "adpar-exact"  # shadows the builtin name on purpose

            def __init__(self, context, options):
                self.space = context.space
                self._reference = ADPaRExact(
                    context.ensemble, context.availability, space=context.space
                )

            def solve(self, request, k=None):
                result = self._reference.solve(request, k)
                return type(result)(
                    original=result.original,
                    alternative=result.alternative,
                    distance=123.0,
                    squared_distance=123.0**2,
                    relaxation=result.relaxation,
                    strategy_indices=result.strategy_indices,
                    strategy_names=result.strategy_names,
                )

            def solve_batch(self, requests, k=None):
                return [self.solve(r, k) for r in requests]

        custom = SolverRegistry()
        custom.register("adpar-exact", ConstantSolver)
        shared = EngineCache()
        stock = RecommendationEngine(table1_ensemble, 0.8, cache=shared)
        shadowed = RecommendationEngine(
            table1_ensemble, 0.8, cache=shared, solver_registry=custom
        )
        assert stock.recommend_alternative(HARD_REQUEST, 3).distance != 123.0
        assert shadowed.recommend_alternative(HARD_REQUEST, 3).distance == 123.0
        # And the other way round: the custom result must not leak back.
        assert stock.recommend_alternative(HARD_REQUEST, 3).distance != 123.0

    def test_resolve_solver_override(self, table1_ensemble):
        engine = RecommendationEngine(table1_ensemble, availability=0.0)
        request = DeploymentRequest("d", TriParams(0.9, 0.05, 0.05), k=3)
        exact = engine.resolve([request]).resolutions[0]
        onedim = engine.resolve([request], solver="onedim").resolutions[0]
        reference = OneDimBaseline(table1_ensemble, availability=0.0).solve(request)
        assert onedim.params == reference.alternative
        assert exact.distance <= onedim.distance + 1e-12


class TestSessionSolverRouting:
    @pytest.fixture
    def tiny_ensemble(self):
        alpha = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        beta = np.array([[0.9, 0.0, 0.2], [0.7, 0.1, 0.1]])
        return StrategyEnsemble.from_arrays(alpha, beta)

    def test_session_fallback_uses_configured_solver(self, tiny_ensemble):
        impossible = DeploymentRequest(
            "d", TriParams(0.95, 0.05, 0.05), k=2
        )  # quality demand above both strategies: workforce-infeasible
        engine = RecommendationEngine(tiny_ensemble, 1.0, solver="onedim")
        decision = engine.open_session().submit(impossible)
        assert decision.status is StreamStatus.ALTERNATIVE
        reference = OneDimBaseline(tiny_ensemble, availability=1.0).solve(impossible)
        assert decision.alternative.alternative == reference.alternative
        assert decision.alternative.distance == reference.distance


class TestAdmissibleCertificate:
    """The exact batch backend's sweep-free answer for admissible requests."""

    @pytest.fixture
    def ensemble(self):
        return StrategyEnsemble.from_params(
            [
                # Against a cost-0 request this row's relaxation is
                # (1e-200, 0, 0): not zero, but its norm underflows to 0.
                TriParams(0.9, 1e-200, 0.1),
                TriParams(0.9, 0.0, 0.1),
                TriParams(0.9, 0.0, 0.1),  # duplicate: index tie-break
                TriParams(0.8, 0.3, 0.3),
                TriParams(0.5, 0.6, 0.6),
            ]
        )

    REQUESTS = [
        # Two rows need no relaxation; three zero-norm rows tie on norm.
        ("two-exact", TriParams(0.9, 0.0, 0.1), 2, True),
        # Only two rows need none: the sweep answers (at distance 0).
        ("k-above-exact", TriParams(0.9, 0.0, 0.1), 3, False),
        ("four-exact", TriParams(0.8, 0.3, 0.3), 3, True),
        ("k-equals-n", TriParams(0.5, 0.6, 0.6), 5, True),
        # Row 3 needs a one-ulp cost relaxation: the sweep answers.
        ("tiny-cost", TriParams(0.8, math.nextafter(0.3, 0.0), 0.3), 4, False),
        ("hard", TriParams(0.95, 0.1, 0.05), 2, False),
    ]

    def test_certifies_exactly_the_admissible_requests(self, ensemble):
        space = RelaxationSpace(ensemble, 1.0)
        part = [(params, k) for _, params, k, _ in self.REQUESTS]
        relax_block = space.relaxation_batch(space.origins_of([p for p, _ in part]))
        answers = _admissible_results(ensemble, part, relax_block)
        reference = ADPaRExact(ensemble, space=space)
        for (name, params, k, certified), answer in zip(self.REQUESTS, answers):
            assert (answer is not None) is certified, name
            if certified:
                assert answer == reference.solve(params, k), name
        chosen = {
            name: answer.strategy_indices
            for (name, *_), answer in zip(self.REQUESTS, answers)
            if answer is not None
        }
        assert chosen == {
            "two-exact": (0, 1),
            "four-exact": (0, 1, 2),
            "k-equals-n": (0, 1, 2, 3, 4),
        }

    def test_batch_backends_match_reference_on_both_sides(self, ensemble):
        context = SolverContext(ensemble, 1.0).with_space()
        requests = [
            DeploymentRequest(name, params, k=k) for name, params, k, _ in self.REQUESTS
        ]
        reference = ADPaRExact(ensemble, space=context.space)
        got = ExactSolver(context, {}).solve_batch(requests)
        assert got == [reference.solve(request) for request in requests]
        assert [r.distance == 0.0 for r in got] == [True] * 5 + [False]
