"""Unit tests: scenario registry, spec overrides, simulate op, CLI."""

import io
import json
from pathlib import Path

import pytest

from repro.api import EngineService, SimulateRequest, StatsRequest
from repro.cli import main
from repro.engine import RecommendationEngine
from repro.exceptions import InvalidSpecError, UnknownScenarioError
from repro.workloads import (
    ArrivalSpec,
    EnsembleSpec,
    RequestBatchSpec,
    ScenarioRegistry,
    ScenarioSpec,
    default_scenario_registry,
)

GOLDEN_SCENARIOS = Path(__file__).resolve().parents[1] / "golden" / "scenarios.jsonl"


class TestScenarioRegistry:
    def test_catalog_has_at_least_eight_families(self):
        registry = default_scenario_registry()
        assert len(registry.names()) >= 8
        kinds = {registry.get(name).kind for name in registry.names()}
        assert kinds == {"batch", "stream", "adpar", "trace"}

    def test_catalog_covers_the_named_families(self):
        registry = default_scenario_registry()
        for name in (
            "paper-batch",
            "paper-adpar",
            "skewed-availability",
            "heavy-tail",
            "flash-crowd",
            "high-k-stress",
            "mixture-of-distributions",
            "deferred-churn",
        ):
            assert name in registry

    def test_catalog_is_exactly_the_pinned_families(self):
        # Each family is pinned by its byte-exact spec line in the golden
        # masters, so a family ships with its golden line.
        lines = GOLDEN_SCENARIOS.read_text(encoding="utf-8").splitlines()
        pinned = [
            line["case"]
            for line in map(json.loads, lines)
            if line["payload"].get("name") == line["case"]
        ]
        assert sorted(default_scenario_registry().names()) == sorted(pinned)

    def test_diurnal_stream_simulates(self):
        service = EngineService()
        report = service.handle(
            SimulateRequest(
                name="diurnal-stream",
                overrides={"m_requests": 96, "n_strategies": 20},
            )
        ).report
        assert report.kind == "stream"
        assert report.arrivals == 96
        assert report.admitted == report.completed > 0

    def test_adversarial_arrivals_simulates(self):
        service = EngineService()
        report = service.handle(
            SimulateRequest(
                name="adversarial-arrivals",
                overrides={"m_requests": 64, "n_strategies": 20},
            )
        ).report
        assert report.kind == "stream"
        assert report.arrivals == 64
        assert report.admitted == report.completed > 0

    def test_get_stamps_the_registered_name(self):
        spec = default_scenario_registry().get("paper-batch")
        assert spec.name == "paper-batch"
        assert spec.description

    def test_unknown_name_is_typed(self):
        with pytest.raises(UnknownScenarioError):
            default_scenario_registry().get("no-such-family")
        with pytest.raises(UnknownScenarioError):
            default_scenario_registry().create("no-such-family", seed=1)

    def test_register_rejects_duplicates_without_flag(self):
        registry = ScenarioRegistry()
        spec = ScenarioSpec(kind="batch")
        registry.register("mine", spec)
        with pytest.raises(ValueError):
            registry.register("mine", spec)
        registry.register("mine", spec.with_(seed=99), replace=True)
        assert registry.get("mine").seed == 99

    def test_create_applies_flat_overrides(self):
        spec = default_scenario_registry().create(
            "paper-batch",
            n_strategies=77,
            m_requests=3,
            k=2,
            availability=0.25,
            burst_size=16,
        )
        assert spec.ensemble.n_strategies == 77
        assert spec.requests.m_requests == 3
        assert spec.requests.k == 2
        assert spec.engine.availability == 0.25
        assert spec.arrival.burst_size == 16
        # The registry's own entry is untouched.
        base = default_scenario_registry().get("paper-batch")
        assert base.ensemble.n_strategies == 10_000


class TestSpecOverrides:
    def test_unknown_field_is_typed_and_atomic(self):
        spec = ScenarioSpec(kind="batch")
        with pytest.raises(InvalidSpecError) as err:
            spec.with_(n_strategies=5, bogus=1)
        assert "bogus" in str(err.value)
        # Nothing partially applied.
        assert spec.ensemble.n_strategies == EnsembleSpec().n_strategies

    def test_invalid_spec_error_is_a_type_error(self):
        # Legacy callers caught TypeError from dataclasses.replace.
        with pytest.raises(TypeError):
            ScenarioSpec(kind="batch").with_(whatever=1)

    def test_whole_subspec_and_alias_conflict_is_rejected(self):
        spec = ScenarioSpec(kind="batch")
        with pytest.raises(InvalidSpecError):
            spec.with_(ensemble=EnsembleSpec(n_strategies=5), n_strategies=6)

    def test_engine_override_without_engine_needs_availability(self):
        spec = ScenarioSpec(kind="batch")
        assert spec.engine is None
        with pytest.raises(InvalidSpecError):
            spec.with_(aggregation="max")
        created = spec.with_(availability=0.4, aggregation="max")
        assert created.engine.availability == 0.4
        assert created.engine.aggregation == "max"

    def test_distribution_options_alias(self):
        spec = ScenarioSpec(kind="batch").with_(
            distribution="heavy-tail", distribution_options={"tail": 2.0}
        )
        assert spec.ensemble.options_dict() == {"tail": 2.0}

    def test_invalid_kind_rejected(self):
        with pytest.raises(InvalidSpecError):
            ScenarioSpec(kind="nope")

    def test_composite_field_overrides_are_type_checked(self):
        spec = ScenarioSpec(kind="batch")
        for field, value in (
            ("ensemble", 5),
            ("requests", {"m_requests": 3}),
            ("arrival", "steady"),
            ("engine", 0.5),
            ("seed", "seven"),
            ("tightness", "loose"),
        ):
            with pytest.raises(InvalidSpecError):
                spec.with_(**{field: value})

    def test_composite_override_maps_to_invalid_spec_over_the_wire(self):
        # The crash path the review caught: a scalar composite override
        # must answer the typed code, not a 500/AttributeError.
        body = EngineService().handle_dict(
            SimulateRequest(
                name="paper-batch-small", overrides={"ensemble": 5}
            ).to_dict()
        )
        assert (body["type"], body["code"]) == ("error", "invalid_spec")


class TestArrivalSpec:
    def test_burst_process_spikes(self):
        spec = ArrivalSpec(
            process="burst", burst_size=10, spike_every=3, spike_factor=5.0
        )
        schedule = spec.schedule(200)
        assert schedule[2] == 50  # every 3rd burst spikes
        assert sum(schedule) == 200

    def test_diurnal_oscillates(self):
        spec = ArrivalSpec(
            process="diurnal", burst_size=40, period_bursts=8, amplitude=0.5
        )
        schedule = spec.schedule(2000)
        assert max(schedule) > 40 > min(schedule)
        assert sum(schedule) == 2000

    def test_adversarial_orders_hardest_first(self):
        requests = RequestBatchSpec(m_requests=50, k=2).build(3)
        ordered = ArrivalSpec(process="adversarial").order(requests)
        hardness = [
            r.params.cost + r.params.latency - r.params.quality for r in ordered
        ]
        assert hardness == sorted(hardness)
        assert sorted(r.request_id for r in ordered) == sorted(
            r.request_id for r in requests
        )

    def test_invalid_process_rejected(self):
        with pytest.raises(InvalidSpecError):
            ArrivalSpec(process="poisson")

    def test_non_integer_counts_are_typed_errors(self):
        # A float burst_size once slipped to a raw slice-index TypeError
        # deep in drive_stream; integer fields are type-checked up front.
        with pytest.raises(InvalidSpecError):
            ArrivalSpec(burst_size=1.5)
        with pytest.raises(InvalidSpecError):
            EnsembleSpec(n_strategies=1.5)
        with pytest.raises(InvalidSpecError):
            RequestBatchSpec(m_requests=2.5)
        body = EngineService().handle_dict(
            SimulateRequest(
                name="flash-crowd", overrides={"burst_size": 1.5}
            ).to_dict()
        )
        assert (body["type"], body["code"]) == ("error", "invalid_spec")


class TestRequestRanges:
    """Request parameter ranges are checked by the spec, not by NumPy."""

    BAD = [
        pytest.param({"low": 2}, "low must be", id="low-above-one"),
        pytest.param({"low": -0.1}, "low must be", id="low-negative"),
        pytest.param({"low": float("nan")}, "low must be", id="low-nan"),
        pytest.param({"high": float("inf")}, "high must be", id="high-inf"),
        pytest.param(
            {"low": 0.9, "high": 0.1}, "low must be <= high", id="low-above-high"
        ),
        pytest.param(
            {"quality_offset": -0.1}, "quality_offset must be", id="offset-negative"
        ),
        pytest.param(
            {"quality_offset": float("nan")}, "quality_offset must be",
            id="offset-nan",
        ),
        pytest.param(
            {"quality_offset": 10**400}, "quality_offset must be",
            id="offset-beyond-float",
        ),
    ]

    @pytest.mark.parametrize("fields, message", BAD)
    def test_bad_range_rejected_naming_the_field(self, fields, message):
        with pytest.raises(InvalidSpecError, match=message):
            RequestBatchSpec(**fields)

    @pytest.mark.parametrize("fields, message", BAD)
    def test_handle_dict_answers_invalid_spec(self, fields, message):
        body = EngineService().handle_dict(
            {
                "api_version": 1,
                "type": "simulate",
                "name": "paper-batch-small",
                "overrides": fields,
            }
        )
        assert (body["type"], body["code"]) == ("error", "invalid_spec")
        assert message in body["message"]

    def test_edges_of_the_range_accepted(self):
        spec = RequestBatchSpec(
            m_requests=4, k=1, low=0.0, high=0.0, quality_offset=0.0
        )
        assert [r.params.cost for r in spec.build(1)] == [0.0] * 4
        RequestBatchSpec(low=1.0, high=1.0, quality_offset=2.0)


class TestMixtureDistribution:
    def test_component_chosen_per_strategy_row(self):
        # A strategy drawn from the elite component must be elite in
        # every dimension — the catalog's "30% elite" reading.
        spec = EnsembleSpec(
            n_strategies=400,
            distribution="mixture",
            options={
                "components": [
                    ["uniform", 0.7, {"low": 0.0, "high": 0.1}],
                    ["uniform", 0.3, {"low": 0.9, "high": 1.0}],
                ]
            },
        )
        points = spec.build_points(5)
        elite = sum(1 for p in points if min(p.as_tuple()) >= 0.9)
        low = sum(1 for p in points if max(p.as_tuple()) <= 0.1)
        # Every row is wholly one component...
        assert elite + low == len(points)
        # ...and the split tracks the 70/30 weights.
        assert 0.15 < elite / len(points) < 0.45


class TestServiceSimulate:
    def test_batch_simulation_matches_direct_engine(self):
        service = EngineService()
        spec = default_scenario_registry().create(
            "paper-batch-small", m_requests=4
        )
        report = service.handle(SimulateRequest(scenario=spec)).report
        ensemble, requests = spec.build()
        direct = RecommendationEngine(
            ensemble, **spec.engine.engine_kwargs()
        ).resolve(requests)
        assert report.satisfied == direct.satisfied_count
        assert report.alternative == direct.alternative_count
        assert report.objective_value == direct.batch.objective_value
        assert report.workforce_used == direct.batch.workforce_used

    def test_stream_simulation_matches_direct_drive_stream(self):
        from collections import Counter

        from repro.core.streaming import StreamStatus
        from repro.engine.session import drive_stream

        spec = default_scenario_registry().create(
            "steady-stream",
            n_strategies=40,
            m_requests=300,
            k=4,
            availability=0.7,
            burst_size=32,
            hold_bursts=3,
        )
        report = EngineService().handle(SimulateRequest(scenario=spec)).report
        ensemble, ordered, arrival = spec.build_stream()
        session = RecommendationEngine(
            ensemble, **spec.engine.engine_kwargs()
        ).open_session()
        decisions, retried, peak = drive_stream(
            session,
            ordered,
            burst_size=arrival.burst_size,
            hold_bursts=arrival.hold_bursts,
        )
        by_status = Counter(decision.status for decision in decisions)
        assert report.admitted == session.admitted_count > 0
        assert report.completed == session.completed_count
        assert report.alternative == by_status[StreamStatus.ALTERNATIVE] > 0
        assert report.infeasible == by_status[StreamStatus.INFEASIBLE]
        assert report.retried == retried
        assert report.still_deferred == len(session.deferred)
        assert report.utilization == peak

    def test_infeasible_adpar_scenario_is_counted(self):
        # k > |S|: no relaxation admits the request, so the report counts
        # it as infeasible instead of the simulation aborting.
        report = EngineService().handle(
            SimulateRequest(name="paper-adpar-small", overrides={"k": 100})
        ).report
        assert report.kind == "adpar"
        assert (report.alternative, report.infeasible) == (0, 1)
        assert report.mean_distance == 0.0

    def test_materialized_workload_is_cached_and_addressable(self):
        service = EngineService()
        first = service.handle(
            SimulateRequest(name="paper-batch-small")
        ).report
        assert service.stats().workloads == 1
        second = service.handle(
            SimulateRequest(name="paper-batch-small")
        ).report
        assert second.fingerprint == first.fingerprint
        assert service.stats().workloads == 1
        # The built ensemble entered the content-hash registry.
        from repro.api.wire import EnsembleRef

        resolved = service._resolve_ensemble(
            EnsembleRef.by_fingerprint(first.fingerprint)
        )
        assert resolved is not None

    def test_rebuilt_workload_becomes_most_recently_used(self):
        service = EngineService(max_workloads=2, max_ensembles=1)
        # Two workloads; the 1-slot ensemble registry evicts the first's
        # ensemble, so re-simulating it takes the rebuild path.
        service.handle(SimulateRequest(name="paper-batch-small"))
        service.handle(
            SimulateRequest(
                name="paper-batch-small", overrides={"m_requests": 3}
            )
        )
        service.handle(SimulateRequest(name="paper-batch-small"))  # rebuild
        # A third distinct workload must evict the *other* entry, not the
        # just-rebuilt one.
        service.handle(
            SimulateRequest(
                name="paper-batch-small", overrides={"m_requests": 2}
            )
        )
        spec = default_scenario_registry().get("paper-batch-small")
        assert service._workload_key(spec) in service._workloads

    def test_stream_simulation_counts_are_consistent(self):
        service = EngineService()
        report = service.handle(
            SimulateRequest(name="steady-stream", overrides={"m_requests": 100})
        ).report
        assert report.kind == "stream"
        assert report.arrivals == 100
        # drive_stream flushes every cohort at stream end, so everything
        # admitted also completed.
        assert report.admitted == report.completed > 0
        assert report.still_deferred == 0
        assert report.elapsed_s > 0

    def test_stream_simulation_reports_peak_utilization(self):
        # The ledger is empty once every cohort completes, so only a
        # figure taken during the drive can show the admitted load.
        report = EngineService().handle(
            SimulateRequest(name="steady-stream", overrides={"m_requests": 100})
        ).report
        assert report.admitted > 0
        assert 0.0 < report.utilization <= 1.0

    def test_negative_seed_maps_to_invalid_spec(self):
        # Rejected by the spec itself, not late inside the seed sequence.
        service = EngineService()
        named = SimulateRequest(
            name="paper-batch-small", overrides={"seed": -1}
        ).to_dict()
        inline = SimulateRequest(
            scenario=default_scenario_registry().get("paper-batch-small")
        ).to_dict()
        inline["scenario"]["seed"] = -3
        for envelope in (named, inline):
            body = service.handle_dict(envelope)
            assert (body["type"], body["code"]) == ("error", "invalid_spec")
            assert "seed" in body["message"]

    def test_invalid_override_maps_to_invalid_spec(self):
        service = EngineService()
        body = service.handle_dict(
            SimulateRequest(
                name="paper-batch-small", overrides={"bogus": 1}
            ).to_dict()
        )
        assert (body["type"], body["code"]) == ("error", "invalid_spec")

    def test_oversized_spec_maps_to_workload_too_large(self):
        # A ~100-byte spec must not make the server allocate gigabytes.
        service = EngineService(
            max_spec_strategies=1000, max_spec_requests=100
        )
        body = service.handle_dict(
            SimulateRequest(
                name="paper-batch-small", overrides={"n_strategies": 1001}
            ).to_dict()
        )
        assert (body["type"], body["code"]) == ("error", "workload_too_large")
        body = service.handle_dict(
            SimulateRequest(
                name="paper-batch-small", overrides={"m_requests": 101}
            ).to_dict()
        )
        assert (body["type"], body["code"]) == ("error", "workload_too_large")
        ok = service.handle(
            SimulateRequest(
                name="paper-batch-small", overrides={"n_strategies": 1000}
            )
        )
        assert ok.report.n_strategies == 1000

    def test_unknown_scenario_maps_to_unknown_scenario(self):
        body = EngineService().handle_dict(
            SimulateRequest(name="ghost").to_dict()
        )
        assert (body["type"], body["code"]) == ("error", "unknown_scenario")

    def test_simulate_request_needs_exactly_one_target(self):
        from repro.exceptions import ApiError

        with pytest.raises(ApiError):
            SimulateRequest()
        with pytest.raises(ApiError):
            SimulateRequest(
                scenario=ScenarioSpec(kind="batch"), name="paper-batch"
            )


class TestStatsExtension:
    def test_stats_reports_pool_and_cache_occupancy(self):
        service = EngineService(max_engines=7, max_sessions=9, max_ensembles=11)
        service.handle(SimulateRequest(name="paper-batch-small"))
        stats = service.handle(StatsRequest())
        assert stats.max_engines == 7
        assert stats.max_sessions == 9
        assert stats.max_ensembles == 11
        assert stats.workloads == 1
        assert set(stats.occupancy) == {
            "workforce",
            "adpar_results",
            "adpar_solvers",
            "spaces",
        }
        for usage in stats.occupancy.values():
            assert 0 <= usage["entries"] <= usage["capacity"]
        assert 0.0 <= stats.hit_rate <= 1.0
        # The extended payload survives the wire.
        from repro.api import parse_response

        back = parse_response(json.loads(json.dumps(stats.to_dict())))
        assert back == stats


class TestSimulateCli:
    def run(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_list_enumerates_catalog(self):
        code, output = self.run("simulate", "--list")
        assert code == 0
        for name in default_scenario_registry().names():
            assert name in output

    def test_named_scenario_runs(self):
        code, output = self.run(
            "simulate", "paper-batch-small", "--set", "m_requests=3"
        )
        assert code == 0
        assert "scenario=paper-batch-small" in output
        assert "satisfied=" in output

    def test_json_output_is_the_envelope(self):
        code, output = self.run("simulate", "paper-adpar-small", "--json")
        assert code == 0
        body = json.loads(output)
        assert body["type"] == "simulate_result"
        assert body["report"]["kind"] == "adpar"

    def test_seed_flag_overrides(self):
        code, output = self.run(
            "simulate", "paper-batch-small", "--seed", "123"
        )
        assert code == 0
        assert "seed=123" in output

    def test_unknown_scenario_exits_2(self):
        code, _ = self.run("simulate", "ghost")
        assert code == 2

    def test_bad_override_exits_2(self):
        code, _ = self.run("simulate", "paper-batch-small", "--set", "bogus=1")
        assert code == 2
        code, _ = self.run("simulate", "paper-batch-small", "--set", "noequals")
        assert code == 2

    def test_missing_scenario_exits_2(self):
        code, _ = self.run("simulate")
        assert code == 2
