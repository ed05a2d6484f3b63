"""Unit tests for the crowd-platform simulator."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.streaming import StreamStatus
from repro.engine import RecommendationEngine, drive_stream
from repro.journal.replay import reenact_on_engine
from repro.platform.events import DiscreteEventSimulator, Event
from repro.platform.history import AvailabilityRecord, HistoryLog
from repro.platform.hit import HIT, QualificationTest
from repro.platform.pool import RecruitmentPolicy, WorkerPool
from repro.platform.simulator import PAPER_WINDOWS, DeploymentWindow, PlatformSimulator
from repro.platform.worker import Worker, generate_workers
from repro.utils.rng import spawn_rngs
from repro.workloads import default_scenario_registry
from repro.workloads.generators import generate_requests, generate_strategy_ensemble


def make_worker(**overrides):
    defaults = dict(
        worker_id="w1",
        skills=frozenset({"translation"}),
        skill_level=0.8,
        speed=1.0,
        approval_rate=0.95,
        country="US",
        education="bachelor",
    )
    defaults.update(overrides)
    return Worker(**defaults)


class TestWorker:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_worker(skill_level=1.5)
        with pytest.raises(ValueError):
            make_worker(speed=0.0)

    def test_suits(self):
        worker = make_worker()
        assert worker.suits("translation")
        assert not worker.suits("creation")

    def test_qualification_score_reflects_skill(self, rng):
        skilled = make_worker(skill_level=0.9)
        unskilled = make_worker(worker_id="w2", skill_level=0.2)
        s1 = np.mean([skilled.qualification_score("translation", rng) for _ in range(30)])
        s2 = np.mean([unskilled.qualification_score("translation", rng) for _ in range(30)])
        assert s1 > s2

    def test_off_skill_scores_lower(self, rng):
        worker = make_worker(skill_level=0.9)
        on = np.mean([worker.qualification_score("translation", rng) for _ in range(30)])
        off = np.mean([worker.qualification_score("creation", rng) for _ in range(30)])
        assert on > off

    def test_generate_workers_deterministic(self):
        a = generate_workers(10, seed=1)
        b = generate_workers(10, seed=1)
        assert [w.worker_id for w in a] == [w.worker_id for w in b]
        assert [w.skill_level for w in a] == [w.skill_level for w in b]

    def test_generate_workers_negative_rejected(self):
        with pytest.raises(ValueError):
            generate_workers(-1)


class TestPool:
    def test_unique_ids_enforced(self):
        w = make_worker()
        with pytest.raises(ValueError):
            WorkerPool([w, w])

    def test_suitable_for_filters_by_skill(self):
        pool = WorkerPool(generate_workers(100, seed=2))
        for worker in pool.suitable_for("translation"):
            assert worker.suits("translation")

    def test_recruit_applies_policy(self):
        workers = [
            make_worker(worker_id="lowapproval", approval_rate=0.5),
            make_worker(worker_id="wrongcountry", country="DE"),
            make_worker(worker_id="good", skill_level=0.95),
        ]
        pool = WorkerPool(workers)
        recruited = pool.recruit("translation", seed=3)
        ids = [w.worker_id for w in recruited]
        assert "lowapproval" not in ids
        assert "wrongcountry" not in ids

    def test_recruit_limit(self):
        pool = WorkerPool(generate_workers(200, seed=4))
        recruited = pool.recruit("translation", seed=5, limit=7)
        assert len(recruited) <= 7

    def test_policy_for_creation_requires_us_degree(self):
        policy = RecruitmentPolicy.for_task_type("creation")
        assert not policy.admits(make_worker(country="IN"))
        assert not policy.admits(make_worker(education="high-school"))
        assert policy.admits(make_worker())


class TestHIT:
    def test_payout_requires_min_minutes(self):
        hit = HIT("h", "translation", reward_usd=2.0, min_minutes=10)
        assert hit.payout(5) == 0.0
        assert hit.payout(15) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            HIT("h", "t", max_workers=0)
        with pytest.raises(ValueError):
            HIT("h", "t", window_hours=0)

    def test_qualification_test_threshold(self, rng):
        test = QualificationTest("translation", threshold=0.8)
        expert = make_worker(skill_level=0.98)
        novice = make_worker(worker_id="w2", skill_level=0.3)
        assert sum(test.passes(expert, rng) for _ in range(20)) > sum(
            test.passes(novice, rng) for _ in range(20)
        )


class TestEvents:
    def test_events_processed_in_time_order(self):
        sim = DiscreteEventSimulator()
        seen = []
        sim.on("tick", lambda s, e: seen.append(e.time))
        for t in (3.0, 1.0, 2.0):
            sim.schedule(Event(t, "tick"))
        sim.run(10.0)
        assert seen == [1.0, 2.0, 3.0]

    def test_handlers_can_chain(self):
        sim = DiscreteEventSimulator()
        count = []

        def handler(s, e):
            count.append(s.now)
            if len(count) < 4:
                s.schedule(Event(s.now + 1.0, "tick"))

        sim.on("tick", handler)
        sim.schedule(Event(0.0, "tick"))
        sim.run(10.0)
        assert count == [0.0, 1.0, 2.0, 3.0]

    def test_horizon_cuts_off(self):
        sim = DiscreteEventSimulator()
        seen = []
        sim.on("tick", lambda s, e: seen.append(e.time))
        sim.schedule(Event(1.0, "tick"))
        sim.schedule(Event(5.0, "tick"))
        sim.run(2.0)
        assert seen == [1.0]
        assert sim.pending() == 1

    def test_past_event_rejected(self):
        sim = DiscreteEventSimulator()
        sim.on("tick", lambda s, e: None)
        sim.schedule(Event(1.0, "tick"))
        sim.run(2.0)
        with pytest.raises(ValueError):
            sim.schedule(Event(1.0, "tick"))

    def test_unknown_kind_raises(self):
        sim = DiscreteEventSimulator()
        sim.schedule(Event(0.0, "mystery"))
        with pytest.raises(KeyError):
            sim.run(1.0)


class TestSimulator:
    def test_availability_in_unit_interval(self):
        pool = WorkerPool(generate_workers(300, seed=6))
        simulator = PlatformSimulator(pool, seed=7)
        for window in PAPER_WINDOWS:
            obs = simulator.run_window(window, "translation")
            assert 0.0 <= obs.availability <= 1.0
            assert obs.engaged <= obs.recruited

    def test_window2_richest_on_average(self):
        pool = WorkerPool(generate_workers(300, seed=8))
        simulator = PlatformSimulator(pool, seed=9)
        results = simulator.observe_availability(repetitions=8)
        means = {name: float(np.mean(v)) for name, v in results.items()}
        w1, w2, w3 = (means[w.name] for w in PAPER_WINDOWS)
        assert w2 >= w1 and w2 >= w3

    def test_empty_pool_yields_zero(self):
        pool = WorkerPool([])
        simulator = PlatformSimulator(pool, seed=10)
        obs = simulator.run_window(PAPER_WINDOWS[0], "translation")
        assert obs.availability == 0.0
        assert obs.engaged_workers == ()

    def test_window_validation(self):
        with pytest.raises(ValueError):
            DeploymentWindow("w", 0.0, 0.5)
        with pytest.raises(ValueError):
            DeploymentWindow("w", 10.0, 1.5)


class TestStreamWindow:
    """A window's observed availability streamed through ``drive_stream``."""

    @staticmethod
    def _world():
        rng_s, rng_r = spawn_rngs(11, 2)
        ensemble = generate_strategy_ensemble(20, "uniform", rng_s)
        requests = generate_requests(60, k=3, seed=rng_r)
        return ensemble, requests

    @staticmethod
    def _availability():
        pool = WorkerPool(generate_workers(120, seed=3))
        observation = PlatformSimulator(pool, seed=5).run_window(
            PAPER_WINDOWS[1], "translation"
        )
        return observation.availability

    @staticmethod
    def _scalar_replay(session, requests, sizes, hold_bursts):
        """``drive_stream``'s loop, one ``submit`` at a time."""

        def admitted(batch):
            return [
                d.request.request_id
                for d in batch
                if d.status is StreamStatus.ADMITTED
            ]

        replayed = []
        cohorts = []
        start = 0
        for size in sizes:
            batch = [session.submit(r) for r in requests[start : start + size]]
            start += size
            replayed.extend(batch)
            cohorts.append(admitted(batch))
            if len(cohorts) > hold_bursts:
                for rid in cohorts.pop(0):
                    session.complete(rid)
                retries = session.retry_deferred()
                replayed.extend(retries)
                cohorts[-1].extend(admitted(retries))
        while cohorts:
            for rid in cohorts.pop(0):
                session.complete(rid)
            retries = session.retry_deferred()
            replayed.extend(retries)
            if retries and cohorts:
                cohorts[-1].extend(admitted(retries))
            elif retries:
                cohorts.append(admitted(retries))
        return replayed

    def test_stream_window_accounting(self):
        ensemble, requests = self._world()
        availability = self._availability()
        session = RecommendationEngine(
            ensemble, availability, aggregation="max"
        ).open_session()
        decisions, retried, _ = drive_stream(session, requests, burst_size=16)
        assert len(decisions) == len(requests) + retried
        assert session.completed_count <= session.admitted_count
        assert 0.0 <= session.utilization() <= 1.0
        statuses = [d.status for d in decisions]
        # Every arrival ends in exactly one terminal state.
        assert (
            session.admitted_count
            + statuses.count(StreamStatus.ALTERNATIVE)
            + statuses.count(StreamStatus.INFEASIBLE)
            + len(session.deferred)
            == len(requests)
        )

    def test_stream_window_decisions_match_scalar_session(self):
        """The streamed decisions per arrival equal a scalar-driven replay."""
        ensemble, requests = self._world()
        availability = self._availability()
        streamed, _, _ = drive_stream(
            RecommendationEngine(ensemble, availability).open_session(),
            requests,
            burst_size=16,
            hold_bursts=2,
        )
        # Replay the exact same schedule scalar-wise on a fresh session at
        # the same observed availability.
        replayed = self._scalar_replay(
            RecommendationEngine(ensemble, availability).open_session(),
            requests,
            [16] * 3 + [12],
            hold_bursts=2,
        )
        assert [d.comparison_key() for d in streamed] == [
            d.comparison_key() for d in replayed
        ]

    def test_stream_window_schedule_matches_scalar_session(self):
        """An explicit burst schedule replaces the constant burst size."""
        ensemble, requests = self._world()
        availability = self._availability()
        schedule = [5, 17, 1, 30, 7]
        streamed, _, _ = drive_stream(
            RecommendationEngine(ensemble, availability).open_session(),
            requests,
            burst_size=64,
            hold_bursts=3,
            schedule=schedule,
        )
        replayed = self._scalar_replay(
            RecommendationEngine(ensemble, availability).open_session(),
            requests,
            schedule,
            hold_bursts=3,
        )
        assert [d.comparison_key() for d in streamed] == [
            d.comparison_key() for d in replayed
        ]

    def test_stream_window_validates_parameters(self):
        ensemble, requests = self._world()
        session = RecommendationEngine(ensemble, 0.5).open_session()
        for kwargs in (
            {"burst_size": 0},
            {"hold_bursts": 0},
            {"schedule": [10, 0, 50]},
            {"schedule": [10, 20]},
        ):
            with pytest.raises(ValueError):
                drive_stream(session, requests, **kwargs)
        # Rejected before the first burst: the ledger is untouched.
        assert session.admitted_count == 0
        assert session.deferred == []


class TestRunScenario:
    """The closed loop: a scenario at a window's observed availability."""

    @staticmethod
    def _simulator():
        return PlatformSimulator(WorkerPool(generate_workers(160, seed=5)), seed=6)

    def test_batch_family(self):
        observation, report = self._simulator().run_scenario(
            "paper-batch-small", PAPER_WINDOWS[1]
        )
        assert report.kind == "batch"
        assert report.scenario.engine.availability == observation.availability
        spec = default_scenario_registry().get("paper-batch-small")
        ensemble, requests = spec.build()
        engine_spec = replace(spec.engine, availability=observation.availability)
        direct = RecommendationEngine(ensemble, **engine_spec.engine_kwargs())
        expected = direct.resolve(requests)
        assert report.arrivals == len(requests)
        assert (report.satisfied, report.alternative) == (
            expected.satisfied_count,
            expected.alternative_count,
        )
        assert report.satisfied + report.alternative + report.infeasible == len(
            requests
        )
        assert report.objective_value == expected.batch.objective_value

    def test_stream_family(self):
        observation, report = self._simulator().run_scenario(
            "diurnal-stream", PAPER_WINDOWS[1]
        )
        assert report.kind == "stream"
        assert report.scenario.engine.availability == observation.availability
        # A mix of outcomes, so the identity below is not vacuous.
        assert report.admitted > 0 and report.alternative > 0
        assert report.completed <= report.admitted
        assert 0.0 <= report.utilization <= 1.0
        assert (
            report.admitted
            + report.alternative
            + report.infeasible
            + report.still_deferred
            == report.arrivals
        )

    def test_adpar_scenario_rejected(self):
        with pytest.raises(ValueError):
            self._simulator().run_scenario("paper-adpar", PAPER_WINDOWS[1])

    def test_recorded_trace_reenacts_at_observed_availability(self):
        recorded = Path(__file__).resolve().parents[1] / "golden" / "recorded"
        spec = default_scenario_registry().create(
            "recorded-trace", trace_path=str(recorded)
        )
        observation, report = self._simulator().run_scenario(
            spec, PAPER_WINDOWS[1]
        )
        assert report.kind == "trace"
        assert report.scenario.engine.availability == observation.availability
        ensemble, workload = spec.build()
        expected = reenact_on_engine(
            RecommendationEngine(ensemble, observation.availability), workload
        )
        assert report.replay_decisions == expected.decisions > 0
        assert report.replay_sessions == expected.sessions
        assert report.replay_flips == expected.flips
        assert (report.satisfied, report.alternative) == (
            expected.identical,
            expected.changed,
        )


class TestHistory:
    def test_filters(self):
        log = HistoryLog()
        log.extend(
            [
                AvailabilityRecord("w1", "translation", "SEQ-IND-CRO", 0.5),
                AvailabilityRecord("w2", "translation", "SIM-COL-CRO", 0.7),
                AvailabilityRecord("w1", "creation", "SEQ-IND-CRO", 0.9),
            ]
        )
        assert len(log) == 3
        assert len(log.records(task_type="translation")) == 2
        assert log.samples(task_type="creation") == [0.9]
        assert len(log.records(window_name="w1")) == 2
        assert len(log.records(strategy_name="SIM-COL-CRO")) == 1

    def test_estimate_distribution(self):
        log = HistoryLog()
        for value in (0.5, 0.6, 0.7, 0.8):
            log.add(AvailabilityRecord("w", "t", "s", value))
        dist = log.estimate_distribution(task_type="t", bins=4)
        assert dist.expectation() == pytest.approx(0.65, abs=0.05)

    def test_estimate_empty_raises(self):
        with pytest.raises(ValueError):
            HistoryLog().estimate_distribution(task_type="t")
