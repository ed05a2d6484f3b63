"""RequestCoalescer: merged execution is invisible except in the stats.

Every stateless ``resolve``/``alternatives`` call goes through the
service's coalescer.  Merged calls must answer exactly what a directly
driven :class:`RecommendationEngine` answers, errors must stay per-call,
and the ``stats`` envelope must surface the coalescer's counters.

Merges are made deterministic without any gather window: the first
flush is held until every call of the test has entered the coalescer,
so all later calls queue behind it and share the next flush.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

import repro.api.coalescer as coalescer_module
from repro.api import (
    AlternativesRequest,
    EngineService,
    EngineSpec,
    EnsembleRef,
    ResolveRequest,
)
from repro.api.envelopes import StatsResponse
from repro.core.params import TriParams
from repro.core.request import make_requests
from repro.core.strategy import StrategyEnsemble
from repro.engine import RecommendationEngine
from repro.exceptions import ApiError, InfeasibleRequestError

AVAILABILITY = 0.8
TIMEOUT_S = 30.0


def paper_ensemble() -> StrategyEnsemble:
    return StrategyEnsemble.from_params(
        [
            TriParams(0.50, 0.25, 0.28),
            TriParams(0.75, 0.33, 0.28),
            TriParams(0.80, 0.50, 0.14),
            TriParams(0.88, 0.58, 0.14),
        ]
    )


def spec() -> EngineSpec:
    return EngineSpec(availability=AVAILABILITY)


def direct_engine() -> RecommendationEngine:
    """A fresh engine for the service's (ensemble, spec), driven directly."""
    return RecommendationEngine(paper_ensemble(), **spec().engine_kwargs())


def direct_resolve(request: ResolveRequest):
    return direct_engine().resolve(
        list(request.requests),
        objective=request.objective,
        planner=request.planner,
        solver=request.solver,
    )


def direct_alternatives(request: AlternativesRequest):
    return tuple(
        direct_engine().recommend_alternatives(
            list(request.requests), k=request.k, solver=request.solver
        )
    )


def resolve_request(i: int, k: int = 3) -> ResolveRequest:
    requests = make_requests(
        [
            (0.35 + 0.05 * i, 0.17, 0.28),
            (0.80, 0.20 + 0.02 * i, 0.28),
            (0.70, 0.83, 0.26 + 0.01 * i),
        ],
        k=k,
    )
    return ResolveRequest(
        ensemble=EnsembleRef.of(paper_ensemble()),
        requests=tuple(requests),
        spec=spec(),
    )


def alternatives_request(params, k: int) -> AlternativesRequest:
    # Envelope-level k stays None so every such call lands in ONE
    # coalescer group; feasibility is decided by each request's own k.
    return AlternativesRequest(
        ensemble=EnsembleRef.of(paper_ensemble()),
        requests=tuple(make_requests([params], k=k)),
        spec=spec(),
    )


def new_service() -> EngineService:
    service = EngineService(default_spec=spec())
    # Pool the engine up front: threads racing on a cold pool key could
    # each build one, and calls on different engines never share a flush.
    service.engine_for(EnsembleRef.of(paper_ensemble()), spec())
    return service


def wait_until(predicate, what: str) -> None:
    deadline = time.monotonic() + TIMEOUT_S
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError(f"timed out waiting for {what}")
        time.sleep(0.001)


def submit_behind_first(service, first, rest):
    """Submit ``first``, then every call in ``rest`` while ``first``'s
    flush is held, so ``rest`` queues up and flushes together next.

    The held flush waits until all calls have entered the coalescer.
    Returns every call's ``("ok" | "error", value)`` outcome (``first``
    first) and the request envelopes of each flush, in flush order.
    """
    coalescer = service.coalescer
    execute = coalescer._execute
    flushes = []
    n_calls = 1 + len(rest)

    def held(kind, engine, batch):
        if not flushes:
            wait_until(
                lambda: coalescer.occupancy()["calls"] >= n_calls,
                f"{n_calls} calls to enter the coalescer",
            )
        flushes.append([call.request for call in batch])
        execute(kind, engine, batch)

    coalescer._execute = held
    outcomes = [None] * n_calls

    def runner(i, work):
        try:
            outcomes[i] = ("ok", work())
        except Exception as exc:  # noqa: BLE001 — asserted by the caller
            outcomes[i] = ("error", exc)

    threads = [
        threading.Thread(target=runner, args=(i, work))
        for i, work in enumerate([first, *rest])
    ]
    threads[0].start()
    wait_until(
        lambda: coalescer.occupancy()["batches"] == 1, "the first flush"
    )
    for thread in threads[1:]:
        thread.start()
    for thread in threads:
        thread.join(timeout=TIMEOUT_S)
        assert not thread.is_alive()
    return outcomes, flushes


def test_single_call_passes_through():
    service = EngineService(default_spec=spec())
    request = resolve_request(0)
    assert service.resolve(request).report == direct_resolve(request)
    occupancy = service.coalescer.occupancy()
    assert occupancy == {
        "calls": 1,
        "batches": 1,
        "coalesced": 0,
        "in_flight_groups": 0,
    }


def test_concurrent_resolves_coalesce_and_match_direct():
    service = new_service()
    requests = [resolve_request(i) for i in range(8)]
    outcomes, flushes = submit_behind_first(
        service,
        lambda: service.resolve(requests[0]),
        [lambda r=r: service.resolve(r) for r in requests[1:]],
    )
    for request, (status, response) in zip(requests, outcomes):
        assert status == "ok", response
        assert response.report == direct_resolve(request)
    assert [len(flush) for flush in flushes] == [1, 7]
    occupancy = service.coalescer.occupancy()
    assert occupancy["calls"] == 8
    assert occupancy["batches"] == 2
    assert occupancy["coalesced"] == 7
    assert occupancy["in_flight_groups"] == 0


def test_a_flush_takes_at_most_max_batch_calls(monkeypatch):
    monkeypatch.setattr(coalescer_module, "MAX_BATCH", 2)
    service = new_service()
    requests = [resolve_request(i) for i in range(5)]
    outcomes, flushes = submit_behind_first(
        service,
        lambda: service.resolve(requests[0]),
        [lambda r=r: service.resolve(r) for r in requests[1:]],
    )
    for request, (status, response) in zip(requests, outcomes):
        assert status == "ok", response
        assert response.report == direct_resolve(request)
    assert [len(flush) for flush in flushes] == [1, 2, 2]
    occupancy = service.coalescer.occupancy()
    assert (occupancy["batches"], occupancy["coalesced"]) == (3, 4)


def test_every_call_is_flushed_exactly_once_under_contention():
    """More threads than cores and a short switch interval: each call
    lands in exactly one flush and gets its own engine answer back."""
    service = new_service()
    coalescer = service.coalescer
    execute = coalescer._execute
    sizes = []

    def counted(kind, engine, batch):
        sizes.append(len(batch))
        execute(kind, engine, batch)

    coalescer._execute = counted
    shapes = 8
    requests = [resolve_request(i % shapes) for i in range(64)]
    reports = [None] * len(requests)

    def runner(i):
        reports[i] = service.resolve(requests[i]).report

    threads = [
        threading.Thread(target=runner, args=(i,))
        for i in range(len(requests))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=TIMEOUT_S)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    expected = [direct_resolve(resolve_request(i)) for i in range(shapes)]
    assert reports == [expected[i % shapes] for i in range(len(requests))]
    occupancy = coalescer.occupancy()
    assert occupancy["calls"] == sum(sizes) == len(requests)
    assert occupancy["batches"] == len(sizes)
    assert occupancy["coalesced"] == sum(size for size in sizes if size > 1)
    assert occupancy["in_flight_groups"] == 0


def test_concurrent_alternatives_isolate_per_call_infeasibility():
    service = new_service()
    plug = alternatives_request((0.8, 0.2, 0.2), k=2)
    good = alternatives_request((0.9, 0.1, 0.1), k=2)
    # k exceeds |S|=4: infeasible no matter the relaxation.
    bad = alternatives_request((0.9, 0.1, 0.1), k=10)
    outcomes, flushes = submit_behind_first(
        service,
        lambda: service.alternatives(plug),
        [lambda: service.alternatives(good), lambda: service.alternatives(bad)],
    )
    # The failing call shared its flush with a good one.
    assert len(flushes) == 2
    assert good in flushes[1] and bad in flushes[1]
    (plug_status, plug_out), (good_status, good_out), (bad_status, error) = (
        outcomes
    )
    assert (plug_status, good_status, bad_status) == ("ok", "ok", "error")
    assert plug_out.results == direct_alternatives(plug)
    assert good_out.results == direct_alternatives(good)
    assert isinstance(error, InfeasibleRequestError)
    assert "k=10" in str(error)
    with pytest.raises(InfeasibleRequestError) as alone:
        direct_alternatives(bad)
    assert str(error) == str(alone.value)


def test_identity_errors_stay_per_call():
    service = EngineService(default_spec=spec())
    ghost = ResolveRequest(
        ensemble=EnsembleRef(fingerprint="0" * 64),
        requests=tuple(make_requests([(0.5, 0.5, 0.5)], k=1)),
        spec=spec(),
    )
    with pytest.raises(ApiError) as excinfo:
        service.resolve(ghost)
    assert excinfo.value.code == "unknown_ensemble"
    # The failed call never entered a group.
    assert service.coalescer.occupancy()["calls"] == 0


def test_duplicate_ids_fail_only_their_own_call():
    service = new_service()
    plug = resolve_request(1)
    clean = resolve_request(0)
    duplicated = ResolveRequest(
        ensemble=EnsembleRef.of(paper_ensemble()),
        requests=tuple(clean.requests[:1] + clean.requests[:1]),
        spec=spec(),
    )
    outcomes, flushes = submit_behind_first(
        service,
        lambda: service.resolve(plug),
        [lambda: service.resolve(clean), lambda: service.resolve(duplicated)],
    )
    # The failing call shared its flush with a good one.
    assert len(flushes) == 2
    assert clean in flushes[1] and duplicated in flushes[1]
    (plug_status, plug_out), (clean_status, clean_out), (dup_status, error) = (
        outcomes
    )
    assert (plug_status, clean_status, dup_status) == ("ok", "ok", "error")
    assert plug_out.report == direct_resolve(plug)
    assert clean_out.report == direct_resolve(clean)
    assert isinstance(error, ValueError)
    with pytest.raises(ValueError) as alone:
        direct_resolve(duplicated)
    assert str(error) == str(alone.value)


def test_stats_envelope_surfaces_coalescer_occupancy():
    assert EngineService().stats().coalescer == {
        "calls": 0,
        "batches": 0,
        "coalesced": 0,
        "in_flight_groups": 0,
    }
    service = EngineService(default_spec=spec())
    service.handle(resolve_request(0))
    service.handle(alternatives_request((0.9, 0.1, 0.1), k=2))
    stats = service.stats()
    assert stats.coalescer["calls"] == 2
    wire = stats.to_dict()
    assert wire["coalescer"]["calls"] == 2
    decoded = StatsResponse.from_dict(wire)
    assert decoded.coalescer == stats.coalescer
