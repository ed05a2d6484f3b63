"""Shared fixtures: the paper's running example and small synthetic worlds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import TriParams
from repro.core.request import DeploymentRequest, make_requests
from repro.core.strategy import StrategyEnsemble
from repro.modeling.linear import LinearModel
from repro.modeling.modelbank import ParamModels


@pytest.fixture
def table1_strategies() -> list[TriParams]:
    """Table 1's s1..s4 parameter triples."""
    return [
        TriParams(0.5, 0.25, 0.28),
        TriParams(0.75, 0.33, 0.28),
        TriParams(0.8, 0.5, 0.14),
        TriParams(0.88, 0.58, 0.14),
    ]


@pytest.fixture
def table1_ensemble(table1_strategies) -> StrategyEnsemble:
    return StrategyEnsemble.from_params(table1_strategies)


@pytest.fixture
def table1_requests():
    """Table 1's d1..d3 with k=3."""
    return make_requests(
        [(0.4, 0.17, 0.28), (0.8, 0.2, 0.28), (0.7, 0.83, 0.28)], k=3
    )


@pytest.fixture
def linear_param_models() -> ParamModels:
    """A realistic modeled strategy: quality/cost rise, latency falls."""
    return ParamModels(
        quality=LinearModel(0.09, 0.85),
        cost=LinearModel(1.00, 0.00),
        latency=LinearModel(-0.98, 1.40),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def resubmit_trace(tmp_path) -> str:
    """A recorded journal directory: one session at availability 0.5
    over 40 strategies takes a burst of 12 (2 admitted, 10 deferred),
    completes the 2 admitted, then resubmits ``r2`` alone."""
    from repro.api import (
        EngineService,
        EngineSpec,
        SessionOpRequest,
        SubmitBatchRequest,
    )
    from repro.core.streaming import StreamStatus
    from repro.journal import DecisionJournal
    from repro.utils.rng import spawn_rngs
    from repro.workloads.generators import generate_strategy_ensemble

    journal = DecisionJournal(str(tmp_path))
    service = EngineService()
    service.attach_journal(journal)
    ensemble = generate_strategy_ensemble(40, "uniform", spawn_rngs(7, 1)[0])
    session_id = service.open_session(ensemble, EngineSpec(availability=0.5))
    burst = tuple(
        DeploymentRequest(f"r{i}", TriParams(0.5, 0.3, 0.9), k=1)
        for i in range(12)
    )
    first = service.submit_batch(
        SubmitBatchRequest(requests=burst, session_id=session_id)
    )
    admitted = tuple(
        d.request.request_id
        for d in first.decisions
        if d.status is StreamStatus.ADMITTED
    )
    assert len(admitted) == 2
    service.session_op(
        SessionOpRequest(
            op="complete", session_id=session_id, request_ids=admitted
        )
    )
    service.submit_batch(
        SubmitBatchRequest(requests=(burst[2],), session_id=session_id)
    )
    journal.close()
    return str(tmp_path)
