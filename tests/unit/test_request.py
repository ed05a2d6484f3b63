"""Unit tests for deployment requests."""

import pytest

from repro.core.params import TriParams
from repro.core.request import DeploymentRequest, make_requests


class TestConstruction:
    def test_basic(self):
        r = DeploymentRequest("d1", TriParams(0.5, 0.5, 0.5), k=3)
        assert r.request_id == "d1"
        assert r.k == 3
        assert r.task_type == "generic"

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            DeploymentRequest("", TriParams(0.5, 0.5, 0.5))

    @pytest.mark.parametrize("bad_k", [0, -1, 1.5, True])
    def test_bad_k_rejected(self, bad_k):
        with pytest.raises(ValueError):
            DeploymentRequest("d1", TriParams(0.5, 0.5, 0.5), k=bad_k)

    def test_negative_payoff_rejected(self):
        with pytest.raises(ValueError):
            DeploymentRequest("d1", TriParams(0.5, 0.5, 0.5), payoff=-1.0)


class TestAccessors:
    def test_parameter_shortcuts(self):
        r = DeploymentRequest("d1", TriParams(0.6, 0.4, 0.3))
        assert r.quality == 0.6
        assert r.cost == 0.4
        assert r.latency == 0.3

    def test_default_payoff_is_cost(self):
        r = DeploymentRequest("d1", TriParams(0.6, 0.4, 0.3))
        assert r.effective_payoff() == pytest.approx(0.4)

    def test_explicit_payoff_wins(self):
        r = DeploymentRequest("d1", TriParams(0.6, 0.4, 0.3), payoff=2.5)
        assert r.effective_payoff() == 2.5

    def test_with_params_preserves_everything_else(self):
        r = DeploymentRequest("d1", TriParams(0.6, 0.4, 0.3), k=4, task_type="t", payoff=1.0)
        alt = r.with_params(TriParams(0.5, 0.6, 0.4))
        assert alt.request_id == "d1"
        assert alt.k == 4
        assert alt.task_type == "t"
        assert alt.payoff == 1.0
        assert alt.params == TriParams(0.5, 0.6, 0.4)


class TestMakeRequests:
    def test_ids_follow_paper_numbering(self):
        requests = make_requests([(0.4, 0.17, 0.28), (0.8, 0.2, 0.28)], k=3)
        assert [r.request_id for r in requests] == ["d1", "d2"]
        assert all(r.k == 3 for r in requests)

    def test_custom_prefix(self):
        requests = make_requests([(0.5, 0.5, 0.5)], prefix="req")
        assert requests[0].request_id == "req1"

    def test_empty_input(self):
        assert make_requests([]) == []


def _per_request_values():
    """One of each value the engine builds per request and may cache."""
    from repro.core.adpar import ADPaRResult
    from repro.core.aggregator import RequestResolution, ResolutionStatus
    from repro.core.workforce import RequestWorkforce

    params = TriParams(0.5, 0.2, 0.3)
    request = DeploymentRequest("d1", params, k=2, payoff=0.4)
    adpar = ADPaRResult(
        original=params,
        alternative=TriParams(0.4, 0.3, 0.3),
        distance=0.1,
        squared_distance=0.01,
        relaxation=(0.1, 0.1, 0.0),
        strategy_indices=(1, 2),
        strategy_names=("s2", "s3"),
    )
    return [
        params,
        request,
        RequestWorkforce("d1", 0.3, (1, 2), 5),
        adpar,
        RequestResolution(
            request=request,
            status=ResolutionStatus.ALTERNATIVE,
            strategy_names=("s2", "s3"),
            params=adpar.alternative,
            distance=0.1,
            adpar=adpar,
        ),
    ]


@pytest.mark.parametrize(
    "value", _per_request_values(), ids=lambda value: type(value).__name__
)
def test_per_request_values_are_slotted_and_pickle(value):
    """No per-instance ``__dict__`` (the caches hold many of these), and
    a pickle round trip (worker processes receive requests) is equal."""
    import pickle

    assert not hasattr(value, "__dict__")
    assert pickle.loads(pickle.dumps(value)) == value
