"""The one :class:`~repro.utils.registry.Registry` contract, held by every
catalog: planner and solver backends, scenario families and
dimension-value distributions, each as its process-wide default and as
a fresh instance of its class."""

from pathlib import Path

import pytest

from repro.engine import default_registry, default_solver_registry
from repro.exceptions import (
    UnknownPlannerError,
    UnknownScenarioError,
    UnknownSolverError,
)
from repro.workloads import ScenarioRegistry, default_scenario_registry
from repro.workloads.generators import _DISTRIBUTIONS
from repro.workloads.spec import ScenarioSpec

#: catalog -> (its default registry, the error an unknown name raises)
CATALOGS = {
    "planners": (default_registry, UnknownPlannerError),
    "solvers": (default_solver_registry, UnknownSolverError),
    "scenarios": (default_scenario_registry, UnknownScenarioError),
    "distributions": (lambda: _DISTRIBUTIONS, ValueError),
}

CASES = [(name, fresh) for name in CATALOGS for fresh in (False, True)]


@pytest.fixture(
    params=CASES,
    ids=[f"{name}-{'fresh' if fresh else 'default'}" for name, fresh in CASES],
)
def case(request, monkeypatch):
    """``(registry, error)``; a default registry is mutated on a copy of
    its entries that the test's end puts back."""
    name, fresh = request.param
    default, error = CATALOGS[name]
    registry = default()
    if fresh:
        registry = type(registry)()
        register(registry, "seeded", "a seeded entry")
    else:
        monkeypatch.setattr(registry, "_entries", dict(registry._entries))
    return registry, error


def register(registry, name, description="", replace=False):
    """Register a stand-in entry; a scenario's description is its spec's."""
    if isinstance(registry, ScenarioRegistry):
        spec = ScenarioSpec(kind="batch", description=description)
        registry.register(name, spec, replace=replace)
    else:
        registry.register(name, object(), description, replace=replace)


def test_an_empty_or_a_taken_name_is_refused(case):
    registry, _error = case
    before = registry.names()
    with pytest.raises(ValueError, match="non-empty"):
        register(registry, "")
    with pytest.raises(ValueError, match="already registered"):
        register(registry, before[0], "a second entry")
    assert registry.names() == before


def test_replace_overrides(case):
    registry, _error = case
    register(registry, "contract-entry", "first")
    register(registry, "contract-entry", "second", replace=True)
    assert registry.describe("contract-entry") == "second"


def test_names_are_sorted(case):
    registry, _error = case
    register(registry, "zz-contract")
    register(registry, "aa-contract")
    names = registry.names()
    assert names == sorted(names)
    assert {"aa-contract", "zz-contract"} <= set(names)
    assert "aa-contract" in registry and "no-such-entry" not in registry


def test_an_unknown_name_raises_the_typed_error_naming_every_entry(case):
    registry, error = case
    for lookup in (registry.get, registry.describe):
        with pytest.raises(error) as caught:
            lookup("no-such-entry")
        assert "no-such-entry" in str(caught.value)
        for name in registry.names():
            assert name in str(caught.value)


def test_describe_returns_the_registered_description(case):
    registry, _error = case
    register(registry, "described", "what it is")
    assert registry.describe("described") == "what it is"
    if isinstance(registry, ScenarioRegistry):
        assert registry.get("described").description == "what it is"


def test_one_registry_implementation():
    """Every catalog shares the one duplicate check."""
    src = Path(__file__).resolve().parents[2] / "src"
    hits = [
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if "already registered" in line
    ]
    assert hits == ["repro/utils/registry.py"]
