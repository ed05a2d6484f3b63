"""Deployment strategies: the Structure × Organization × Style space.

A strategy instantiates three dimensions (§2.1): Structure (sequential or
simultaneous solicitation), Organization (collaborative or independent
work) and Style (crowd-only or hybrid crowd+machine).  A
:class:`StrategyProfile` attaches per-parameter linear models (Equation 4)
so quality/cost/latency can be estimated at any availability; a
:class:`StrategyEnsemble` stores many profiles columnar-style for the
vectorized optimizer paths.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.params import TriParams
from repro.exceptions import UnknownStrategyError
from repro.modeling.modelbank import ParamModels


class Structure(enum.Enum):
    """How the workforce is solicited."""

    SEQUENTIAL = "SEQ"
    SIMULTANEOUS = "SIM"


class Organization(enum.Enum):
    """How workers are organized."""

    INDEPENDENT = "IND"
    COLLABORATIVE = "COL"


class Style(enum.Enum):
    """Whether machines join the crowd."""

    CROWD = "CRO"
    HYBRID = "HYB"


@dataclass(frozen=True)
class Strategy:
    """A strategy identity, e.g. ``SEQ-IND-CRO``."""

    structure: Structure
    organization: Organization
    style: Style

    @property
    def name(self) -> str:
        """Paper-style name, e.g. ``"SIM-COL-CRO"``."""
        return f"{self.structure.value}-{self.organization.value}-{self.style.value}"

    @classmethod
    def from_name(cls, name: str) -> "Strategy":
        """Parse a ``STRUCT-ORG-STYLE`` name."""
        try:
            struct_code, org_code, style_code = name.strip().upper().split("-")
            structure = Structure(struct_code)
            organization = Organization(org_code)
            style = Style(style_code)
        except (ValueError, KeyError) as exc:
            raise UnknownStrategyError(f"not a valid strategy name: {name!r}") from exc
        return cls(structure, organization, style)

    def __str__(self) -> str:
        return self.name


def full_catalog() -> list[Strategy]:
    """All 8 (Structure, Organization, Style) combinations."""
    return [
        Strategy(structure, organization, style)
        for structure in Structure
        for organization in Organization
        for style in Style
    ]


def paper_catalog() -> list[Strategy]:
    """The four strategies of Figure 2, in the paper's s1..s4 order:
    SIM-COL-CRO, SEQ-IND-CRO, SIM-IND-CRO, SIM-IND-HYB."""
    return [
        Strategy.from_name("SIM-COL-CRO"),
        Strategy.from_name("SEQ-IND-CRO"),
        Strategy.from_name("SIM-IND-CRO"),
        Strategy.from_name("SIM-IND-HYB"),
    ]


@dataclass(frozen=True)
class StrategyProfile:
    """A strategy plus the linear models estimating its parameters.

    ``label`` distinguishes profiles when the same identity appears with
    different models (e.g. synthetic workloads with thousands of
    strategies).
    """

    strategy: Strategy
    models: ParamModels
    label: "str | None" = None

    @property
    def name(self) -> str:
        return self.label if self.label is not None else self.strategy.name

    def estimate(self, availability: float) -> TriParams:
        """Estimated (quality, cost, latency) at availability ``W`` (Eq. 4)."""
        return self.models.estimate(availability)

    def workforce_required(self, request_params: TriParams, mode: str = "paper") -> float:
        """Minimum workforce to hit the request thresholds (§3.2 step 1)."""
        return self.models.workforce_required(request_params, mode=mode)


def _check_names(names: "list[str]") -> None:
    """Reject duplicate names, and NUL inside a name: the content
    fingerprint joins names on NUL, so a NUL inside a name would let two
    ensembles share one fingerprint."""
    if len(set(names)) != len(names):
        raise ValueError("strategy names must be unique within an ensemble")
    if any("\x00" in name for name in names):
        raise ValueError("strategy names must not contain NUL")


class StrategyEnsemble:
    """A columnar collection of strategy profiles.

    Stores the six model coefficients as parallel numpy arrays so the
    batch optimizer evaluates Equation 4 (and its inversion) for all
    strategies at once.  Column order everywhere is
    ``(quality, cost, latency)``.
    """

    def __init__(self, profiles: Sequence[StrategyProfile]):
        profiles = list(profiles)
        if not profiles:
            raise ValueError("ensemble needs at least one strategy profile")
        self._profiles: "list[StrategyProfile] | None" = profiles
        self.alpha = np.array(
            [
                [p.models.quality.alpha, p.models.cost.alpha, p.models.latency.alpha]
                for p in profiles
            ],
            dtype=float,
        )
        self.beta = np.array(
            [
                [p.models.quality.beta, p.models.cost.beta, p.models.latency.beta]
                for p in profiles
            ],
            dtype=float,
        )
        names = [p.name for p in profiles]
        _check_names(names)
        self.names = names
        self._index: "dict[str, int] | None" = {
            name: i for i, name in enumerate(names)
        }

    @classmethod
    def from_arrays(
        cls,
        alpha: np.ndarray,
        beta: np.ndarray,
        names: "Sequence[str] | None" = None,
    ) -> "StrategyEnsemble":
        """Columnar constructor for large synthetic ensembles.

        ``alpha``/``beta`` have shape ``(n, 3)`` in (quality, cost,
        latency) column order.  Profiles are materialized lazily, so
        million-strategy workloads (Figure 18's scalability claims) avoid
        a million dataclass allocations.
        """
        alpha = np.asarray(alpha, dtype=float)
        beta = np.asarray(beta, dtype=float)
        if alpha.ndim != 2 or alpha.shape[1] != 3 or alpha.shape != beta.shape:
            raise ValueError(
                f"alpha/beta must share shape (n, 3), got {alpha.shape} and {beta.shape}"
            )
        if alpha.shape[0] == 0:
            raise ValueError("ensemble needs at least one strategy")
        if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
            raise ValueError("alpha/beta must be finite")
        self = cls.__new__(cls)
        self._profiles = None
        self.alpha = alpha
        self.beta = beta
        if names is None:
            names = [f"s{i + 1}" for i in range(alpha.shape[0])]
        else:
            names = list(names)
            if len(names) != alpha.shape[0]:
                raise ValueError("names must match the number of strategies")
            _check_names(names)
        self.names = names
        self._index = None  # built lazily on first lookup
        return self

    def _materialize(self, index: int) -> StrategyProfile:
        from repro.modeling.linear import LinearModel

        catalog = full_catalog()
        models = ParamModels(
            quality=LinearModel(self.alpha[index, 0], self.beta[index, 0]),
            cost=LinearModel(self.alpha[index, 1], self.beta[index, 1]),
            latency=LinearModel(self.alpha[index, 2], self.beta[index, 2]),
        )
        return StrategyProfile(
            strategy=catalog[index % len(catalog)],
            models=models,
            label=self.names[index],
        )

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[StrategyProfile]:
        if self._profiles is not None:
            return iter(self._profiles)
        return (self._materialize(i) for i in range(len(self)))

    def __getitem__(self, index: int) -> StrategyProfile:
        if self._profiles is not None:
            return self._profiles[index]
        return self._materialize(index)

    def index_of(self, name: str) -> int:
        """Position of a profile by name."""
        if self._index is None:
            self._index = {n: i for i, n in enumerate(self.names)}
        try:
            return self._index[name]
        except KeyError:
            raise UnknownStrategyError(name) from None

    def estimate_matrix(self, availability: float) -> np.ndarray:
        """``(n, 3)`` array of estimated (quality, cost, latency) at ``W``,
        clipped to ``[0, 1]`` like all normalized parameters."""
        return np.clip(self.alpha * float(availability) + self.beta, 0.0, 1.0)

    def estimate_params(self, availability: float) -> list[TriParams]:
        """Per-profile :class:`TriParams` at availability ``W``."""
        matrix = self.estimate_matrix(availability)
        return [TriParams(*row) for row in matrix]

    @classmethod
    def from_params(
        cls,
        params: Iterable[TriParams],
        names: "Sequence[str] | None" = None,
        strategy: "Strategy | None" = None,
    ) -> "StrategyEnsemble":
        """Ensemble of *constant* strategies (α = 0, β = value).

        This is how fixed strategy tables — e.g. Table 1's s1..s4 or the
        ADPaR synthetic points — enter the optimizer and ADPaR.
        """
        params = list(params)
        if names is None:
            names = [f"s{i + 1}" for i in range(len(params))]
        identity = strategy if strategy is not None else paper_catalog()[0]
        profiles = [
            StrategyProfile(
                strategy=identity,
                models=ParamModels.constant(p),
                label=name,
            )
            for p, name in zip(params, names)
        ]
        return cls(profiles)
