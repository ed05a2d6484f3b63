"""Synthetic generators matching §5.2.2's setup.

* Strategy dimension values come from ``uniform`` on ``[0.5, 1]`` or
  ``normal(0.75, 0.1)`` (clipped into ``[0, 1]``).
* Per-strategy availability sensitivities α are uniform on ``[0.5, 1]``
  with β = 1 − α, so estimated parameters stay within ``[0, 1]`` for any
  availability ("generated in consistence with our real data
  experiments").  We scale both by the sampled dimension value so the
  parameter at full availability equals that value; latency *decreases*
  with availability, matching the Table 6 signs.
* Deployment parameters are uniform on ``[0.625, 1]``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.params import TriParams
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.utils.registry import Registry
from repro.utils.rng import ensure_rng

#: The paper's two dimension-value distributions (§5.2.2).  The full set
#: of registered samplers — including the beyond-the-paper families — is
#: :func:`distribution_names`.
DISTRIBUTIONS = ("uniform", "normal")

#: A sampler draws dimension values for ``size`` cells from ``options``.
#: Values outside ``[0, 1]`` must be clipped by the sampler itself.
DistributionSampler = Callable[
    [np.random.Generator, tuple, dict], np.ndarray
]


def _sample_uniform(rng: np.random.Generator, size: tuple, options: dict) -> np.ndarray:
    return rng.uniform(
        float(options.get("low", 0.5)), float(options.get("high", 1.0)), size=size
    )


def _sample_normal(rng: np.random.Generator, size: tuple, options: dict) -> np.ndarray:
    return np.clip(
        rng.normal(
            float(options.get("mean", 0.75)),
            float(options.get("std", 0.1)),
            size=size,
        ),
        0.0,
        1.0,
    )


def _sample_heavy_tail(
    rng: np.random.Generator, size: tuple, options: dict
) -> np.ndarray:
    """Pareto-tailed dimension values: most strategies mediocre, few elite.

    ``floor + scale · Pareto(tail)`` clipped into ``[0, 1]`` — the clip
    piles the (heavy) upper tail onto a mass of near-perfect strategies,
    the regime uniform/normal workloads never produce.
    """
    floor = float(options.get("floor", 0.5))
    scale = float(options.get("scale", 0.12))
    tail = float(options.get("tail", 1.8))
    if tail <= 0 or scale <= 0:
        raise ValueError("heavy-tail options require tail > 0 and scale > 0")
    return np.clip(floor + scale * rng.pareto(tail, size=size), 0.0, 1.0)


def _sample_mixture(
    rng: np.random.Generator, size: tuple, options: dict
) -> np.ndarray:
    """A weighted mixture of registered distributions.

    ``options["components"]`` is a sequence of ``(name, weight)`` or
    ``(name, weight, sub_options)`` entries.  The component is chosen
    per *row* (first axis): a strategy drawn from the elite component is
    elite in every dimension, which is what a "30% elite strategies"
    mixture means — per-cell mixing would make an all-elite row
    exponentially rare.
    """
    components = options.get("components")
    if not components:
        raise ValueError("mixture distribution requires non-empty 'components'")
    names, weights, sub_options = [], [], []
    for component in components:
        if len(component) not in (2, 3):
            raise ValueError(
                "each mixture component must be (name, weight[, options])"
            )
        names.append(component[0])
        weights.append(float(component[1]))
        sub_options.append(dict(component[2]) if len(component) == 3 else {})
        if names[-1] == "mixture":
            raise ValueError("mixture components cannot nest mixtures")
    probabilities = np.asarray(weights, dtype=float)
    if (probabilities < 0).any() or probabilities.sum() <= 0:
        raise ValueError("mixture weights must be >= 0 and sum to > 0")
    probabilities = probabilities / probabilities.sum()
    rows = int(size[0]) if size else 1
    rest = tuple(size[1:])
    choice = rng.choice(len(names), size=rows, p=probabilities)
    out = np.empty((rows,) + rest)
    for index, name in enumerate(names):
        mask = choice == index
        count = int(mask.sum())
        if count:
            out[mask] = _dimension_values(
                rng, (count,) + rest, name, sub_options[index]
            )
    return out.reshape(size)


class _Distributions(Registry):
    """Name → :data:`DistributionSampler`; an unknown name is a
    ``ValueError``, as any other bad generator argument."""

    kind = "distribution"
    error = ValueError


_DISTRIBUTIONS = _Distributions()


def register_distribution(
    name: str,
    sampler: DistributionSampler,
    description: str = "",
    replace: bool = False,
) -> None:
    """Register a pluggable dimension-value sampler under ``name``."""
    _DISTRIBUTIONS.register(name, sampler, description, replace)


def distribution_names() -> "tuple[str, ...]":
    """Every registered distribution name, sorted."""
    return tuple(_DISTRIBUTIONS.names())


register_distribution(
    "uniform", _sample_uniform, "uniform on [0.5, 1] (§5.2.2 default)"
)
register_distribution(
    "normal", _sample_normal, "normal(0.75, 0.1) clipped into [0, 1] (§5.2.2)"
)
register_distribution(
    "heavy-tail",
    _sample_heavy_tail,
    "Pareto-tailed values clipped into [0, 1]; a few elite strategies",
)
register_distribution(
    "mixture",
    _sample_mixture,
    "weighted mixture of registered distributions (options['components'])",
)


def _dimension_values(
    rng: np.random.Generator,
    size: tuple,
    distribution: str,
    options: "dict | None" = None,
) -> np.ndarray:
    return _DISTRIBUTIONS.get(distribution)(rng, size, dict(options or {}))


def generate_strategy_ensemble(
    n: int,
    distribution: str = "uniform",
    seed: "int | np.random.Generator | None" = None,
    options: "dict | None" = None,
) -> StrategyEnsemble:
    """Generate ``n`` synthetic strategy profiles with linear models.

    Quality and cost increase with availability and hit the sampled
    dimension value at ``W = 1``; latency starts at its dimension value
    and decreases with availability.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = ensure_rng(seed)
    values = _dimension_values(rng, (n, 3), distribution, options)  # (q, c, l)
    sensitivity = rng.uniform(0.5, 1.0, size=(n, 3))
    alpha = np.empty((n, 3))
    beta = np.empty((n, 3))
    # Quality, cost: value(W) = v·(α·W + 1 − α) — increasing, value(1) = v.
    for dim in (0, 1):
        alpha[:, dim] = sensitivity[:, dim] * values[:, dim]
        beta[:, dim] = (1.0 - sensitivity[:, dim]) * values[:, dim]
    # Latency: value(W) = v·(1 − α·W) — decreasing from v toward v(1 − α).
    alpha[:, 2] = -sensitivity[:, 2] * values[:, 2]
    beta[:, 2] = values[:, 2]
    return StrategyEnsemble.from_arrays(alpha, beta)


def generate_requests(
    m: int,
    k: int = 10,
    seed: "int | np.random.Generator | None" = None,
    low: float = 0.625,
    high: float = 1.0,
    task_type: str = "generic",
    quality_offset: float = 0.25,
    prefix: str = "d",
) -> list[DeploymentRequest]:
    """Generate ``m`` deployment requests with parameters in ``[low, high]``.
    Ids are ``{prefix}1, {prefix}2, …`` — pass a distinct prefix when
    several generated batches meet in one stream/session.

    Cost and latency upper bounds are the raw draws.  The quality *lower*
    bound is the draw minus ``quality_offset`` (default 0.25, i.e. quality
    thresholds in [0.375, 0.75] for the paper's [0.625, 1] range).  Taking
    the raw draw as a quality lower bound makes every request demand
    near-perfect quality and drives Figure 14's satisfaction to ~0 at any
    sweep point — §5.2.2 does not spell out the quality orientation, and
    the offset reading is the one that reproduces the paper's satisfaction
    levels and curve shapes (see EXPERIMENTS.md).  Pass
    ``quality_offset=0.0`` for the literal reading.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if quality_offset < 0:
        raise ValueError("quality_offset must be >= 0")
    rng = ensure_rng(seed)
    params = rng.uniform(low, high, size=(m, 3))
    params[:, 0] = np.clip(params[:, 0] - quality_offset, 0.0, 1.0)
    return [
        DeploymentRequest(
            request_id=f"{prefix}{i + 1}",
            params=TriParams(*row),
            k=k,
            task_type=task_type,
        )
        for i, row in enumerate(params)
    ]


def generate_adpar_points(
    n: int,
    distribution: str = "uniform",
    seed: "int | np.random.Generator | None" = None,
    options: "dict | None" = None,
) -> list[TriParams]:
    """Fixed strategy parameter triples for ADPaR experiments.

    ADPaR operates on strategy *points* (estimated parameters), so the
    dimension values are used directly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = ensure_rng(seed)
    values = _dimension_values(rng, (n, 3), distribution, options)
    return [TriParams(*row) for row in values]


def hard_request_for(
    points: Sequence[TriParams],
    seed: "int | np.random.Generator | None" = None,
    tightness: float = 0.15,
) -> TriParams:
    """A deliberately unsatisfiable request near the point cloud.

    Used by the ADPaR experiments: thresholds are pushed past the best
    strategies so an alternative is always required.
    """
    rng = ensure_rng(seed)
    arr = np.array([p.as_tuple() for p in points])  # (n, 3) q/c/l
    quality = float(np.clip(arr[:, 0].max() + rng.uniform(0.0, tightness), 0.0, 1.0))
    cost = float(np.clip(arr[:, 1].min() - rng.uniform(0.0, tightness), 0.0, 1.0))
    latency = float(np.clip(arr[:, 2].min() - rng.uniform(0.0, tightness), 0.0, 1.0))
    return TriParams(quality=quality, cost=cost, latency=latency)
