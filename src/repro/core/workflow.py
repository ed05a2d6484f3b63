"""Multi-stage workflow strategies (§2.1's Turkomatic discussion).

The paper notes that with tools like Turkomatic or Soylent a deployment
is really a *workflow* of stages, each independently choosing Structure,
Organization and Style — ``8^x`` candidate strategies for ``x`` stages —
"such tools would certainly benefit from strategy recommendation".  This
module makes workflows first-class: a :class:`WorkflowStrategy` is a
sequence of stage profiles whose parameters compose into one effective
:class:`~repro.modeling.modelbank.ParamModels`, so the entire BatchStrat /
ADPaR machinery applies to workflow spaces unchanged.

Composition rules (for parameters normalized per stage):

* quality — the output of a stage is the input of the next; the final
  quality is a convex blend that weights later stages more (refinement):
  ``q = Σ w_i·q_i`` with ``w_i ∝ γ^(x−i)``, ``γ < 1``.
* cost — additive, then renormalized by the stage count so workflows of
  different lengths stay on the unit scale.
* latency — additive and renormalized the same way; stages run back to
  back.

All three rules are affine in each stage's parameters, so composing
linear-in-availability stage models yields another linear model —
Equation 4 keeps holding for workflows, which is what lets the
recommendation layer treat them like atomic strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from repro.core.strategy import Strategy, StrategyProfile, full_catalog
from repro.modeling.linear import LinearModel
from repro.modeling.modelbank import ModelBank, ParamModels
from repro.utils.validation import check_positive_int

#: Later-stage emphasis in the quality blend.
DEFAULT_REFINEMENT = 0.6


def _quality_weights(stages: int, refinement: float) -> np.ndarray:
    """Convex weights over stages, geometric toward the last stage."""
    raw = np.array([refinement ** (stages - 1 - i) for i in range(stages)])
    return raw / raw.sum()


@dataclass(frozen=True)
class WorkflowStrategy:
    """A named sequence of per-stage strategy profiles."""

    stages: tuple[StrategyProfile, ...]
    refinement: float = DEFAULT_REFINEMENT
    label: "str | None" = None

    def __post_init__(self):
        if not self.stages:
            raise ValueError("a workflow needs at least one stage")
        if not 0.0 < self.refinement <= 1.0:
            raise ValueError("refinement must lie in (0, 1]")

    @property
    def name(self) -> str:
        if self.label is not None:
            return self.label
        return " > ".join(stage.strategy.name for stage in self.stages)

    def __len__(self) -> int:
        return len(self.stages)

    def compose_models(self) -> ParamModels:
        """Fold the stage models into one effective linear model triple."""
        x = len(self.stages)
        weights = _quality_weights(x, self.refinement)
        q_alpha = sum(
            w * stage.models.quality.alpha for w, stage in zip(weights, self.stages)
        )
        q_beta = sum(
            w * stage.models.quality.beta for w, stage in zip(weights, self.stages)
        )
        c_alpha = sum(stage.models.cost.alpha for stage in self.stages) / x
        c_beta = sum(stage.models.cost.beta for stage in self.stages) / x
        l_alpha = sum(stage.models.latency.alpha for stage in self.stages) / x
        l_beta = sum(stage.models.latency.beta for stage in self.stages) / x
        return ParamModels(
            quality=LinearModel(float(q_alpha), float(q_beta)),
            cost=LinearModel(float(c_alpha), float(c_beta)),
            latency=LinearModel(float(l_alpha), float(l_beta)),
        )


def enumerate_workflows(
    stage_count: int,
    model_bank: ModelBank,
    task_type: str,
    catalog: "Sequence[Strategy] | None" = None,
    refinement: float = DEFAULT_REFINEMENT,
    limit: "int | None" = None,
) -> list[WorkflowStrategy]:
    """All ``|catalog|^stage_count`` workflows over calibrated strategies.

    ``limit`` caps the enumeration (workflow spaces explode — 8 stages of
    8 choices is 16.7M; the paper's point exactly).  Strategies missing
    from the bank are skipped.
    """
    check_positive_int("stage_count", stage_count)
    if catalog is None:
        catalog = full_catalog()
    profiles = []
    for strategy in catalog:
        if (task_type, strategy.name) in model_bank:
            profiles.append(
                StrategyProfile(
                    strategy=strategy,
                    models=model_bank.get(task_type, strategy.name),
                )
            )
    if not profiles:
        raise ValueError(f"model bank has no strategies for {task_type!r}")
    total = len(profiles) ** stage_count
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    workflows = []
    for combo in product(profiles, repeat=stage_count):
        workflows.append(WorkflowStrategy(stages=tuple(combo), refinement=refinement))
        if limit is not None and len(workflows) >= limit:
            break
    assert limit is not None or len(workflows) == total
    return workflows


def workflow_ensemble(
    workflows: Iterable[WorkflowStrategy],
):
    """Build a :class:`~repro.core.strategy.StrategyEnsemble` of workflows.

    The effective models are composed once, columnar-style, so thousands
    of workflows plug into BatchStrat/ADPaR like any other ensemble.
    """
    from repro.core.strategy import StrategyEnsemble

    workflows = list(workflows)
    if not workflows:
        raise ValueError("need at least one workflow")
    alpha = np.empty((len(workflows), 3))
    beta = np.empty((len(workflows), 3))
    names = []
    for i, workflow in enumerate(workflows):
        models = workflow.compose_models()
        alpha[i] = [models.quality.alpha, models.cost.alpha, models.latency.alpha]
        beta[i] = [models.quality.beta, models.cost.beta, models.latency.beta]
        names.append(f"w{i + 1}:{workflow.name}")
    return StrategyEnsemble.from_arrays(alpha, beta, names=names)
