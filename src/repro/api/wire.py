"""Wire forms for every core payload type (API v1).

One seam between the in-memory dataclasses and the JSON that crosses a
process boundary, with one codec: :func:`~repro.api.codec.encode` and
:func:`~repro.api.codec.decode` derive each class's wire form from its
fields and type hints (see :mod:`repro.api.codec`).  The contracts:

* **JSON-native output.**  ``encode`` emits only dict/list/str/num/bool/
  None, so ``json.loads(json.dumps(encode(x)))`` is the identity on the
  payload (Python floats survive JSON exactly via repr round-trip).
* **Lossless round-trip.**  ``decode(type(x), encode(x)) == x`` for every
  payload (property-tested in ``tests/property/test_wire_roundtrip.py``,
  byte-pinned by ``tests/golden/``).  :class:`StrategyEnsemble` compares
  by content fingerprint via :class:`EnsembleRef`.
* **Typed failure.**  A malformed payload raises
  :class:`~repro.exceptions.ApiError` (never a bare ``KeyError`` /
  ``TypeError``), so transports can map it to a stable error envelope.

A new wire field is a new dataclass field.  This module declares only
where the wire form differs from the fields: keys a payload must carry
although the field has a default, keys left off the wire while they
hold their default, ``ScenarioSpec``'s key order, the option mappings'
list/tuple spelling, and :class:`EnsembleRef`, which keeps its own
format (inline arrays and the fingerprint check).

Versioning: envelopes (``repro.api.envelopes``) stamp ``api_version``
with :data:`API_VERSION`; payload forms are version-free and evolve
with it.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.api.codec import (
    Codec,
    as_list,
    as_str,
    decode,
    declare,
    expect_mapping,
    require,
)
from repro.core.aggregator import AggregatorReport
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.core.streaming import StreamDecision
from repro.engine.cache import CacheStats, ensemble_fingerprint
from repro.exceptions import ApiError
from repro.workloads.spec import EnsembleSpec, RequestBatchSpec, ScenarioSpec

#: The one wire version this tree speaks.  Bump on any incompatible
#: payload change; ``check_api_version`` rejects everything else with a
#: stable ``unsupported_version`` error code.
API_VERSION = 1


def check_api_version(payload: dict, what: str = "envelope") -> None:
    """Reject unversioned or wrong-version payloads with a stable code."""
    version = require(payload, "api_version", what)
    if version != API_VERSION:
        raise ApiError(
            f"{what} declares api_version={version!r}; "
            f"this server speaks {API_VERSION}",
            code="unsupported_version",
        )


# ------------------------------------------------------------ EnsembleRef
@dataclass(frozen=True, eq=False)
class EnsembleRef:
    """A strategy ensemble on the wire: inline arrays or by fingerprint.

    Inline form carries the full columnar model (``alpha``/``beta``/
    ``names``) plus its content fingerprint; reference form carries the
    fingerprint alone and resolves against ensembles the service has
    already seen (clients upload once, then address by hash).  Equality
    and hashing are by fingerprint, so round-tripped refs compare equal
    whichever form they took.
    """

    fingerprint: str
    ensemble: "StrategyEnsemble | None" = field(default=None, compare=False)

    @classmethod
    def of(cls, ensemble: StrategyEnsemble) -> "EnsembleRef":
        """Inline ref for an in-memory ensemble."""
        return cls(ensemble_fingerprint(ensemble), ensemble)

    @classmethod
    def by_fingerprint(cls, fingerprint: str) -> "EnsembleRef":
        """Reference-only form; the service must already know the hash."""
        return cls(fingerprint, None)

    @property
    def inline(self) -> bool:
        return self.ensemble is not None

    def __eq__(self, other):
        if not isinstance(other, EnsembleRef):
            return NotImplemented
        return self.fingerprint == other.fingerprint

    def __hash__(self):
        return hash(self.fingerprint)


def _ref_to_json(ref: EnsembleRef) -> dict:
    if ref.ensemble is None:
        return {"fingerprint": ref.fingerprint}
    return {
        "fingerprint": ref.fingerprint,
        "alpha": ref.ensemble.alpha.tolist(),
        "beta": ref.ensemble.beta.tolist(),
        "names": list(ref.ensemble.names),
    }


def _ref_from_json(payload, _key=None) -> EnsembleRef:
    what = "EnsembleRef"
    expect_mapping(payload, what)
    if "alpha" not in payload and "beta" not in payload:
        return EnsembleRef.by_fingerprint(
            as_str(require(payload, "fingerprint", what), "fingerprint")
        )
    alpha = as_list(require(payload, "alpha", what), "alpha")
    beta = as_list(require(payload, "beta", what), "beta")
    names = payload.get("names")
    if names is not None:
        names = [as_str(n, "names[]") for n in as_list(names, "names")]
    try:
        ensemble = StrategyEnsemble.from_arrays(
            np.asarray(alpha, dtype=float),
            np.asarray(beta, dtype=float),
            names=names,
        )
    except (ValueError, TypeError) as exc:
        raise ApiError(
            f"invalid inline ensemble: {exc}", code="invalid_payload"
        ) from exc
    ref = EnsembleRef.of(ensemble)
    declared = payload.get("fingerprint")
    if declared is not None and declared != ref.fingerprint:
        raise ApiError(
            "inline ensemble does not match its declared fingerprint "
            f"({declared!r})",
            code="fingerprint_mismatch",
        )
    return ref


declare(EnsembleRef, codec=Codec(_ref_to_json, _ref_from_json))


# -------------------------------------------------------------- EngineSpec
@dataclass(frozen=True)
class EngineSpec:
    """Everything (besides the ensemble) that configures one engine.

    The wire twin of :class:`~repro.engine.RecommendationEngine`'s
    constructor arguments; :meth:`pool_key` is the flat hashable identity
    :class:`~repro.api.EngineService` pools engines by, with planner /
    solver options canonicalized so spelling never splits the pool.
    Objectives are restricted to their string names on the wire.
    """

    availability: float
    objective: str = "throughput"
    aggregation: str = "sum"
    workforce_mode: str = "paper"
    eligibility: str = "pool"
    planner: str = "batch-greedy"
    planner_options: "dict | None" = None
    solver: str = "adpar-exact"
    solver_options: "dict | None" = None

    def __post_init__(self):
        # The wire decoder checks these itself; this catches in-process
        # callers (spec overrides) before pool_key trips over them.
        for name in ("planner_options", "solver_options"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, Mapping):
                raise TypeError(
                    f"{name} must be a mapping or None, got "
                    f"{type(value).__name__}"
                )

    def pool_key(self) -> tuple:
        from repro.engine.solvers import solver_options_key

        return (
            float(self.availability),
            self.objective,
            self.aggregation,
            self.workforce_mode,
            self.eligibility,
            self.planner,
            solver_options_key(self.planner_options),
            self.solver,
            solver_options_key(self.solver_options),
        )

    def engine_kwargs(self) -> dict:
        """Constructor kwargs for ``RecommendationEngine`` (sans ensemble)."""
        return {
            "availability": self.availability,
            "objective": self.objective,
            "aggregation": self.aggregation,
            "workforce_mode": self.workforce_mode,
            "eligibility": self.eligibility,
            "planner": self.planner,
            "planner_options": self.planner_options,
            "solver": self.solver,
            "solver_options": self.solver_options,
        }


def options_from_jsonable(options: dict) -> dict:
    """Backend options off the wire: list values (e.g. ``weights``) back
    to the tuples they were.

    Public because envelope decoding (``SimulateRequest`` overrides)
    normalizes backend options through it too.
    """
    return {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in options.items()
    }


def _options_to_jsonable(options: dict) -> dict:
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in options.items()
    }


def _options_from_json(value, what: str) -> "dict | None":
    if value is None:
        return None
    return options_from_jsonable(expect_mapping(value, what))


_OPTIONS = Codec(_options_to_jsonable, _options_from_json)

declare(
    EngineSpec,
    omit=("planner_options", "solver_options"),
    forms={"planner_options": _OPTIONS, "solver_options": _OPTIONS},
)


# ------------------------------------------------------- core payload forms
# Keys the wire has always required even though the field has a default.
declare(DeploymentRequest, required=("k",))
declare(StreamDecision, required=("strategy_names", "workforce_reserved"))
declare(
    CacheStats,
    required=("workforce_hits", "workforce_misses", "adpar_hits", "adpar_misses"),
)
declare(RequestBatchSpec, required=("m_requests", "k"))


def _distribution_options_from_json(value, what: str):
    return "" if value is None else expect_mapping(value, what)


# ``options`` is stored as canonical JSON text; the wire carries the
# mapping itself, and only when there is one.
declare(
    EnsembleSpec,
    required=("n_strategies",),
    omit=("options",),
    forms={"options": Codec(json.loads, _distribution_options_from_json)},
)
# Only 'trace' scenarios carry a path; omitting the empty default keeps
# pre-journal payloads byte-identical.
declare(
    ScenarioSpec,
    required=("kind", "ensemble", "requests"),
    order=("kind", "name", "description", "seed", "tightness"),
    omit=("trace_path",),
)

#: Decoders the perf harness imports by name.
report_from_dict = partial(decode, AggregatorReport)
stream_decision_from_dict = partial(decode, StreamDecision)

