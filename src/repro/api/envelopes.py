"""Versioned request/response envelopes and the typed error contract.

Every envelope is a frozen dataclass whose ``to_dict`` / ``from_dict``
run the derived codec (:mod:`repro.api.codec`), stamping/checking
``api_version`` (:data:`~repro.api.wire.API_VERSION`) and a stable
``type`` tag; :func:`parse_request` / :func:`parse_response` dispatch a
raw JSON object back to the right class.  Failures anywhere in
decoding raise :class:`~repro.exceptions.ApiError`, and
:func:`error_response_for` maps the whole :mod:`repro.exceptions`
hierarchy to stable machine-readable error codes so a transport never
leaks a traceback.

Request types (→ their responses):

========================  ==========================================
``plan``                  one planner pass (:class:`PlanResponse`)
``resolve``               plan + ADPaR routing (:class:`ResolveResponse`)
``alternatives``          batch ADPaR (:class:`AlternativesResponse`)
``submit_batch``          streaming burst (:class:`SubmitBatchResponse`)
``retry_deferred``        deferred-queue drain (:class:`RetryDeferredResponse`)
``complete`` / ``revoke``  release reservations (:class:`SessionOpResponse`)
``close_session``         drop a session handle (:class:`SessionOpResponse`)
``simulate``              run a declarative scenario (:class:`SimulateResponse`)
``stats``                 cache/pool counters (:class:`StatsResponse`)
========================  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.codec import (
    Codec,
    as_str,
    decode,
    declare,
    encode,
    expect_mapping,
    require,
)
from repro.api.wire import (
    API_VERSION,
    EngineSpec,
    EnsembleRef,
    check_api_version,
    options_from_jsonable,
)
from repro.core.adpar import ADPaRResult
from repro.core.aggregator import AggregatorReport
from repro.core.batchstrat import BatchOutcome
from repro.core.request import DeploymentRequest
from repro.core.streaming import StreamDecision
from repro.engine.cache import CacheStats
from repro.exceptions import (
    ApiError,
    InfeasibleRequestError,
    InvalidSpecError,
    ModelNotFittedError,
    ReproError,
    UnknownPlannerError,
    UnknownScenarioError,
    UnknownSolverError,
    UnknownStrategyError,
)
from repro.workloads.simulation import SimulationReport
from repro.workloads.spec import ScenarioSpec

# ------------------------------------------------------------- error codes
#: Exception class → stable wire error code, most specific first.  An
#: :class:`ApiError` overrides this table with its own ``code``.
ERROR_CODES: "tuple[tuple[type, str], ...]" = (
    (InfeasibleRequestError, "infeasible_request"),
    (UnknownPlannerError, "unknown_planner"),
    (UnknownSolverError, "unknown_solver"),
    (UnknownScenarioError, "unknown_scenario"),
    (UnknownStrategyError, "unknown_strategy"),
    (InvalidSpecError, "invalid_spec"),
    (ModelNotFittedError, "model_not_fitted"),
    (ReproError, "engine_error"),
    (ValueError, "invalid_argument"),
    (TypeError, "invalid_argument"),
    (KeyError, "invalid_argument"),
)


def error_code_for(exc: BaseException) -> str:
    """The stable error code one exception maps to (``internal`` if none)."""
    if isinstance(exc, ApiError):
        return exc.code
    for exc_type, code in ERROR_CODES:
        if isinstance(exc, exc_type):
            return code
    return "internal"


def error_response_for(exc: BaseException) -> "ErrorResponse":
    """Wrap any exception in the typed error envelope."""
    message = str(exc) or type(exc).__name__
    if isinstance(exc, KeyError) and not isinstance(exc, ReproError):
        message = f"missing key {message}"
    return ErrorResponse(code=error_code_for(exc), message=message)


# ---------------------------------------------------------------- plumbing
def _check_envelope(cls, payload) -> dict:
    expect_mapping(payload, cls.type)
    check_api_version(payload, cls.type)
    declared = require(payload, "type", cls.type)
    if declared != cls.type:
        raise ApiError(
            f"expected a {cls.type!r} envelope, got {declared!r}",
            code="malformed_payload",
        )
    return payload


class _Envelope:
    """Base of every envelope: the derived codec behind ``to_dict`` /
    ``from_dict``.

    A subclass with a ``type`` tag declares its wire form at class
    creation: ``api_version`` and ``type`` first, then its fields; class
    keywords are :class:`~repro.api.codec.Form` overrides (``order`` puts
    keys first, ``omit`` leaves default-valued keys off the wire).
    """

    def __init_subclass__(cls, **overrides):
        super().__init_subclass__()
        if "type" in cls.__dict__:
            declare(
                cls,
                tag=(("api_version", API_VERSION), ("type", cls.type)),
                what=cls.type,
                **overrides,
            )

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, payload):
        _check_envelope(cls, payload)
        return decode(cls, payload)


class _Response(_Envelope):
    def to_dict(self) -> dict:
        # Defined here too, so a tracer patching the method it finds on
        # a response class wraps response encoding only.
        return encode(self)


# ---------------------------------------------------------------- requests
@dataclass(frozen=True)
class PlanRequest(_Envelope, order=("ensemble", "spec")):
    """One planner pass over a batch — no ADPaR routing."""

    type = "plan"
    ensemble: EnsembleRef
    requests: "tuple[DeploymentRequest, ...]"
    spec: "EngineSpec | None" = None
    objective: "str | None" = None
    planner: "str | None" = None


@dataclass(frozen=True)
class ResolveRequest(_Envelope, order=("ensemble", "spec")):
    """Serve a batch end-to-end: plan, then ADPaR for the rest."""

    type = "resolve"
    ensemble: EnsembleRef
    requests: "tuple[DeploymentRequest, ...]"
    spec: "EngineSpec | None" = None
    objective: "str | None" = None
    planner: "str | None" = None
    solver: "str | None" = None


@dataclass(frozen=True)
class AlternativesRequest(_Envelope, order=("ensemble", "spec")):
    """Batch ADPaR: closest alternative parameters per request."""

    type = "alternatives"
    ensemble: EnsembleRef
    requests: "tuple[DeploymentRequest, ...]"
    spec: "EngineSpec | None" = None
    k: "int | None" = None
    solver: "str | None" = None


@dataclass(frozen=True)
class SubmitBatchRequest(_Envelope, order=("session_id", "ensemble", "spec")):
    """One streaming arrival burst (``EngineSession.submit_many`` semantics).

    Address an open session by id, or open one implicitly by sending
    ``ensemble`` (+ optional ``spec``) with ``session_id=None`` — the
    response echoes the id for follow-up bursts.
    """

    type = "submit_batch"
    requests: "tuple[DeploymentRequest, ...]"
    session_id: "str | None" = None
    ensemble: "EnsembleRef | None" = None
    spec: "EngineSpec | None" = None


@dataclass(frozen=True)
class RetryDeferredRequest(_Envelope):
    """Drain a session's deferred queue against freed capacity."""

    type = "retry_deferred"
    session_id: str


#: The envelope types a :class:`SessionOpRequest` travels under.
SESSION_OPS = ("complete", "revoke", "close_session")


@dataclass(frozen=True)
class SessionOpRequest(_Envelope):
    """Release reservations (``complete``/``revoke``) or close a session.

    Its ``op`` is the envelope's ``type`` tag.
    """

    op: str  # one of SESSION_OPS
    session_id: str
    request_ids: "tuple[str, ...]" = ()

    @classmethod
    def from_dict(cls, payload) -> "SessionOpRequest":
        op = expect_mapping(payload, "session op").get("type")
        if op not in SESSION_OPS:
            raise ApiError(
                f"expected one of the {list(SESSION_OPS)} envelopes, got {op!r}",
                code="malformed_payload",
            )
        check_api_version(payload, op)
        return decode(cls, payload)


declare(
    SessionOpRequest,
    tag=(("api_version", API_VERSION),),
    keys={"op": "type"},
    order=("type",),
    what="session op",
)


def _overrides_from_json(value, what: str) -> "dict | None":
    if value is None:
        return None
    return {
        as_str(key, "overrides key"): (
            options_from_jsonable(expect_mapping(item, key))
            if key in ("planner_options", "solver_options")
            else item
        )
        for key, item in expect_mapping(value, what).items()
    }


@dataclass(frozen=True)
class SimulateRequest(
    _Envelope,
    omit=("scenario", "name", "overrides"),
    forms={"overrides": Codec(dict, _overrides_from_json)},
):
    """Run one declarative workload scenario server-side.

    Either an inline :class:`~repro.workloads.spec.ScenarioSpec`
    (``scenario``) or a registry family name (``name``) with optional
    sweep ``overrides`` (applied through ``ScenarioSpec.with_``, so
    unknown fields answer the stable ``invalid_spec`` code).  The server
    materializes the ensemble itself — a client never ships 10k
    strategies inline — and registers it by content hash, so follow-up
    ``plan``/``resolve`` calls can address it by fingerprint.
    """

    type = "simulate"
    scenario: "ScenarioSpec | None" = None
    name: "str | None" = None
    overrides: "dict | None" = None

    def __post_init__(self):
        if not self.overrides:
            object.__setattr__(self, "overrides", None)
        if (self.scenario is None) == (self.name is None):
            raise ApiError(
                "simulate needs exactly one of 'scenario' (inline spec) "
                "or 'name' (registry family)",
                code="invalid_argument",
            )
        if self.overrides is not None and self.scenario is not None:
            raise ApiError(
                "overrides only apply to a named scenario; fold them into "
                "the inline spec instead",
                code="invalid_argument",
            )


@dataclass(frozen=True)
class StatsRequest(_Envelope):
    """Service-level counters: shared cache stats, pool and session sizes."""

    type = "stats"


# --------------------------------------------------------------- responses
@dataclass(frozen=True)
class PlanResponse(_Response):
    type = "plan_result"
    outcome: BatchOutcome


@dataclass(frozen=True)
class ResolveResponse(_Response):
    type = "resolve_result"
    report: AggregatorReport


@dataclass(frozen=True)
class AlternativesResponse(_Response):
    type = "alternatives_result"
    results: "tuple[ADPaRResult, ...]"


@dataclass(frozen=True)
class _SessionDecisionsResponse(_Response):
    """Shared wire shape: a session's fresh decisions plus ledger counters.

    Subclasses differ only in their ``type`` tag (dataclass equality is
    class-strict, so a submit result never compares equal to a retry
    result even with identical fields).
    """

    session_id: str
    decisions: "tuple[StreamDecision, ...]"
    remaining: float
    deferred: int


class SubmitBatchResponse(_SessionDecisionsResponse):
    type = "submit_batch_result"


class RetryDeferredResponse(_SessionDecisionsResponse):
    type = "retry_deferred_result"


@dataclass(frozen=True)
class SessionOpResponse(_Response):
    type = "session_op_result"
    op: str
    session_id: str
    released: float = 0.0


@dataclass(frozen=True)
class SimulateResponse(_Response):
    type = "simulate_result"
    report: SimulationReport


@dataclass(frozen=True)
class StatsResponse(
    _Response,
    order=(
        "cache",
        "engines",
        "sessions",
        "ensembles",
        "workloads",
        "max_engines",
        "max_sessions",
        "max_ensembles",
        "hit_rate",
    ),
    output_only=("hit_rate",),
    omit=("shards", "router", "journal"),
):
    """Service counters: cache hit rates, pool occupancy, and limits.

    ``occupancy`` is the shared cache's per-section entry/capacity map
    (:meth:`~repro.engine.cache.EngineCache.occupancy`); ``workloads``
    counts materialized scenario specs held by the content-hash workload
    cache.  ``hit_rate`` is *derived* from the cache counters (emitted on
    the wire for convenience, never decoded back — it cannot drift from
    the counters it summarizes).  ``coalescer`` is the service's request
    coalescer occupancy snapshot — ``calls``/``batches``/``coalesced``
    counters plus the in-flight group count.  The limit fields,
    ``occupancy`` and ``coalescer`` decode with empty defaults so
    pre-extension payloads still parse.

    A cluster router answers ``stats`` with the *sum* over its worker
    shards (the ``coalescer`` and ``journal`` blocks element-wise) and
    two extra fields a single process never emits:
    ``shards`` (each worker's own stats dict plus slot/pid/address) and
    ``router`` (forwarded/affinity-hit/replication/restart counters).
    Both are ``None`` — and absent from the wire — outside a cluster.

    ``journal`` carries the attached decision journal's counter block
    (events/bytes/checkpoints/restores/replay counters — all numeric,
    so the router sums it across shards like the cache counters);
    ``None`` and absent from the wire when no journal is attached, so
    unjournaled payloads stay byte-identical to pre-journal ones.
    """

    type = "stats_result"
    cache: CacheStats
    engines: int
    sessions: int
    ensembles: int
    workloads: int = 0
    max_engines: int = 0
    max_sessions: int = 0
    max_ensembles: int = 0
    occupancy: "dict | None" = None
    coalescer: "dict | None" = None
    shards: "list | None" = None
    router: "dict | None" = None
    journal: "dict | None" = None

    @property
    def hit_rate(self) -> float:
        """Shared-cache hit rate, derived from the carried counters."""
        return self.cache.hit_rate()


@dataclass(frozen=True)
class ErrorResponse(_Response):
    """The typed error envelope every failure maps to."""

    type = "error"
    code: str
    message: str


# ---------------------------------------------------------------- dispatch
_REQUEST_TYPES = {
    PlanRequest.type: PlanRequest.from_dict,
    ResolveRequest.type: ResolveRequest.from_dict,
    AlternativesRequest.type: AlternativesRequest.from_dict,
    SubmitBatchRequest.type: SubmitBatchRequest.from_dict,
    RetryDeferredRequest.type: RetryDeferredRequest.from_dict,
    **{op: SessionOpRequest.from_dict for op in SESSION_OPS},
    SimulateRequest.type: SimulateRequest.from_dict,
    StatsRequest.type: StatsRequest.from_dict,
}

_RESPONSE_TYPES = {
    cls.type: cls.from_dict
    for cls in (
        PlanResponse,
        ResolveResponse,
        AlternativesResponse,
        SubmitBatchResponse,
        RetryDeferredResponse,
        SessionOpResponse,
        SimulateResponse,
        StatsResponse,
        ErrorResponse,
    )
}

#: Every request envelope type the service understands, in wire order.
REQUEST_TYPES = tuple(_REQUEST_TYPES)


def parse_request(payload):
    """Dispatch one raw JSON object to its typed request envelope."""
    expect_mapping(payload, "request envelope")
    check_api_version(payload, "request envelope")
    envelope_type = require(payload, "type", "request envelope")
    # A non-string tag (a list, an object) is unknown, not unhashable.
    parser = (
        _REQUEST_TYPES.get(envelope_type)
        if isinstance(envelope_type, str)
        else None
    )
    if parser is None:
        raise ApiError(
            f"unknown request type {envelope_type!r}; "
            f"expected one of {sorted(_REQUEST_TYPES)}",
            code="unknown_type",
        )
    return parser(payload)


def parse_response(payload):
    """Dispatch one raw JSON object to its typed response envelope."""
    expect_mapping(payload, "response envelope")
    check_api_version(payload, "response envelope")
    envelope_type = require(payload, "type", "response envelope")
    parser = (
        _RESPONSE_TYPES.get(envelope_type)
        if isinstance(envelope_type, str)
        else None
    )
    if parser is None:
        raise ApiError(
            f"unknown response type {envelope_type!r}",
            code="unknown_type",
        )
    return parser(payload)
