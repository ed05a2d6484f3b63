"""The versioned service API — the one public seam in front of the engine.

Three layers, each importable on its own:

* :mod:`repro.api.codec` — the one codec: :func:`encode` / :func:`decode`
  derive every dataclass's wire form (lossless JSON round-trip) from its
  fields; :mod:`repro.api.wire` declares where core payload types differ
  from their fields, plus :class:`EnsembleRef` (ensembles inline or by
  content fingerprint) and :class:`EngineSpec` (the engine configuration
  identity engines are pooled by).  :data:`API_VERSION` stamps every
  envelope.
* :mod:`repro.api.envelopes` — typed request/response envelopes
  (``plan`` / ``resolve`` / ``alternatives`` / ``submit_batch`` /
  ``retry_deferred`` / session ops / ``stats``) and the stable
  error-code contract (:func:`error_response_for`).
* :mod:`repro.api.service` — :class:`EngineService`, the stateless
  dispatcher multiplexing pooled engines and opaque-id sessions across
  tenants; :mod:`repro.api.http` serves it as JSON over stdlib
  ``http.server`` (the ``repro serve`` subcommand) on a bounded handler
  thread pool with keep-alive; :mod:`repro.api.coalescer` merges
  concurrent stateless calls into one vectorized engine pass per
  (ensemble, spec) group; :mod:`repro.api.client` is the matching
  keep-alive :class:`ServiceClient` (benchmarks and the cluster router
  both speak through it).

Decision-for-decision identity with driving the engine directly is
pinned by ``tests/property/test_service_equivalence.py``.
"""

from repro.api.codec import decode, encode
from repro.api.envelopes import (
    AlternativesRequest,
    AlternativesResponse,
    ERROR_CODES,
    ErrorResponse,
    PlanRequest,
    PlanResponse,
    REQUEST_TYPES,
    ResolveRequest,
    ResolveResponse,
    RetryDeferredRequest,
    RetryDeferredResponse,
    SessionOpRequest,
    SessionOpResponse,
    SimulateRequest,
    SimulateResponse,
    StatsRequest,
    StatsResponse,
    SubmitBatchRequest,
    SubmitBatchResponse,
    error_code_for,
    error_response_for,
    parse_request,
    parse_response,
)
from repro.api.client import ServiceClient, ServiceClientError
from repro.api.coalescer import RequestCoalescer
from repro.api.http import API_PATH, DEFAULT_THREADS, make_server, serve
from repro.api.service import EngineService
from repro.api.wire import API_VERSION, EngineSpec, EnsembleRef
from repro.exceptions import ApiError

__all__ = [
    "API_PATH",
    "API_VERSION",
    "ApiError",
    "AlternativesRequest",
    "AlternativesResponse",
    "DEFAULT_THREADS",
    "ERROR_CODES",
    "EngineService",
    "EngineSpec",
    "EnsembleRef",
    "ErrorResponse",
    "PlanRequest",
    "PlanResponse",
    "REQUEST_TYPES",
    "RequestCoalescer",
    "ResolveRequest",
    "ResolveResponse",
    "RetryDeferredRequest",
    "RetryDeferredResponse",
    "ServiceClient",
    "ServiceClientError",
    "SessionOpRequest",
    "SessionOpResponse",
    "SimulateRequest",
    "SimulateResponse",
    "StatsRequest",
    "StatsResponse",
    "SubmitBatchRequest",
    "SubmitBatchResponse",
    "decode",
    "encode",
    "error_code_for",
    "error_response_for",
    "make_server",
    "parse_request",
    "parse_response",
    "serve",
]
