"""``repro serve`` — JSON-over-HTTP transport for :class:`EngineService`.

Stdlib only (:mod:`http.server`): POST a request envelope to ``/v1`` (or
to ``/v1/<type>`` with the ``type`` field implied by the path) and get
the matching response envelope back.  Batch-friendly by construction —
``submit_batch`` carries a whole arrival burst per round trip and rides
the engine's vectorized ``submit_many`` path.  ``GET /v1/health`` answers
a version probe.

Error contract: every failure is the typed error envelope from
:mod:`repro.api.envelopes`; :data:`HTTP_STATUS` maps its stable code to
the status line (unknown handles → 404, ``internal`` → 500, any other
client error → 400).  Tracebacks never cross the wire.

**Concurrency.**  Handler threads call straight into
:meth:`EngineService.handle_dict` — there is no transport-level lock.
The service is internally thread-safe (sharded engine/ensemble pools,
per-session locks, locked cache sections; see :mod:`repro.api.service`),
and concurrent stateless ``resolve``/``alternatives`` calls are merged
by the service's :class:`~repro.api.coalescer.RequestCoalescer` into one
vectorized pass per engine identity.  The server is a bounded-pool
variant of :class:`ThreadingHTTPServer` (``threads`` workers; excess
connections queue in the listen backlog), and the handler disables
Nagle's algorithm — with keep-alive JSON ping-pong, the Nagle /
delayed-ACK interplay otherwise stalls every response by ~40 ms, which
was the dominant cost of the old serve path.

**Keep-alive.**  HTTP/1.1 persistent connections are honored end to end:
error responses carry correct ``Content-Length`` and leave the
connection open whenever the request body was fully consumed (wrong
path, invalid JSON, typed service errors).  ``Connection: close`` is
sent only when framing is actually unrecoverable — a missing, malformed
or oversized ``Content-Length``, where bytes may be left unread and
would desync the next request on the wire.  ``GET /v1/health`` takes no
service lock of any kind.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.api.envelopes import ErrorResponse
from repro.api.service import EngineService
from repro.api.wire import API_VERSION

#: URL prefix this server mounts the versioned API under.
API_PATH = f"/v{API_VERSION}"

#: Stable error code → HTTP status: missing resources/handles are 404,
#: ``internal`` is 500, anything absent is a 400 client error.  An
#: unknown envelope *type* is deliberately 400 — the resource exists,
#: the body is wrong (matching the README contract).
HTTP_STATUS = {
    "not_found": 404,
    "unknown_session": 404,
    "unknown_ensemble": 404,
    "unknown_reservation": 404,
    "unknown_scenario": 404,
    "internal": 500,
    # A cluster-router worker shard died mid-request; the supervisor is
    # restarting it and the call is safe to retry against the same URL.
    "upstream_unavailable": 503,
}

_MAX_BODY_BYTES = 64 * 1024 * 1024

#: Default handler-pool width for ``make_server``/``repro serve``.
DEFAULT_THREADS = 16


class ApiRequestHandler(BaseHTTPRequestHandler):
    """One HTTP request → one envelope through the service."""

    server_version = f"repro-serve/{API_VERSION}"
    protocol_version = "HTTP/1.1"
    #: The undecoded request body, stashed by :meth:`_read_payload` so a
    #: proxying subclass (the cluster router) can forward it verbatim
    #: without a decode/re-encode round trip.
    raw_body: bytes = b""
    # Nagle + delayed ACK stalls small keep-alive responses ~40 ms each;
    # envelopes are single writes, so there is nothing to batch anyway.
    disable_nagle_algorithm = True
    # A dead keep-alive peer must release its pool thread eventually.
    timeout = 60

    # ------------------------------------------------------------------ GET
    def do_GET(self):  # noqa: N802 — http.server API
        # Lock-free by design: liveness probes must answer even while
        # every worker thread is busy inside the service.
        if self.path.rstrip("/") in (API_PATH + "/health", API_PATH):
            self._send_json(
                200, {"status": "ok", "api_version": API_VERSION}
            )
            return
        self._send_json(
            404,
            _error_body("not_found", f"no such path {self.path!r}"),
        )

    # ----------------------------------------------------------------- POST
    def do_POST(self):  # noqa: N802 — http.server API
        payload, error = self._read_payload()
        if error is not None:
            self._send_json(HTTP_STATUS.get(error.get("code"), 400), error)
            return
        body = self.server.service.handle_dict(payload)
        status = 200
        if body.get("type") == "error":
            status = HTTP_STATUS.get(body.get("code"), 400)
        self._send_json(status, body)

    def _read_payload(self):
        """Decode the body; returns ``(payload, None)`` or ``(None, error)``.

        Keep-alive hygiene: whenever the body can be fully consumed
        (wrong path with a well-framed body, valid-length non-JSON
        bytes), it is drained and the connection stays open.  Only an
        unparseable or out-of-range ``Content-Length`` — where the
        framing itself is unknown — marks the connection for close.
        """
        path = self.path.rstrip("/")
        if path != API_PATH and not path.startswith(API_PATH + "/"):
            if not self._drain_body():
                self.close_connection = True
            return None, _error_body(
                "not_found", f"POST to {API_PATH} or {API_PATH}/<type>"
            )
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self.close_connection = True
            return None, _error_body("malformed_payload", "bad Content-Length")
        if length < 0 or length > _MAX_BODY_BYTES:
            self.close_connection = True
            return None, _error_body(
                "malformed_payload",
                f"Content-Length must be in (0, {_MAX_BODY_BYTES}]",
            )
        if length == 0:
            # Nothing unread — the connection can survive this error.
            return None, _error_body(
                "malformed_payload",
                f"Content-Length must be in (0, {_MAX_BODY_BYTES}]",
            )
        self.raw_body = self.rfile.read(length)
        try:
            payload = json.loads(self.raw_body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return None, _error_body(
                "malformed_payload", f"body is not valid JSON: {exc}"
            )
        # /v1/<type> implies the envelope type; a body naming a
        # *different* type is rejected rather than silently rerouted (the
        # URL is what proxies/ACLs see — it must not lie).
        suffix = path[len(API_PATH) :].strip("/")
        if suffix and isinstance(payload, dict):
            implied = suffix.replace("-", "_")
            declared = payload.setdefault("type", implied)
            if declared != implied:
                return None, _error_body(
                    "malformed_payload",
                    f"body type {declared!r} contradicts path "
                    f"{API_PATH}/{suffix}",
                )
            payload.setdefault("api_version", API_VERSION)
        return payload, None

    def _drain_body(self) -> bool:
        """Discard a request body; ``True`` if the stream is left clean."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            return False
        if length < 0 or length > _MAX_BODY_BYTES:
            return False
        if length:
            self.rfile.read(length)
        return True

    # ------------------------------------------------------------- plumbing
    def _send_json(self, status: int, body: dict) -> None:
        self._send_bytes(status, json.dumps(body).encode())

    def _send_bytes(self, status: int, data: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            # Set by _read_payload when the body may be (partly) unread —
            # tell the client the keep-alive connection ends here.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):  # noqa: A002 — http.server API
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)


def _error_body(code: str, message: str) -> dict:
    # One envelope shape, owned by envelopes.py — transports never
    # hand-roll it.
    return ErrorResponse(code=code, message=message).to_dict()


class _PooledHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer on a *bounded* worker pool.

    The stock class spawns one unbounded thread per connection; with
    keep-alive each connection pins its thread for its whole lifetime,
    so a connection flood becomes a thread flood.  Here connections are
    handed to a fixed :class:`ThreadPoolExecutor` and the overflow waits
    in the executor's queue (plus the listen backlog).
    """

    daemon_threads = True
    request_queue_size = 128

    def __init__(self, server_address, handler_class, threads: int):
        super().__init__(server_address, handler_class)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, int(threads)),
            thread_name_prefix="repro-serve",
        )

    def process_request(self, request, client_address):
        self._pool.submit(
            self.process_request_thread, request, client_address
        )

    def server_close(self):
        super().server_close()
        self._pool.shutdown(wait=False)


def make_server(
    service: "EngineService | None" = None,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    threads: int = DEFAULT_THREADS,
) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server fronting one service.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address`` (tests and the bench harness do).
    ``threads`` bounds the handler pool.
    """
    server = _PooledHTTPServer((host, port), ApiRequestHandler, threads)
    server.service = service if service is not None else EngineService()
    server.verbose = verbose
    return server


def serve(
    service: "EngineService | None" = None,
    host: str = "127.0.0.1",
    port: int = 8000,
    verbose: bool = False,
    ready=None,
    threads: int = DEFAULT_THREADS,
) -> None:
    """Run the blocking serve loop (the ``repro serve`` subcommand).

    ``ready``, when given, is called with the bound ``(host, port)`` just
    before the loop starts — how tests and the CLI print the address
    without racing the bind.
    """
    server = make_server(
        service,
        host=host,
        port=port,
        verbose=verbose,
        threads=threads,
    )
    try:
        if ready is not None:
            ready(server.server_address)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
