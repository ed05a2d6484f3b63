"""``repro serve`` — JSON-over-HTTP transport for :class:`EngineService`.

Stdlib only: POST a request envelope to ``/v1`` (or to ``/v1/<type>``
with the ``type`` field implied by the path) and get the matching
response envelope back.  Batch-friendly by construction —
``submit_batch`` carries a whole arrival burst per round trip and rides
the engine's vectorized ``submit_many`` path.  ``GET /v1/health``
answers a version probe.

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

**Request cycle.**  :class:`ApiRequestHandler` runs its own HTTP/1.1
cycle in place of the stdlib's per-request machinery.  The request line
and headers are read off the socket into a plain dict (lower-cased
names; a repeated header's values joined with ``", "``) — no
``http.client.parse_headers``, no ``email`` message.  The stdlib's
limits stay: a request line over 65,536 bytes answers 414, a header
line over it or more than 100 headers answer 431, only HTTP/1.0 and 1.1
are served, ``Expect: 100-continue`` is honoured and an idle connection
is dropped after 60 s.  Every answer — status line, headers, body —
leaves in one ``sendall`` built from a template made once per (status,
server version); the ``Date`` value is cached per second.
Header names, order and values are the stdlib's: ``Server``, ``Date``,
``Content-Type``, ``Content-Length``, then ``Connection: close`` when
the server closes after this answer.

**Framing** is decided once per request, from its headers
(:func:`_framing`): ``Content-Length`` must be ASCII digits only,
repeated values must agree, and any ``Transfer-Encoding`` is refused —
this server reads no chunked bodies, and beside it a ``Content-Length``
is not to be trusted (RFC 9112 §6.1).  A request whose framing is
unknown gets exactly one ``malformed_payload`` envelope with
``Connection: close``: its body cannot be told apart from the next
request on the wire.

**Keep-alive.**  HTTP/1.1 persistent connections are honored end to end:
error responses carry correct ``Content-Length`` and leave the
connection open whenever the request body was fully consumed (wrong
path, invalid JSON, typed service errors, a POST with no body).
``Connection: close`` is sent when the client asked for it (``close``
among its ``Connection`` tokens, or HTTP/1.0 without ``keep-alive``) or
when framing is unrecoverable — the cases above, or a
``Content-Length`` over the 64 MiB body limit.  ``GET /v1/health``
takes no service lock of any kind.

**Shutdown.**  ``server_close`` shuts the read side of every open
connection.  An idle keep-alive handler then reads EOF at once and its
pool thread ends, while a request in flight still writes its answer.
Without it an idle client held the pool thread, and with it interpreter
exit, until the 60 s timeout.
"""

from __future__ import annotations

import functools
import io
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from email.utils import formatdate
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
_LENGTH_RANGE = f"Content-Length must be in (0, {_MAX_BODY_BYTES}]"

#: The stdlib's limits: bytes per request or header line, header lines
#: per request.
_MAX_LINE = 65536
_MAX_HEADERS = 100

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

    # ------------------------------------------------------ request cycle
    def handle_one_request(self):
        """Read one request's head, dispatch it, answer it."""
        try:
            if not self._read_head():
                return
            method = getattr(self, "do_" + self.command, None)
            if method is None:
                self.send_error(501, f"Unsupported method ({self.command!r})")
                return
            method()
        except TimeoutError as exc:
            # A read or a write timed out: drop the connection.
            self.log_error("Request timed out: %r", exc)
            self.close_connection = True

    def _read_head(self) -> bool:
        """Parse the request line and headers off ``rfile``.

        ``False`` when there is nothing to dispatch: the peer closed, or
        an error answer has already been sent.
        """
        self.close_connection = True
        self.command = ""
        # Not "HTTP/0.9", the stdlib's default: an error answered before
        # the version is read still gets a status line.
        self.request_version = ""
        line = self.rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            self.requestline = ""
            self.send_error(414)
            return False
        self.requestline = line.decode("iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if len(words) != 3:
            if words:
                self.send_error(
                    400, f"Bad request syntax ({self.requestline!r})"
                )
            return False
        command, path, version = words
        if version not in ("HTTP/1.1", "HTTP/1.0"):
            if version.startswith("HTTP/"):
                self.send_error(505, f"Invalid HTTP version ({version[5:]})")
            else:
                self.send_error(400, f"Bad request version ({version!r})")
            return False
        self.command, self.request_version = command, version
        # As the stdlib does: '//' would read as a scheme-less absolute URI.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        headers = self.headers = {}
        count = 0
        while True:
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(
                    431,
                    "Line too long",
                    f"got more than {_MAX_LINE} bytes when reading header"
                    " line",
                )
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            count += 1
            if count > _MAX_HEADERS:
                self.send_error(
                    431,
                    "Too many headers",
                    f"got more than {_MAX_HEADERS} headers",
                )
                return False
            name, colon, value = line.decode("iso-8859-1").partition(":")
            if not colon or not name or name != name.strip():
                # No colon, a folded line, or whitespace before the
                # colon: RFC 9112 §5 lets a server refuse each with 400
                # (and requires it for the last).
                self.send_error(400, "Bad header line")
                return False
            name, value = name.lower(), value.strip(" \t\r\n")
            headers[name] = (
                headers[name] + ", " + value if name in headers else value
            )
        tokens = {
            token.strip()
            for token in headers.get("connection", "").lower().split(",")
        }
        self.close_connection = "close" in tokens or (
            version == "HTTP/1.0" and "keep-alive" not in tokens
        )
        self._body_length, self._framing_error = _framing(
            headers.get("content-length"), headers.get("transfer-encoding")
        )
        if (
            version == "HTTP/1.1"
            and headers.get("expect", "").lower() == "100-continue"
        ):
            return self.handle_expect_100()
        return True

    # ------------------------------------------------------------------ GET
    def do_GET(self):  # noqa: N802 — http.server API
        # Lock-free by design: liveness probes must answer even while
        # every worker thread is busy inside the service.
        self._drain_body()
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
        bytes), it is drained and the connection stays open.  Only a
        request whose framing is unknown (see :func:`_framing`) marks
        the connection for close.
        """
        path = self.path.rstrip("/")
        if path != API_PATH and not path.startswith(API_PATH + "/"):
            self._drain_body()
            return None, _error_body(
                "not_found", f"POST to {API_PATH} or {API_PATH}/<type>"
            )
        if self._framing_error is not None:
            self.close_connection = True
            return None, _error_body("malformed_payload", self._framing_error)
        if not self._body_length:
            # Nothing unread — the connection can survive this error.
            return None, _error_body("malformed_payload", _LENGTH_RANGE)
        self.raw_body = self.rfile.read(self._body_length)
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

    def _drain_body(self) -> None:
        """Discard a body nothing reads, or close when its framing is
        unknown — its bytes must not be read as the next request."""
        if self._framing_error is not None:
            self.close_connection = True
        elif self._body_length:
            self.rfile.read(self._body_length)

    # ------------------------------------------------------------- plumbing
    def _send_json(self, status: int, body: dict) -> None:
        self._send_bytes(status, json.dumps(body).encode())

    def _send_bytes(self, status: int, data: bytes) -> None:
        """Status line, headers and body in one write."""
        self.log_request(status)
        self.connection.sendall(
            b"".join(
                (
                    _status_and_server(status, self.version_string()),
                    b"Date: ",
                    _http_date(int(time.time())),
                    b"\r\nContent-Type: application/json\r\n",
                    b"Content-Length: %d\r\n" % len(data),
                    b"Connection: close\r\n" if self.close_connection else b"",
                    b"\r\n",
                    data,
                )
            )
        )

    def send_error(self, code, message=None, explain=None):
        # The stdlib's error page, gathered so it too leaves in one write.
        wfile, self.wfile = self.wfile, io.BytesIO()
        try:
            super().send_error(code, message, explain)
            answer = self.wfile.getvalue()
        finally:
            self.wfile = wfile
        self.connection.sendall(answer)

    def log_message(self, format, *args):  # noqa: A002 — http.server API
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)


def _framing(
    content_length: "str | None", transfer_encoding: "str | None"
) -> "tuple[int, str | None]":
    """``(body_length, None)``, or ``(0, why)`` when the framing is unknown.

    ``Content-Length`` must be ASCII digits: ``int`` alone would also
    take a sign, underscores and non-ASCII digits.  Repeated values
    (joined with ``", "`` by the header read) must agree.  Any
    ``Transfer-Encoding`` is refused.
    """
    if transfer_encoding is not None:
        return 0, "Transfer-Encoding is not supported; send Content-Length"
    if content_length is None:
        return 0, None
    values = {value.strip(" \t") for value in content_length.split(",")}
    if len(values) > 1:
        return 0, "conflicting Content-Length values"
    value = values.pop()
    if not (value.isascii() and value.isdigit()):
        return 0, "bad Content-Length"
    # int() refuses very long digit strings; 20 digits is plenty.
    if len(value) > 20 or int(value) > _MAX_BODY_BYTES:
        return 0, _LENGTH_RANGE
    return int(value), None


@functools.lru_cache(maxsize=32)
def _status_and_server(status: int, server: str) -> bytes:
    """The status line and ``Server`` header, built once per pair."""
    reason = BaseHTTPRequestHandler.responses.get(status, ("",))[0]
    return f"HTTP/1.1 {status} {reason}\r\nServer: {server}\r\n".encode(
        "latin-1"
    )


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> bytes:
    """The ``Date`` value, formatted once per second."""
    return formatdate(second, usegmt=True).encode("latin-1")


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
    in the executor's queue (plus the listen backlog).  Open connections
    are tracked so :meth:`server_close` can end the idle ones.
    """

    daemon_threads = True
    request_queue_size = 128

    def __init__(self, server_address, handler_class, threads: int):
        super().__init__(server_address, handler_class)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, int(threads)),
            thread_name_prefix="repro-serve",
        )
        self._connections: "set[socket.socket]" = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._connections.add(request)
        self._pool.submit(
            self.process_request_thread, request, client_address
        )

    def process_request_thread(self, request, client_address):
        # Untracked only once its handler is done: an interrupt that
        # lands in ``submit`` above makes the base class close the
        # request while the handler may already be reading from it.
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._connections_lock:
                self._connections.discard(request)

    def server_close(self):
        super().server_close()
        # An idle handler blocks in readline, and interpreter exit joins
        # pool threads: shutting the read side hands it EOF now, while a
        # request in flight can still write its answer.
        with self._connections_lock:
            for request in self._connections:
                try:
                    request.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the peer is already gone
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
