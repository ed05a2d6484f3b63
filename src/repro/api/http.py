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

**Concurrency.**  Handler code calls straight into
:meth:`EngineService.handle_dict` — there is no transport-level lock.
The service is internally thread-safe (sharded engine/ensemble pools,
per-session locks, locked cache sections; see :mod:`repro.api.service`),
and concurrent stateless ``resolve``/``alternatives`` calls are merged
by the service's :class:`~repro.api.coalescer.RequestCoalescer` into one
vectorized pass per engine identity.  The server's pool threads
(``threads`` at most, started on demand) take turns at one selector
that holds the listening socket and every idle keep-alive connection.
The thread at the selector serves a ready request itself, so a request
that arrives meanwhile waits in the kernel and wakes no thread: clients
that take turns are served by one thread, which does not trade the
interpreter lock with another on every request.  It hands the selector
to another pool thread when a select finds several connections ready
(they then run concurrently, and the coalescer merges them), before the
cluster router waits on a worker (:func:`release_selector`), and when
its request has held the selector for :data:`_GRACE_S` — so a slow
request or a slow client holds only its own thread.  The handler
disables Nagle's algorithm — with keep-alive JSON ping-pong, the Nagle /
delayed-ACK interplay otherwise stalls every response by ~40 ms, which
was the dominant cost of the old serve path.

**Request cycle.**  :class:`ApiRequestHandler` runs its own HTTP/1.1
cycle in place of the stdlib's per-request machinery.  The request line
and headers are read off the socket into a plain dict (lower-cased
names; a repeated header's values joined with ``", "``) — no
``http.client.parse_headers``, no ``email`` message.  The stdlib's
limits stay: a request line over 65,536 bytes answers 414, a header
line over it or more than 100 headers answer 431, only HTTP/1.0 and 1.1
are served, ``Expect: 100-continue`` is honoured and a read that waits
60 s drops the connection.  Every answer — status line, headers, body —
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

**Shutdown.**  ``shutdown`` stops accepting connections and returns
even while a request is in progress: the thread that runs
``serve_forever`` only waits.  ``server_close`` ends every idle
connection and shuts the read side of the busy ones, so a request in
flight still writes its answer before its connection closes; ``join``
waits for that.  Idle connections expire in the selector after 60 s.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import io
import json
import os
import selectors
import signal
import socket
import threading
import time
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, HTTPServer

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
    # Seconds a read may wait, and an idle keep-alive connection may
    # sit in the selector, before the connection is dropped.
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


#: How long one request may keep the selector to itself.  After that an
#: idle pool thread takes the selector over, so a slow request or a slow
#: client holds only its own thread.
_GRACE_S = 0.010


class _PoolThread(threading.Thread):
    """A serving thread of one :class:`_PooledHTTPServer`."""

    def __init__(self, server: "_PooledHTTPServer", index: int):
        super().__init__(name=f"repro-serve_{index}", daemon=True)
        self.server = server
        #: Notified when the server has a job for this thread.
        self.wakeup = threading.Condition(server._lock)

    def run(self):
        self.server._work(self)


def release_selector() -> None:
    """Hand the selector to another pool thread before waiting on
    another process.

    A no-op unless the caller is a pool thread that holds the selector
    while it serves a request.
    """
    thread = threading.current_thread()
    if isinstance(thread, _PoolThread):
        thread.server._release(thread)


class _Selector:
    """The listening socket and the idle keep-alive connections.

    Only the pool thread at the selector uses it.  Idle connections are
    kept oldest first, so the first one is the next to expire.
    """

    def __init__(self, listener, wakeup_fd: int, timeout: float):
        self.selector = selectors.DefaultSelector()
        self.selector.register(wakeup_fd, selectors.EVENT_READ)
        self.listener = listener
        self.listening = False
        self.timeout = timeout
        self.idle: "dict[ApiRequestHandler, float]" = {}

    def listen(self, on: bool) -> None:
        if on != self.listening:
            if on:
                self.selector.register(self.listener, selectors.EVENT_READ)
            else:
                self.selector.unregister(self.listener)
            self.listening = on

    def add(self, handler: "ApiRequestHandler") -> None:
        self.selector.register(
            handler.connection, selectors.EVENT_READ, handler
        )
        self.idle[handler] = time.monotonic() + self.timeout

    def remove(self, handler: "ApiRequestHandler") -> None:
        self.selector.unregister(handler.connection)
        del self.idle[handler]

    def select(self):
        """Wait for readiness, at most until the oldest idle connection
        expires."""
        timeout = None
        for deadline in self.idle.values():
            timeout = max(0.0, deadline - time.monotonic())
            break
        return self.selector.select(timeout)

    def expired(self) -> "list[ApiRequestHandler]":
        """Remove and return the connections idle past the timeout."""
        now = time.monotonic()
        out = []
        for handler, deadline in self.idle.items():
            if deadline > now:
                break
            out.append(handler)
        for handler in out:
            self.remove(handler)
        return out


class _PooledHTTPServer(HTTPServer):
    """An HTTP server whose pool threads take turns at one selector
    (the module docstring's **Concurrency**).

    At most ``threads`` pool threads, started on demand, which bounds
    the requests in progress.  The leader is the thread at the
    selector; while it serves a request it *holds* the selector, and an
    idle thread stands by to take the selector over once the hold
    passes :data:`_GRACE_S`.  While any thread is free, a hold has a
    stand-by: queued connections go to other threads first, and a
    thread left with nothing to do watches a hold that nobody watches.
    """

    request_queue_size = 128

    def __init__(self, server_address, handler_class, threads: int):
        super().__init__(server_address, handler_class)
        self.socket.setblocking(False)
        self._max_threads = max(1, int(threads))
        # Written to, never through a socket, to end a select early.
        self._wakeup_r, self._wakeup_w = os.pipe()
        os.set_blocking(self._wakeup_r, False)
        os.set_blocking(self._wakeup_w, False)
        self._selector = _Selector(
            self.socket, self._wakeup_r, handler_class.timeout
        )
        self._shutdown_request = threading.Event()
        self._is_shut_down = threading.Event()
        self._lock = threading.Lock()
        #: Notified when the last wakeup write in flight is done.
        self._wakeup_idle = threading.Condition(self._lock)
        # Everything below is guarded by _lock.
        self._threads: "list[_PoolThread]" = []
        self._idle_threads: "list[_PoolThread]" = []
        #: The thread at the selector; ``None`` while the seat is free.
        self._leader: "_PoolThread | None" = None
        #: When the leader began serving its request; 0.0 while it selects.
        self._holding = 0.0
        self._holds = 0
        #: The idle thread watching the leader's hold, if any.
        self._standby: "_PoolThread | None" = None
        #: Ready connections for any free thread.
        self._queue: "collections.deque[ApiRequestHandler]" = (
            collections.deque()
        )
        #: Connections other threads served, to go back in the selector.
        self._returned: "list[ApiRequestHandler]" = []
        self._selecting = False
        self._wakeup_sent = False
        self._wakers = 0
        self._listen = False
        self._closed = False
        self._connections: "set[socket.socket]" = set()

    # ----------------------------------------------------------- lifecycle
    def serve_forever(self, poll_interval=0.5):
        """Accept connections until :meth:`shutdown`.

        The pool serves them; this thread only waits, so ``shutdown``
        returns while a request is in progress.  It wakes every
        ``poll_interval`` seconds all the same: a signal that lands just
        before a wait with no timeout would not run its handler until
        the wait ends.
        """
        self._is_shut_down.clear()
        try:
            with self._lock:
                self._listen = True
                wake = self._wakeup_needed()
                if not self._threads:
                    self._spawn()
            if wake:
                self._wake_selector()
            while not self._shutdown_request.wait(poll_interval):
                pass
        finally:
            self._shutdown_request.clear()
            self._is_shut_down.set()

    def shutdown(self):
        """Stop accepting connections and wait for :meth:`serve_forever`
        to return.  Open connections are served until
        :meth:`server_close`."""
        with self._lock:
            self._listen = False
            wake = self._wakeup_needed()
        if wake:
            self._wake_selector()
        self._shutdown_request.set()
        self._is_shut_down.wait()

    def server_close(self):
        """Close the listening socket and end every idle connection.

        A request in progress still gets its answer, and its connection
        closes after it; :meth:`join` waits for that.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._listen = False
            connections = list(self._connections)
            started = bool(self._threads)
            wake = self._wakeup_needed()
            for thread in self._idle_threads:
                thread.wakeup.notify()
            self._idle_threads.clear()
            if self._standby is not None:
                self._standby.wakeup.notify()
        super().server_close()
        # A request in progress blocked mid-read gets EOF now, and can
        # still write its answer.
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the peer is already gone
        if wake:
            self._wake_selector()
        with self._lock:
            self._wakeup_idle.wait_for(lambda: not self._wakers)
        os.close(self._wakeup_w)
        if not started:
            self._selector.selector.close()
            os.close(self._wakeup_r)

    def join(self) -> None:
        """After :meth:`server_close`: wait until every pool thread has
        ended, that is until the requests in progress are answered."""
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join()

    # ---------------------------------------------------------- pool roles
    def _work(self, me: _PoolThread) -> None:
        while True:
            job = self._next_job(me)
            if job is None:
                return
            if job is me:
                self._lead(me)
            else:
                self._give_back(job, self._serve(job))

    def _next_job(self, me: _PoolThread):
        """A ready connection to serve, ``me`` to take the selector, or
        ``None`` once the server is closed."""
        with self._lock:
            while True:
                if self._standby is me:
                    if self._stand_by(me):
                        return me
                elif self._queue:
                    return self._queue.popleft()
                # A closed server's idle connections are ended at the
                # selector, so its seat cannot wait for a held request.
                elif self._leader is None or (self._closed and self._holding):
                    self._leader, self._holding = me, 0.0
                    return me
                elif self._closed:
                    return None
                elif self._holding and self._standby is None:
                    self._standby = me  # no thread watches this hold yet
                else:
                    self._idle_threads.append(me)
                    me.wakeup.wait()

    def _stand_by(self, me: _PoolThread) -> bool:
        """Watch the leader's holds (lock held); ``True`` once ``me`` has
        taken the selector over from a hold past the grace period.
        Watching ends after a grace period with no request, or when
        :meth:`_rouse` needs ``me`` for a queued connection."""
        seen = None
        while (
            self._standby is me
            and self._leader is not None
            and not self._closed
        ):
            if self._holding:
                left = self._holding + _GRACE_S - time.monotonic()
                if left <= 0:
                    self._leader, self._holding = me, 0.0
                    break
            elif self._holds == seen:
                break
            else:
                left = _GRACE_S
            seen = self._holds
            me.wakeup.wait(left)
        if self._standby is me:
            self._standby = None
        return self._leader is me

    def _lead(self, me: _PoolThread) -> None:
        """Serve at the selector until another thread takes it over or
        the server closes."""
        selector = self._selector
        while True:
            with self._lock:
                returned, self._returned = self._returned, []
                closed, listen = self._closed, self._listen
                handler = (
                    self._queue.popleft()
                    if self._queue and not closed
                    else None
                )
                self._selecting = handler is None and not closed
                self._wakeup_sent = False
            if closed:
                for idle in returned + list(selector.idle):
                    self._close(idle)
                selector.selector.close()
                os.close(self._wakeup_r)
                return
            for returned_handler in returned:
                selector.add(returned_handler)
            selector.listen(listen)
            if handler is None:
                events = selector.select()
                with self._lock:
                    self._selecting = False
                ready = []
                for key, _mask in events:
                    if key.data is not None:
                        ready.append(key.data)
                    elif key.fileobj is self.socket:
                        self._accept()
                    else:
                        try:
                            os.read(self._wakeup_r, 512)
                        except BlockingIOError:
                            pass
                for ready_handler in ready:
                    selector.remove(ready_handler)
                for expired in selector.expired():
                    self._close(expired)
                if not ready:
                    continue
                handler = ready.pop()
                if ready:
                    with self._lock:
                        self._queue.extend(ready)
                        for _ in ready:
                            self._rouse()
            if not self._hold(me, handler):
                return

    def _hold(self, me: _PoolThread, handler) -> bool:
        """Serve ``handler`` from the selector's seat; ``False`` when
        another thread took the seat meanwhile."""
        with self._lock:
            self._holding = time.monotonic()
            self._holds += 1
            if self._standby is None:
                if self._idle_threads:
                    self._standby = self._idle_threads.pop()
                    self._standby.wakeup.notify()
                else:
                    self._standby = self._spawn()
        keep = self._serve(handler)
        with self._lock:
            seated = self._leader is me
            if seated:
                self._holding = 0.0
        if not seated:
            self._give_back(handler, keep)
            return False
        if keep:
            self._selector.add(handler)
        else:
            self._close(handler)
        return True

    def _release(self, me: _PoolThread) -> None:
        with self._lock:
            if self._leader is not me or not self._holding:
                return
            self._leader, self._holding = None, 0.0
            if self._standby is not None:
                self._standby.wakeup.notify()  # it takes the free seat
            else:
                self._rouse()

    def _rouse(self) -> None:
        """Find a thread for a queued connection or the free seat (lock
        held): an idle one, a new one, or — with the pool full — the
        standby, which then stops watching."""
        if self._idle_threads:
            self._idle_threads.pop().wakeup.notify()
        elif self._spawn() is None and self._standby is not None:
            self._standby.wakeup.notify()
            self._standby = None

    def _spawn(self) -> "_PoolThread | None":
        """Start a new pool thread (lock held), unless the pool is full."""
        if self._closed or len(self._threads) >= self._max_threads:
            return None
        thread = _PoolThread(self, len(self._threads))
        thread.start()
        self._threads.append(thread)
        return thread

    # -------------------------------------------------------- connections
    def _accept(self) -> None:
        try:
            request, client_address = self.socket.accept()
        except OSError:
            return  # the client gave up, or the socket was closed
        cls = self.RequestHandlerClass
        handler = cls.__new__(cls)
        handler.request, handler.client_address = request, client_address
        handler.server = self
        try:
            handler.setup()
        except OSError:
            self.shutdown_request(request)
            return
        with self._lock:
            self._connections.add(request)
        self._selector.add(handler)

    def _serve(self, handler) -> bool:
        """Answer the requests ready on one connection; ``True`` while
        it stays open.

        Bytes of a next request already read into ``rfile`` (pipelined,
        or read ahead with the previous body) would never wake the
        selector, so they are served here before the connection goes
        back.
        """
        connection = handler.connection
        try:
            while True:
                handler.handle_one_request()
                if handler.close_connection:
                    return False
                connection.settimeout(0.0)
                try:
                    if not handler.rfile.peek(1):
                        return True
                finally:
                    connection.settimeout(handler.timeout)
        except Exception:
            self.handle_error(handler.request, handler.client_address)
            return False

    def _give_back(self, handler, keep: bool) -> None:
        """Return a connection served off the seat to the selector, or
        close it."""
        wake = False
        if keep:
            with self._lock:
                keep = not self._closed
                if keep:
                    self._returned.append(handler)
                    wake = self._wakeup_needed()
        if not keep:
            self._close(handler)
        elif wake:
            self._wake_selector()

    def _close(self, handler) -> None:
        handler.finish()
        self.shutdown_request(handler.request)
        with self._lock:
            self._connections.discard(handler.request)

    # ------------------------------------------------------------- wakeups
    def _wakeup_needed(self) -> bool:
        """Whether the caller must end the leader's select (lock held);
        the caller then calls :meth:`_wake_selector` unlocked."""
        if not self._selecting or self._wakeup_sent:
            return False
        self._wakeup_sent = True
        self._wakers += 1
        return True

    def _wake_selector(self) -> None:
        try:
            os.write(self._wakeup_w, b"\0")
        except OSError:
            pass  # a full pipe wakes the select as well
        with self._lock:
            self._wakers -= 1
            if not self._wakers:
                self._wakeup_idle.notify_all()


def make_server(
    service: "EngineService | None" = None,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    threads: int = DEFAULT_THREADS,
) -> _PooledHTTPServer:
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
    without racing the bind.  On the main thread, SIGINT and SIGTERM
    stop the loop; it returns once the requests in progress are
    answered.
    """
    server = make_server(
        service,
        host=host,
        port=port,
        verbose=verbose,
        threads=threads,
    )
    try:
        with shutdown_on_signals(server):
            if ready is not None:
                ready(server.server_address)
            server.serve_forever()
    finally:
        server.server_close()
        server.join()


@contextlib.contextmanager
def shutdown_on_signals(server):
    """While the block runs on the main thread, SIGINT and SIGTERM call
    ``server.shutdown()``, so no ``KeyboardInterrupt`` lands inside
    serving code."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def on_signal(_signum, _frame):
        # shutdown() waits for serve_forever, which runs on this very
        # thread: hand it to another.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {
        signum: signal.signal(signum, on_signal)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
