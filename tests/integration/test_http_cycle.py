"""The serve request cycle on the wire: framing, limits, writes, shutdown.

Every test here talks to the server over a raw socket, so it sees the
exact bytes: how many answers came back, whether each is well framed,
and whether the connection stayed open or was closed after it.  An
``http.client`` connection would hide most of that.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import API_VERSION, EngineService, EngineSpec, make_server

BASE = f"/v{API_VERSION}"
STATS = json.dumps({"api_version": API_VERSION, "type": "stats"}).encode()
#: A stateless envelope whose answer depends on nothing but itself.
PLAN = json.dumps(
    {
        "ensemble": {
            "alpha": [[0.5, 0.25, 0.28], [0.75, 0.33, 0.28], [0.8, 0.5, 0.14]],
            "beta": [[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [0.3, 0.3, 0.3]],
        },
        "requests": [
            {
                "request_id": "d1",
                "params": {"quality": 0.4, "cost": 0.17, "latency": 0.28},
                "k": 2,
            }
        ],
    }
).encode()


def _start(service):
    server = make_server(service)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    return server, thread


def _stop(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def server():
    server, thread = _start(
        EngineService(default_spec=EngineSpec(availability=0.8))
    )
    try:
        yield server
    finally:
        _stop(server, thread)


class Peer:
    """A raw client socket reading answers off a buffered stream."""

    def __init__(self, address, timeout: float = 10.0):
        self.sock = socket.create_connection(address[:2], timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.stream = self.sock.makefile("rb")

    def send(self, *chunks: bytes) -> None:
        for i, chunk in enumerate(chunks):
            if i:
                time.sleep(0.001)  # let the server read a partial head
            self.sock.sendall(chunk)

    def answer(self):
        """``(status_line, [(name, value), ...], body)`` of one answer.

        Asserts it is well framed: CRLF-terminated head lines and exactly
        ``Content-Length`` body bytes.
        """
        status = self.stream.readline()
        assert status.endswith(b"\r\n"), f"no status line, got {status!r}"
        headers = []
        while True:
            line = self.stream.readline()
            assert line.endswith(b"\r\n"), f"unterminated header {line!r}"
            if line == b"\r\n":
                break
            name, colon, value = line.decode("latin-1").partition(":")
            assert colon, line
            headers.append((name, value.strip()))
        length = int(dict(headers)["Content-Length"])
        body = self.stream.read(length)
        assert len(body) == length
        return status.decode("latin-1").rstrip("\r\n"), headers, body

    def at_eof(self) -> bool:
        """``True`` when the server closed; raises if it keeps waiting."""
        return self.stream.read(1) == b""

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


@pytest.fixture()
def peer(server):
    peer = Peer(server.server_address)
    try:
        yield peer
    finally:
        peer.close()


def post(path: str, body: bytes, *headers: str) -> bytes:
    head = [f"POST {path} HTTP/1.1", "Host: test", *headers]
    if not any(h.lower().startswith("content-length") for h in headers):
        if not any(h.lower().startswith("transfer-encoding") for h in headers):
            head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def chunked(body: bytes) -> bytes:
    return b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)


def assert_one_closing_malformed_payload(peer) -> None:
    status, headers, body = peer.answer()
    assert status == "HTTP/1.1 400 Bad Request"
    assert headers[-1] == ("Connection", "close")
    assert json.loads(body)["code"] == "malformed_payload"
    assert peer.at_eof(), "bytes after the one answer"


# ------------------------------------------------------------------ framing
def test_chunked_body_answers_once_and_closes(peer):
    peer.send(post(BASE, chunked(STATS), "Transfer-Encoding: chunked"))
    assert_one_closing_malformed_payload(peer)


def test_disagreeing_content_lengths_answer_once_and_close(peer):
    peer.send(
        post(
            BASE, STATS, "Content-Length: 5", f"Content-Length: {len(STATS)}"
        )
    )
    assert_one_closing_malformed_payload(peer)


def test_content_length_beside_transfer_encoding_closes(peer):
    peer.send(
        post(
            BASE,
            STATS,
            f"Content-Length: {len(STATS)}",
            "Transfer-Encoding: identity",
        )
    )
    assert_one_closing_malformed_payload(peer)


def test_content_length_must_be_ascii_digits(peer):
    # int() reads "+3_5" as 35; the length header must not.
    assert len(STATS) >= 10
    tens, units = divmod(len(STATS), 10)
    peer.send(post(BASE, STATS, f"Content-Length: +{tens}_{units}"))
    assert_one_closing_malformed_payload(peer)


def test_repeated_content_lengths_that_agree_are_one_length(peer):
    for _ in range(2):
        peer.send(
            post(
                BASE,
                STATS,
                f"Content-Length: {len(STATS)}",
                f"content-length:  {len(STATS)} ",
            )
        )
        status, headers, body = peer.answer()
        assert status == "HTTP/1.1 200 OK"
        assert "Connection" not in dict(headers)
        assert json.loads(body)["type"] == "stats_result"


def test_a_body_nothing_reads_is_drained(peer):
    peer.send(
        b"GET /v1/health HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(STATS)
        + STATS
        + post("/elsewhere", STATS)
        + b"GET /v1/health HTTP/1.1\r\n\r\n"
    )
    statuses = [peer.answer()[0] for _ in range(3)]
    assert statuses == [
        "HTTP/1.1 200 OK",
        "HTTP/1.1 404 Not Found",
        "HTTP/1.1 200 OK",
    ]


# ------------------------------------------------------------------- limits
@pytest.mark.parametrize(
    "raw, status",
    [
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET /v1/health HTTP/1.1\r\nX: " + b"a" * 70_000 + b"\r\n\r\n", 431),
        (
            b"GET /v1/health HTTP/1.1\r\n"
            + b"".join(b"X-%d: y\r\n" % i for i in range(101))
            + b"\r\n",
            431,
        ),
        (b"GET /v1/health HTTP/2.0\r\n\r\n", 505),
        (b"GET /v1/health HTTP/1.2\r\n\r\n", 505),
        (b"GET /v1/health\r\n\r\n", 400),
        (b"GET /v1/health FTP/1.1\r\n\r\n", 400),
        (b"GET /v1/health HTTP/1.1\r\nHost : test\r\n\r\n", 400),
        (b"GET /v1/health HTTP/1.1\r\nHost: a\r\n folded\r\n\r\n", 400),
        (b"GET /v1/health HTTP/1.1\r\nno colon\r\n\r\n", 400),
        (b"PUT /v1 HTTP/1.1\r\n\r\n", 501),
    ],
    ids=[
        "long-request-line",
        "long-header-line",
        "101-headers",
        "http-2",
        "http-1.2",
        "no-version",
        "not-http",
        "space-before-colon",
        "folded-header",
        "no-colon",
        "unsupported-method",
    ],
)
def test_protocol_errors_answer_once_and_close(peer, raw, status):
    peer.send(raw)
    line, headers, _body = peer.answer()
    assert line.split()[1] == str(status)
    assert ("Connection", "close") in headers
    assert peer.at_eof()


def test_expect_100_continue_is_answered_before_the_body(peer):
    head, body = post(BASE, STATS, "Expect: 100-continue").split(b"\r\n\r\n")
    peer.send(head + b"\r\n\r\n")
    assert peer.stream.readline() == b"HTTP/1.1 100 Continue\r\n"
    assert peer.stream.readline() == b"\r\n"
    peer.send(body)
    status, _headers, answer = peer.answer()
    assert status == "HTTP/1.1 200 OK"
    assert json.loads(answer)["type"] == "stats_result"


# ------------------------------------------------------------- count pins
def test_one_socket_write_per_answer(server, monkeypatch):
    """Status line, headers and body leave in one write, error answers
    and the stdlib's error pages included."""
    writes = []
    for name in ("send", "sendall", "sendmsg"):
        original = getattr(socket.socket, name)

        def counted(sock, *args, _original=original, **kwargs):
            if threading.current_thread().name.startswith("repro-serve"):
                writes.append(args[0])
            return _original(sock, *args, **kwargs)

        monkeypatch.setattr(socket.socket, name, counted)
    keep_alive = [
        b"GET /v1/health HTTP/1.1\r\n\r\n",
        b"GET /elsewhere HTTP/1.1\r\n\r\n",
        post(f"{BASE}/plan", PLAN),
        post(BASE, b"this is not json"),
        post("/elsewhere", STATS),
        # A typed service error: an unknown session answers 404.
        post(f"{BASE}/retry_deferred", b'{"session_id": "x"}'),
    ]
    closing = [
        post(BASE, STATS, "Content-Length: nope"),
        post(BASE, chunked(STATS), "Transfer-Encoding: chunked"),
        b"GET /v1/health HTTP/2.0\r\n\r\n",
        b"GET /v1/health HTTP/1.1\r\nHost : test\r\n\r\n",
    ]
    answers = 0
    peer = Peer(server.server_address)
    try:
        for raw in keep_alive:
            peer.send(raw)
            peer.answer()
            answers += 1
    finally:
        peer.close()
    for raw in closing:
        peer = Peer(server.server_address)
        try:
            peer.send(raw)
            peer.answer()
            answers += 1
            assert peer.at_eof()
        finally:
            peer.close()
    assert len(writes) == answers, [w[:40] for w in writes]


def test_headers_are_read_without_the_email_parser(peer, monkeypatch):
    calls = []

    def refuse(*args, **kwargs):
        calls.append(threading.current_thread().name)
        raise AssertionError("http.client.parse_headers called while serving")

    monkeypatch.setattr(http.client, "parse_headers", refuse)
    peer.send(b"GET /v1/health HTTP/1.1\r\nHost: test\r\n\r\n")
    assert peer.answer()[0] == "HTTP/1.1 200 OK"
    peer.send(post(f"{BASE}/plan", PLAN, "Content-Type: application/json"))
    assert peer.answer()[0] == "HTTP/1.1 200 OK"
    assert calls == []


# -------------------------------------------------------------------- fuzz
TOKENS = ("close", "keep-alive", "TE")
OWS = st.sampled_from(["", " ", "  ", "\t", " \t "])


def _recase(draw, name: str) -> str:
    n = len(name)
    flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return "".join(c.swapcase() if f else c for c, f in zip(name, flips))


@st.composite
def variant(draw):
    """One request for a canonical answer, written in some legal way.

    Returns ``(raw_bytes, kind, closes)``; ``closes`` is whether the
    ``Connection`` rules end the connection after the answer.
    """
    kind = draw(st.sampled_from(["health", "plan"]))
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    fields = [("Host", "test")]
    if kind == "plan":
        fields.append(("Content-Length", str(len(PLAN))))
        if draw(st.booleans()):
            fields.append(("Content-Type", "application/json"))
    tokens = draw(st.lists(st.sampled_from(TOKENS), max_size=3))
    if tokens or draw(st.booleans()):
        value = ",".join(
            draw(OWS) + _recase(draw, token) + draw(OWS) for token in tokens
        )
        fields.append(("Connection", value))
    n_extra = draw(st.integers(0, 100 - len(fields)))
    fields += [(f"X-Pad-{i}", draw(st.text("abc xyz-=/", max_size=12)).strip())
               for i in range(n_extra)]
    fields = draw(st.permutations(fields))
    lines = [
        f"{_recase(draw, name)}:{draw(OWS)}{value}{draw(OWS)}"
        for name, value in fields
    ]
    target = f"GET {BASE}/health" if kind == "health" else f"POST {BASE}/plan"
    head = "\r\n".join([f"{target} {version}", *lines]) + "\r\n\r\n"
    raw = head.encode("latin-1") + (PLAN if kind == "plan" else b"")
    closes = "close" in tokens or (
        version == "HTTP/1.0" and "keep-alive" not in tokens
    )
    return raw, kind, closes


CANONICAL = {
    "health": b"GET /v1/health HTTP/1.1\r\n\r\n",
    "plan": post(f"{BASE}/plan", PLAN),
}


@pytest.fixture(scope="module")
def canonical(server):
    answers = {}
    peer = Peer(server.server_address)
    try:
        for kind, raw in CANONICAL.items():
            peer.send(raw)
            answers[kind] = peer.answer()
    finally:
        peer.close()
    return answers


def _same_answer(got, want, closes: bool) -> None:
    status, headers, body = got
    assert (status, body) == (want[0], want[2])
    expected = [(n, v) for n, v in want[1] if n != "Date"]
    if closes:
        expected.append(("Connection", "close"))
    assert [(n, v) for n, v in headers if n != "Date"] == expected
    assert [n for n, _v in headers][:2] == ["Server", "Date"]


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=variant(), data=st.data())
def test_any_legal_request_gets_one_canonical_answer(
    server, canonical, case, data
):
    raw, kind, closes = case
    pipelined = data.draw(st.booleans(), label="pipelined")
    if pipelined:
        chunks = [raw + raw]
    else:
        cuts = sorted(
            data.draw(
                st.sets(st.integers(1, len(raw) - 1), max_size=4), label="cuts"
            )
        )
        bounds = [0, *cuts, len(raw)]
        chunks = [raw[a:b] for a, b in zip(bounds, bounds[1:])]
    peer = Peer(server.server_address)
    try:
        peer.send(*chunks)
        _same_answer(peer.answer(), canonical[kind], closes)
        if closes:
            assert peer.at_eof()
            return
        if pipelined:
            _same_answer(peer.answer(), canonical[kind], closes)
        # Still open: the next canonical request is answered.
        peer.send(CANONICAL["health"])
        _same_answer(peer.answer(), canonical["health"], False)
    finally:
        peer.close()


# ---------------------------------------------------------------- shutdown
class _HeldService:
    """Holds each call until released, so a request stays in flight."""

    def __init__(self):
        self.entered, self.release = threading.Event(), threading.Event()

    def handle_dict(self, payload):
        self.entered.set()
        self.release.wait(10)
        return {"api_version": API_VERSION, "type": "stats_result"}


def test_server_close_ends_idle_connections_but_finishes_in_flight():
    service = _HeldService()
    server, thread = _start(service)
    idle = Peer(server.server_address)
    busy = Peer(server.server_address)
    try:
        idle.send(b"GET /v1/health HTTP/1.1\r\n\r\n")
        assert idle.answer()[0] == "HTTP/1.1 200 OK"
        busy.send(post(BASE, STATS))
        assert service.entered.wait(10)
        server.shutdown()
        started = time.monotonic()
        server.server_close()
        idle.sock.settimeout(1.0)
        assert idle.at_eof()
        assert time.monotonic() - started < 1.0
        service.release.set()
        status, _headers, body = busy.answer()
        assert status == "HTTP/1.1 200 OK"
        assert json.loads(body) == {
            "api_version": API_VERSION,
            "type": "stats_result",
        }
        assert busy.at_eof()
    finally:
        service.release.set()
        idle.close()
        busy.close()
        thread.join(timeout=5)


def test_serve_exits_promptly_on_sigint_with_an_idle_client():
    _serve_exits_promptly(signal.SIGINT)


def test_serve_exits_promptly_on_sigterm_with_an_idle_client():
    _serve_exits_promptly(signal.SIGTERM)


def _serve_exits_promptly(signum) -> None:
    """``repro serve`` with a keep-alive client connected exits 0 soon
    after ``signum``, however soon after an answer it lands."""
    from repro.cluster import parse_ready_line

    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    idle = None
    try:
        address = None
        while address is None:
            line = proc.stdout.readline()
            assert line, "serve exited before printing its address"
            address = parse_ready_line(line)
        idle = Peer(address)
        idle.send(b"GET /v1/health HTTP/1.1\r\n\r\n")
        assert idle.answer()[0] == "HTTP/1.1 200 OK"
        proc.send_signal(signum)
        assert proc.wait(timeout=5) == 0
    finally:
        if idle is not None:
            idle.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()
