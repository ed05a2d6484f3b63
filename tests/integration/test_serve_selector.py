"""Who serves what: pool threads taking turns at one selector.

The thread at the selector serves a ready request itself, so clients
that take turns are all answered by one thread.  It hands the selector
to another pool thread when a request holds it past the grace period,
or before the router waits on a worker, so a held request never stops
another connection from being read.  Idle keep-alive connections wait
in the selector, not in a thread, and expire there.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import ThreadingHTTPServer

import pytest

from repro.api import API_VERSION, EngineService, EngineSpec, make_server
from repro.api import http

from test_http_cycle import BASE, PLAN, STATS, Peer, _stop, post

HEALTH = b"GET /v1/health HTTP/1.1\r\n\r\n"
STATS_RESULT = {"api_version": API_VERSION, "type": "stats_result"}
#: The grace period plus a request's own time, with room for a loaded
#: host: an answer this late was stuck behind another request.
PROMPT_S = 10 * http._GRACE_S


class _Recorder:
    """Answers every envelope at once, noting which thread served it."""

    def __init__(self):
        self.threads: "list[int]" = []

    def handle_dict(self, payload):
        self.threads.append(threading.get_ident())
        return STATS_RESULT


class _HoldsStats:
    """A real service, except that ``stats`` waits until released."""

    def __init__(self):
        self.inner = EngineService(default_spec=EngineSpec(availability=0.8))
        self.entered, self.release = threading.Event(), threading.Event()

    def handle_dict(self, payload):
        if payload.get("type") == "stats":
            self.entered.set()
            self.release.wait(10)
        return self.inner.handle_dict(payload)


class _Gates:
    """Holds each envelope until the gate named by its ``type`` opens;
    counts the envelopes that arrived."""

    def __init__(self, *names: str):
        self.gates = {name: threading.Event() for name in names}
        self.calls = 0
        self.cond = threading.Condition()

    def handle_dict(self, payload):
        with self.cond:
            self.calls += 1
            self.cond.notify_all()
        self.gates[payload["type"]].wait(10)
        return STATS_RESULT

    def wait_calls(self, n: int) -> bool:
        with self.cond:
            return self.cond.wait_for(lambda: self.calls >= n, timeout=10)

    def open(self) -> None:
        for gate in self.gates.values():
            gate.set()


@pytest.fixture()
def serving():
    """Start a server over a service; stop every one at teardown."""
    started = []

    def start(service, **kwargs):
        server = make_server(service, **kwargs)
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        started.append((server, thread))
        return server

    yield start
    for server, thread in started:
        _stop(server, thread)


def _timed_answer(peer, raw: bytes):
    started = time.monotonic()
    peer.send(raw)
    answer = peer.answer()
    return answer, time.monotonic() - started


def test_clients_that_take_turns_are_served_by_one_thread(serving):
    service = _Recorder()
    server = serving(service)
    first, second = Peer(server.server_address), Peer(server.server_address)
    try:
        for _ in range(20):
            for peer in (first, second):
                peer.send(post(BASE, STATS))
                assert peer.answer()[0] == "HTTP/1.1 200 OK"
    finally:
        first.close()
        second.close()
    assert len(service.threads) == 40
    assert len(set(service.threads)) == 1


def test_a_held_request_does_not_stop_other_connections(serving):
    service = _HoldsStats()
    server = serving(service)
    held = Peer(server.server_address)
    other = Peer(server.server_address)
    try:
        # Build the plan's engine first, so the timed plan is its own
        # time only.
        other.send(post(f"{BASE}/plan", PLAN))
        assert other.answer()[0] == "HTTP/1.1 200 OK"
        held.send(post(BASE, STATS))
        assert service.entered.wait(10)
        for raw in (HEALTH, post(f"{BASE}/plan", PLAN)):
            (status, _headers, _body), elapsed = _timed_answer(other, raw)
            assert status == "HTTP/1.1 200 OK"
            assert elapsed < PROMPT_S
        assert not service.release.is_set()
        service.release.set()
        status, _headers, body = held.answer()
        assert status == "HTTP/1.1 200 OK"
        assert json.loads(body)["type"] == "stats_result"
    finally:
        service.release.set()
        held.close()
        other.close()


def test_a_hold_stays_watched_when_one_select_finds_several_ready(
    serving, monkeypatch
):
    """The extra connections of a busy select go to other threads, not
    to the one watching the selector's hold, so a held request is
    still taken over after the grace period."""
    # A grace period long enough to make two requests ready while the
    # first one is served.
    monkeypatch.setattr(http, "_GRACE_S", 0.2)
    service = _Gates("first", "held")
    server = serving(service)
    first, a, b, probe = (Peer(server.server_address) for _ in range(4))
    try:
        # Every connection is accepted, and the thread that watches the
        # holds started; both held requests then arrive while the first
        # one is served, so they wait for the same select.
        for peer in (first, a, b, probe):
            peer.send(HEALTH)
            assert peer.answer()[0] == "HTTP/1.1 200 OK"
        first.send(post(f"{BASE}/first", b"{}"))
        assert service.wait_calls(1)
        a.send(post(f"{BASE}/held", b"{}"))
        b.send(post(f"{BASE}/held", b"{}"))
        service.gates["first"].set()
        assert first.answer()[0] == "HTTP/1.1 200 OK"
        assert service.wait_calls(3)
        (status, _headers, _body), elapsed = _timed_answer(probe, HEALTH)
        assert status == "HTTP/1.1 200 OK"
        assert elapsed < http._GRACE_S + PROMPT_S
        service.open()
        for peer in (a, b):
            assert peer.answer()[0] == "HTTP/1.1 200 OK"
    finally:
        service.open()
        for peer in (first, a, b, probe):
            peer.close()


def test_a_thread_that_frees_up_watches_a_hold_nobody_watched(serving):
    """With the pool full, a hold starts with no thread to watch it; the
    first thread to finish its request takes that watch over."""
    service = _Gates("a", "b")
    server = serving(service, threads=2)
    first, second, probe = (Peer(server.server_address) for _ in range(3))
    try:
        for peer in (first, second, probe):
            peer.send(HEALTH)
            assert peer.answer()[0] == "HTTP/1.1 200 OK"
        # One thread holds "a"; the other takes the selector over and
        # holds "b" with no free thread left to watch it.
        first.send(post(f"{BASE}/a", b"{}"))
        assert service.wait_calls(1)
        second.send(post(f"{BASE}/b", b"{}"))
        assert service.wait_calls(2)
        service.gates["a"].set()
        assert first.answer()[0] == "HTTP/1.1 200 OK"
        (status, _headers, _body), elapsed = _timed_answer(probe, HEALTH)
        assert status == "HTTP/1.1 200 OK"
        assert elapsed < http._GRACE_S + PROMPT_S
        service.open()
        assert second.answer()[0] == "HTTP/1.1 200 OK"
    finally:
        service.open()
        for peer in (first, second, probe):
            peer.close()


class _Echo:
    """Answers each envelope with its ``n``, after ``sleep`` seconds."""

    def __init__(self):
        self.lock = threading.Lock()
        self.served: "list[tuple[int, int]]" = []

    def handle_dict(self, payload):
        time.sleep(payload.get("sleep", 0))
        with self.lock:
            self.served.append((payload["n"], threading.get_ident()))
        return {**STATS_RESULT, "n": payload["n"]}


def test_every_request_is_answered_once_in_order_under_stress(serving):
    """More clients than pool threads and cores, a short switch interval,
    pipelined pairs and requests held past the grace period: every
    request is served once and answered on its own connection, in
    order."""
    service = _Echo()
    server = serving(service, threads=4)
    clients, rounds = 8, 100
    errors: list = []

    def client(index: int) -> None:
        peer = Peer(server.server_address)
        try:
            for i in range(rounds):
                n = index * 1000 + i
                slow = {"sleep": 2 * http._GRACE_S} if i % 20 == 7 else {}
                raw = [post(BASE, json.dumps({"n": n, **slow}).encode())]
                if i % 5 == 3:  # a pipelined pair
                    raw.append(post(BASE, json.dumps({"n": -n}).encode()))
                peer.sock.sendall(b"".join(raw))
                for expected in (n, -n)[: len(raw)]:
                    status, _headers, body = peer.answer()
                    assert status == "HTTP/1.1 200 OK"
                    assert json.loads(body)["n"] == expected
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)
        finally:
            peer.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    served = [n for n, _ident in service.served]
    pairs = sum(1 for i in range(rounds) if i % 5 == 3)
    assert len(served) == len(set(served)) == clients * (rounds + pairs)
    assert len({ident for _n, ident in service.served}) <= 4


def test_a_stalled_request_head_does_not_stop_other_clients(serving):
    server = serving(_Recorder())
    stalled = Peer(server.server_address)
    other = Peer(server.server_address)
    try:
        stalled.send(b"POST /v1 HTTP/1.1\r\nContent-Le")
        time.sleep(0.05)  # let a pool thread start reading it
        for _ in range(3):
            (status, _headers, _body), elapsed = _timed_answer(other, HEALTH)
            assert status == "HTTP/1.1 200 OK"
            assert elapsed < PROMPT_S
    finally:
        stalled.close()
        other.close()


def test_idle_connections_do_not_hold_pool_threads(serving):
    server = serving(_Recorder(), threads=2)
    idle = [Peer(server.server_address) for _ in range(4)]
    late = Peer(server.server_address)
    try:
        for peer in idle:
            peer.send(HEALTH)
            assert peer.answer()[0] == "HTTP/1.1 200 OK"
        (status, _headers, _body), elapsed = _timed_answer(late, HEALTH)
        assert status == "HTTP/1.1 200 OK"
        assert elapsed < PROMPT_S
    finally:
        for peer in (*idle, late):
            peer.close()


def test_idle_connections_expire_in_the_selector(serving, monkeypatch):
    monkeypatch.setattr(http.ApiRequestHandler, "timeout", 0.3)
    server = serving(_Recorder())
    used = Peer(server.server_address)
    silent = Peer(server.server_address)
    try:
        used.send(HEALTH)
        assert used.answer()[0] == "HTTP/1.1 200 OK"
        started = time.monotonic()
        assert used.at_eof()
        assert silent.at_eof()
        assert 0.2 < time.monotonic() - started < 5.0
    finally:
        used.close()
        silent.close()


class _OneWorker:
    """The supervisor surface a router reads, over one fixed worker."""

    restart_count = 0

    def __init__(self, address):
        self._address = address

    def slots(self):
        return (0,)

    def address(self, slot):
        return self._address

    def notify_failure(self, slot):
        pass

    def describe(self):
        return []


def test_the_router_gives_up_the_selector_while_it_waits(
    serving, monkeypatch
):
    """With the grace period out of reach, only the router's hand-off
    lets a second client's request be read while the first one waits
    on its worker."""
    from repro.cluster import RouterService, make_router_server

    monkeypatch.setattr(http, "_GRACE_S", 60.0)
    worker = _Gates("plan")
    # The worker stands for another process: a thread per connection,
    # outside the selector rules under test.
    worker_server = ThreadingHTTPServer(
        ("127.0.0.1", 0), http.ApiRequestHandler
    )
    worker_server.service, worker_server.verbose = worker, False
    worker_thread = threading.Thread(
        target=worker_server.serve_forever, daemon=True
    )
    worker_thread.start()
    router = RouterService(_OneWorker(worker_server.server_address[:2]))
    server = make_router_server(router, threads=4)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    first, second = Peer(server.server_address), Peer(server.server_address)
    try:
        first.send(post(f"{BASE}/plan", PLAN))
        assert worker.wait_calls(1)
        second.send(post(f"{BASE}/plan", PLAN))
        assert worker.wait_calls(2), "the second request was not forwarded"
        worker.open()
        for peer in (first, second):
            status, _headers, body = peer.answer()
            assert status == "HTTP/1.1 200 OK"
            assert json.loads(body) == STATS_RESULT
    finally:
        worker.open()
        first.close()
        second.close()
        _stop(server, thread)
        router.close()
        _stop(worker_server, worker_thread)
