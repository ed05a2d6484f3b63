"""`RouterService` — the consistent-hashing front door of the cluster.

One router process terminates client HTTP and proxies every envelope to
one of N ``repro serve`` worker processes (see
:mod:`repro.cluster.supervisor`).  Routing rules, in dispatch order:

* ``stats`` — fan out to every shard and answer the *sum*, plus a
  ``shards`` list (per-worker stats + supervisor snapshot) and a
  ``router`` counter block (forwarded / affinity hits / replicas /
  restarts / upstream failures).
* session-affine (``submit_batch`` with a ``session_id``,
  ``retry_deferred``, ``complete``, ``revoke``, ``close_session``) —
  the opening worker's slot is encoded into the opaque session id the
  client holds (``w<slot>.<upstream-id>``), so affinity needs no router
  state at all: strip the prefix, forward to that slot, re-wrap the id
  on the way back.  Session state is process-local by design and never
  replicated; without a journal a worker restart invalidates its
  sessions (clients see the worker's own ``unknown_session``).  With
  ``repro serve --workers N --journal DIR`` each slot keeps a durable
  decision journal, a restarted slot recovers its sessions from
  checkpoint + tail before serving, and the same affinity scheme lands
  follow-up traffic on the restored sessions.
* stateless (``plan`` / ``resolve`` / ``alternatives`` /
  session-opening ``submit_batch``) — shard by the ensemble content
  fingerprint on the consistent-hash ring, so one ensemble's engine
  cache and coalescer groups live on exactly one worker.
* ``simulate`` — shard by the canonical scenario JSON (same scenario →
  same worker → warm workload cache); the materialized ensemble's
  fingerprint is learned from the response and pinned to that slot so
  follow-up by-fingerprint traffic finds it.

**Replication.**  Ensembles are read-mostly: an inline upload is pushed
eagerly to every other worker (an empty ``plan`` — zero requests —
registers the ensemble as a side effect), so ``EnsembleRef``-by-
fingerprint resolves anywhere even if the ring ever moved a key.  The
router also keeps the inline bytes in a bounded LRU and *re-inlines* on
an ``unknown_ensemble`` answer — the self-heal path for a restarted
worker that lost its in-memory ensembles.

**Failure.**  Upstream transport failures (after the
:class:`~repro.api.client.ServiceClient` retry) answer the typed
``upstream_unavailable`` envelope with HTTP 503 — retryable by
contract — and nudge the supervisor to re-check that slot immediately.

The proxy hot path parses client JSON exactly once (the handler already
did, for routing) and forwards the *original raw bytes* to the same URL
path; response bytes pass through unparsed unless a session id must be
re-wrapped.  No JSON re-serialization tax on ``resolve``/``plan``.
"""

from __future__ import annotations

import contextlib
import json
import re
import threading
from http.client import HTTPException

from repro.api.client import ServiceClient
from repro.api.codec import decode
from repro.api.envelopes import ErrorResponse, StatsResponse
from repro.api.http import (
    API_PATH,
    DEFAULT_THREADS,
    HTTP_STATUS,
    ApiRequestHandler,
    _PooledHTTPServer,
    release_selector,
    shutdown_on_signals,
)
from repro.api.wire import API_VERSION, EnsembleRef
from repro.cluster.hashring import HashRing
from repro.cluster.supervisor import WorkerSupervisor
from repro.engine.cache import CacheStats
from repro.utils.lockdebug import maybe_guarded
from repro.utils.lru import LRU

#: Request types that must reach the worker holding the session.
SESSION_AFFINE_TYPES = frozenset(
    {"submit_batch", "retry_deferred", "complete", "revoke", "close_session"}
)

#: Stateless types whose shard key is the ensemble fingerprint.
STATELESS_TYPES = frozenset({"plan", "resolve", "alternatives"})

_SESSION_ID_RE = re.compile(r"^w(\d+)\.(.+)$")


def _wrap_session_id(slot: int, session_id: str) -> str:
    return f"w{slot}.{session_id}"


def _split_session_id(session_id: str) -> "tuple[int, str] | None":
    match = _SESSION_ID_RE.match(session_id)
    if match is None:
        return None
    return int(match.group(1)), match.group(2)


def _sum_blocks(shard_stats, field: str) -> "dict | None":
    """Element-wise sum of the numeric counters in each shard's ``field``
    block (the coalescer's or the journal's); ``None`` when no shard
    reported one."""
    total = None
    for stats in shard_stats:
        block = stats.get(field)
        if isinstance(block, dict):
            if total is None:
                total = {}
            for key, value in block.items():
                if isinstance(value, (int, float)):
                    total[key] = total.get(key, 0) + value
    return total


class RouterService:
    """Route request envelopes across the supervisor's worker shards."""

    def __init__(
        self,
        supervisor: WorkerSupervisor,
        vnodes: int = 64,
        max_ensembles: int = 128,
        max_placements: int = 1024,
    ):
        self.supervisor = supervisor
        self.ring = HashRing(supervisor.slots(), vnodes=vnodes)
        #: fingerprint → inline ensemble dict, for replication and the
        #: unknown_ensemble self-heal re-inline.
        self._ensembles = LRU(max(1, int(max_ensembles)))
        #: fingerprint → slot overrides for ensembles materialized
        #: server-side (simulate) — they exist only on one worker.
        self._placements = LRU(max(1, int(max_placements)))
        self._local = threading.local()
        #: Every upstream client a pool thread opened: pool threads
        #: outlive their requests, so :meth:`close` reaches them here.
        self._clients: "set[ServiceClient]" = set()
        self._clients_lock = maybe_guarded(
            threading.Lock(), "RouterService._clients_lock"
        )
        self._counters = {
            "forwarded": 0,
            "affinity_hits": 0,
            "replicas": 0,
            "upstream_failures": 0,
        }
        self._counters_lock = maybe_guarded(
            threading.Lock(), "RouterService._counters_lock"
        )
        self._inflight = 0
        self._inflight_cv = threading.Condition()

    # ------------------------------------------------------------- frontage
    def forward(
        self, payload, raw: bytes, path: str
    ) -> "tuple[int, bytes]":
        """Route one decoded envelope; returns ``(status, body_bytes)``.

        ``raw`` is the client's original body — forwarded verbatim on
        the pass-through paths.  Never raises: every failure becomes a
        typed error body, exactly like ``EngineService.handle_dict``.
        """
        with self._inflight_cv:
            self._inflight += 1
        try:
            request_type = (
                payload.get("type") if isinstance(payload, dict) else None
            )
            if not isinstance(request_type, str):
                # Unhashable tags must not reach the set lookups below;
                # the worker answers the typed unknown_type error.
                request_type = None
            if request_type == "stats":
                return self._forward_stats()
            if (
                request_type in SESSION_AFFINE_TYPES
                and isinstance(payload.get("session_id"), str)
            ):
                return self._forward_affine(payload, path)
            return self._forward_stateless(request_type, payload, raw, path)
        finally:
            with self._inflight_cv:
                self._inflight -= 1
                self._inflight_cv.notify_all()

    def handle_dict(self, payload: dict) -> dict:
        """Route one envelope dict → response dict (test convenience)."""
        _status, body = self.forward(
            payload, json.dumps(payload).encode(), API_PATH
        )
        return json.loads(body)

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait until no request is mid-flight; ``True`` when drained."""
        with self._inflight_cv:
            return self._inflight_cv.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )

    def close(self) -> None:
        """Close every upstream connection any thread opened.

        A shutdown call: make it once the server has stopped and
        :meth:`drain` has returned.
        """
        with self._clients_lock:
            clients, self._clients = self._clients, set()
        for client in clients:
            client.close()

    # ------------------------------------------------------------- affinity
    def _forward_affine(self, payload, path) -> "tuple[int, bytes]":
        split = _split_session_id(payload["session_id"])
        if split is None or split[0] not in self.ring:
            body = ErrorResponse(
                code="unknown_session",
                message=(
                    f"session id {payload['session_id']!r} was not issued "
                    "by this router"
                ),
            ).to_dict()
            return HTTP_STATUS["unknown_session"], json.dumps(body).encode()
        slot, upstream_id = split
        inner = dict(payload)
        inner["session_id"] = upstream_id
        answer = self._send(slot, json.dumps(inner).encode(), path)
        if answer is None:
            return self._unavailable(slot)
        status, body = answer
        if status == 200:
            body = self._rewrap_session(slot, body)
        self._bump("forwarded")
        self._bump("affinity_hits")
        return status, body

    # ------------------------------------------------------------ stateless
    def _forward_stateless(
        self, request_type, payload, raw, path
    ) -> "tuple[int, bytes]":
        slot, fingerprint, inline = self._route(request_type, payload)
        answer = self._send(slot, raw, path)
        if answer is None:
            return self._unavailable(slot)
        status, body = answer
        if status != 200 and fingerprint is not None and inline is None:
            # A worker that restarted lost its in-memory ensembles —
            # re-inline from the router's copy and retry the same slot.
            healed = self._heal_unknown_ensemble(
                slot, payload, path, fingerprint, body
            )
            if healed is not None:
                status, body = healed
        if status == 200 and inline is not None:
            if fingerprint not in self._ensembles:
                self._ensembles.put(fingerprint, inline)
                self._replicate(fingerprint, inline, exclude=slot)
        if status == 200 and request_type == "submit_batch":
            body = self._rewrap_session(slot, body)
        if status == 200 and request_type == "simulate":
            self._learn_placement(slot, body)
        self._bump("forwarded")
        return status, body

    def _route(self, request_type, payload):
        """→ ``(slot, fingerprint | None, inline_ensemble_dict | None)``."""
        if not isinstance(payload, dict):
            return self.ring.place(""), None, None
        if request_type == "simulate":
            key = json.dumps(
                {
                    k: payload.get(k)
                    for k in ("name", "scenario", "overrides")
                },
                sort_keys=True,
            )
            return self.ring.place(key), None, None
        ensemble = payload.get("ensemble")
        fingerprint, inline = None, None
        if isinstance(ensemble, dict):
            fingerprint = ensemble.get("fingerprint")
            if "alpha" in ensemble or "beta" in ensemble:
                if fingerprint is None:
                    try:
                        fingerprint = decode(EnsembleRef, ensemble).fingerprint
                    except Exception:
                        fingerprint = None
                if fingerprint is not None:
                    inline = {**ensemble, "fingerprint": fingerprint}
        if fingerprint is None:
            return self.ring.place(""), None, None
        pinned = self._placements.get(fingerprint)
        if pinned is not None and pinned in self.ring:
            return pinned, fingerprint, inline
        return self.ring.place(fingerprint), fingerprint, inline

    # ---------------------------------------------------------- replication
    def _replicate(self, fingerprint, inline, exclude) -> None:
        envelope = json.dumps(
            {
                "api_version": API_VERSION,
                "type": "plan",
                "ensemble": inline,
                "requests": [],
            }
        ).encode()
        for slot in self.ring.nodes():
            if slot == exclude:
                continue
            answer = self._send(slot, envelope, API_PATH)
            if answer is not None and answer[0] == 200:
                self._bump("replicas")

    def _heal_unknown_ensemble(
        self, slot, payload, path, fingerprint, body
    ) -> "tuple[int, bytes] | None":
        try:
            code = json.loads(body).get("code")
        except (ValueError, AttributeError):
            return None
        if code != "unknown_ensemble":
            return None
        inline = self._ensembles.get(fingerprint)
        if inline is None:
            return None
        healed = dict(payload)
        healed["ensemble"] = inline
        answer = self._send(slot, json.dumps(healed).encode(), path)
        if answer is None:
            return None
        if answer[0] == 200:
            self._bump("replicas")
        return answer

    def _learn_placement(self, slot, body: bytes) -> None:
        try:
            fingerprint = json.loads(body)["report"]["fingerprint"]
        except (ValueError, KeyError, TypeError):
            return
        if isinstance(fingerprint, str):
            self._placements.put(fingerprint, slot)

    # ---------------------------------------------------------------- stats
    def _forward_stats(self) -> "tuple[int, bytes]":
        request = json.dumps(
            {"api_version": API_VERSION, "type": "stats"}
        ).encode()
        by_slot: "dict[int, dict]" = {}
        for slot in self.ring.nodes():
            answer = self._send(slot, request, API_PATH)
            if answer is not None and answer[0] == 200:
                try:
                    by_slot[slot] = json.loads(answer[1])
                except ValueError:
                    pass
        cache = {
            "workforce_hits": 0,
            "workforce_misses": 0,
            "adpar_hits": 0,
            "adpar_misses": 0,
        }
        totals = {
            key: 0
            for key in (
                "engines",
                "sessions",
                "ensembles",
                "workloads",
                "max_engines",
                "max_sessions",
                "max_ensembles",
            )
        }
        for stats in by_slot.values():
            for key in cache:
                cache[key] += int(stats.get("cache", {}).get(key, 0))
            for key in totals:
                totals[key] += int(stats.get(key, 0))
        shards = []
        for entry in self.supervisor.describe():
            stats = by_slot.get(entry["slot"])
            if stats is not None:
                entry = {**entry, "stats": stats}
            shards.append(entry)
        with self._counters_lock:
            router = dict(self._counters)
        router["workers"] = len(self.ring)
        router["restarts"] = self.supervisor.restart_count
        router["placements"] = len(self._placements)
        response = StatsResponse(
            cache=CacheStats(**cache),
            shards=shards,
            router=router,
            coalescer=_sum_blocks(by_slot.values(), "coalescer"),
            journal=_sum_blocks(by_slot.values(), "journal"),
            **totals,
        )
        self._bump("forwarded")
        return 200, json.dumps(response.to_dict()).encode()

    # ------------------------------------------------------------- plumbing
    def _send(
        self, slot: int, data: bytes, path: str
    ) -> "tuple[int, bytes] | None":
        """One upstream round trip; ``None`` after transport failure."""
        # The round trip waits on another process: let another pool
        # thread read the next request meanwhile.
        release_selector()
        try:
            client = self._client(slot)
            return client.request_raw(data, path)
        except (HTTPException, OSError, KeyError):
            # KeyError: the slot vanished from the supervisor mid-call.
            self.supervisor.notify_failure(slot)
            self._bump("upstream_failures")
            return None

    def _client(self, slot: int) -> ServiceClient:
        """This thread's keep-alive client for ``slot``.

        Clients are per (handler thread, slot) so no two requests share
        a connection; a restarted worker (new port) invalidates the
        cached client by address comparison.
        """
        clients = getattr(self._local, "clients", None)
        if clients is None:
            clients = self._local.clients = {}
        address = self.supervisor.address(slot)
        cached = clients.get(slot)
        if cached is not None and cached[0] == address:
            return cached[1]
        client = ServiceClient(address[0], address[1])
        with self._clients_lock:
            if cached is not None:
                self._clients.discard(cached[1])
            self._clients.add(client)
        if cached is not None:
            cached[1].close()
        clients[slot] = (address, client)
        return client

    def _unavailable(self, slot: int) -> "tuple[int, bytes]":
        body = ErrorResponse(
            code="upstream_unavailable",
            message=(
                f"worker shard {slot} is unavailable (being restarted); "
                "the request is safe to retry"
            ),
        ).to_dict()
        return (
            HTTP_STATUS["upstream_unavailable"],
            json.dumps(body).encode(),
        )

    def _rewrap_session(self, slot: int, body: bytes) -> bytes:
        try:
            decoded = json.loads(body)
        except ValueError:
            return body
        if not isinstance(decoded, dict) or "session_id" not in decoded:
            return body
        decoded["session_id"] = _wrap_session_id(slot, decoded["session_id"])
        return json.dumps(decoded).encode()

    def _bump(self, counter: str) -> None:
        with self._counters_lock:
            self._counters[counter] += 1


class RouterRequestHandler(ApiRequestHandler):
    """The front-door handler: decode once, proxy raw bytes."""

    server_version = f"repro-router/{API_VERSION}"

    def do_POST(self):  # noqa: N802 — http.server API
        payload, error = self._read_payload()
        if error is not None:
            self._send_json(HTTP_STATUS.get(error.get("code"), 400), error)
            return
        status, body = self.server.service.forward(
            payload, self.raw_body, self.path
        )
        self._send_bytes(status, body)


def make_router_server(
    router: RouterService,
    host: str = "127.0.0.1",
    port: int = 0,
    threads: int = DEFAULT_THREADS,
    verbose: bool = False,
) -> _PooledHTTPServer:
    """Build (but do not start) the HTTP front door for one router."""
    server = _PooledHTTPServer((host, port), RouterRequestHandler, threads)
    server.service = router
    server.verbose = verbose
    return server


def serve_cluster(
    n_workers: int,
    host: str = "127.0.0.1",
    port: int = 8000,
    worker_args: "tuple[str, ...]" = (),
    threads: int = DEFAULT_THREADS,
    vnodes: int = 64,
    verbose: bool = False,
    ready=None,
    install_signal_handlers: bool = True,
    drain_timeout: float = 10.0,
    journal_dir: "str | None" = None,
) -> None:
    """Run the blocking cluster loop (``repro serve --workers N``).

    Spawns the workers, fronts them with a router server, and on
    SIGTERM/SIGINT (or ``server.shutdown()``) drains in-flight requests
    before terminating every worker — no orphan processes survive.
    ``ready`` is called with the router's bound ``(host, port)``.
    ``journal_dir`` gives every worker slot a durable decision journal
    (``worker-<slot>/`` under it) that restarts recover sessions from.
    """
    supervisor = WorkerSupervisor(
        n_workers, worker_args=worker_args, journal_dir=journal_dir
    )
    supervisor.start()
    try:
        router = RouterService(supervisor, vnodes=vnodes)
        server = make_router_server(
            router, host=host, port=port, threads=threads, verbose=verbose
        )
    except Exception:
        supervisor.stop()
        raise

    signals = (
        shutdown_on_signals(server)
        if install_signal_handlers
        else contextlib.nullcontext()
    )
    try:
        with signals:
            if ready is not None:
                ready(server.server_address)
            server.serve_forever()
    finally:
        router.drain(timeout=drain_timeout)
        supervisor.stop()
        server.server_close()
        server.join()
        router.close()
