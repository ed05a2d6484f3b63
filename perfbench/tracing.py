"""Outside-in spans around the system's layer entry points.

The launcher wraps public entry points of each layer (see
:func:`layer_targets`) with a recorder that appends one span per call to
a per-thread in-memory list: ``(name, start_ns, end_ns, parent)``, where
``parent`` indexes the enclosing span on the same thread (``-1`` at the
top).  Nothing is written while the load runs; :meth:`SpanRecorder.dump`
writes every span out when the benchmark asks for it, together with the
:meth:`SpanRecorder.mark` taken just before the timed window.

:func:`analyse` turns the dump back into per-span durations and self
times.  A span's self time is its duration minus the durations of its
direct child spans on the same thread (children on one thread run one
after another, so their sum is the part of the interval they cover).
"""

from __future__ import annotations

import json
import threading
import time


class SpanRecorder:
    """Per-thread span buffers plus per-name failure counts."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: "list[tuple[int, list]]" = []
        self.failures: "dict[str, int]" = {}
        self._patches: list = []
        self.mark_ns = 0

    def mark(self) -> None:
        """Note the start of the timed window; spans that start earlier
        (set-up, warm-up) are told apart when the dump is analysed."""
        self.mark_ns = time.perf_counter_ns()

    # ------------------------------------------------------------ recording
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            spans: list = []
            state = self._local.state = (spans, [])
            with self._lock:
                self._buffers.append((threading.get_ident(), spans))
        return state

    def span(self, name: str, fn):
        """``fn`` wrapped so every call records one ``name`` span."""
        recorder = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            spans, stack = recorder._state()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                with recorder._lock:
                    recorder.failures[name] = recorder.failures.get(name, 0) + 1
                raise
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------- patching
    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a function or static method) by its
        traced twin."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        if isinstance(original, staticmethod):
            traced = staticmethod(self.span(name, original.__func__))
        else:
            traced = self.span(name, original)
        setattr(owner, attr, traced)

    def patch_json(self, module) -> None:
        """Trace ``json.loads``/``json.dumps`` as seen from ``module``."""
        original = module.json
        self._patches.append((module, "json", original))
        setattr(module, "json", _TracedJson(self, original))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -------------------------------------------------------------- dumping
    def dump(self, path, extra: dict) -> None:
        """Write every finished span (and ``extra``) as one JSON file."""
        with self._lock:
            buffers = list(self._buffers)
            failures = dict(self.failures)
        names: "dict[str, int]" = {}
        threads = []
        for ident, spans in buffers:
            rows = []
            for span in list(spans):
                if span is None:
                    # Still open (a call in flight): keep indexes aligned.
                    rows.append([-1, 0, 0, -1])
                    continue
                name, start, end, parent = span
                rows.append([names.setdefault(name, len(names)), start, end, parent])
            threads.append({"thread": ident, "spans": rows})
        payload = {
            "names": sorted(names, key=names.get),
            "threads": threads,
            "failures": failures,
            "mark": self.mark_ns,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class _TracedJson:
    """Stands in for the ``json`` module inside one traced module."""

    def __init__(self, recorder: SpanRecorder, module):
        self._module = module
        self.JSONDecodeError = module.JSONDecodeError
        self.loads = recorder.span("http.json_decode", module.loads)
        self.dumps = recorder.span("http.json_encode", module.dumps)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _defining_class(cls, attr: str):
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no {attr!r}")


def install(recorder: SpanRecorder, cluster: bool) -> None:
    """Wrap every layer entry point this process runs."""
    for owner, attr, name in layer_targets(cluster):
        recorder.patch(owner, attr, name)
    from repro.api import http

    recorder.patch_json(http)


def layer_targets(cluster: bool) -> "list[tuple[object, str, str]]":
    """``(owner, attribute, span name)`` for each traced entry point.

    In a cluster the launcher process hosts only the router, so only the
    router-side layers are listed; the worker runs as plain
    ``repro serve``.
    """
    from repro.api import envelopes, http, service
    from repro.api.client import ServiceClient

    if cluster:
        from repro.cluster.router import RouterRequestHandler, RouterService

        return [
            (RouterRequestHandler, "do_POST", "http.handle"),
            (RouterService, "forward", "router.forward"),
            (ServiceClient, "request_raw", "router.upstream"),
        ]

    from repro.api.coalescer import RequestCoalescer
    from repro.engine import RecommendationEngine
    from repro.engine.cache import (
        CachingWorkforceComputer,
        EngineCache,
        IncrementalSpaceCache,
    )
    from repro.engine.session import EngineSession
    from repro.journal.journal import DecisionJournal

    targets = [
        (http.ApiRequestHandler, "do_POST", "http.handle"),
        (service.EngineService, "handle_dict", "service.handle"),
        (service.EngineService, "engine_for", "service.engine_for"),
        (service, "parse_request", "codec.parse"),
        (RequestCoalescer, "submit", "coalescer.submit"),
        (RecommendationEngine, "resolve_many", "engine.resolve"),
        (RecommendationEngine, "plan", "engine.plan"),
        (CachingWorkforceComputer, "aggregate_all", "engine.aggregate"),
        (EngineCache, "adpar_solve_batch", "engine.adpar"),
        (IncrementalSpaceCache, "space_at", "engine.space"),
        (EngineSession, "submit_many", "session.submit"),
        (EngineSession, "retry_deferred", "session.retry"),
        # The journal's request-side cost: stamping and enqueueing an
        # event, and the service's checkpoint step (session snapshots plus
        # the checkpoint's enqueue; most calls find no checkpoint due).
        (DecisionJournal, "append", "journal.append"),
        (service.EngineService, "_maybe_checkpoint", "journal.maybe_checkpoint"),
        (DecisionJournal, "write_checkpoint", "journal.write_checkpoint"),
        # Its write-behind thread: one encode per event, one write and
        # flush per gathered batch.
        (DecisionJournal, "_encode", "journal.encode"),
        (DecisionJournal, "_write_lines", "journal.write"),
    ]
    seen = set()
    for response in (
        envelopes.ResolveResponse,
        envelopes.AlternativesResponse,
        envelopes.SubmitBatchResponse,
        envelopes.RetryDeferredResponse,
        envelopes.SessionOpResponse,
        envelopes.ErrorResponse,
    ):
        owner = _defining_class(response, "to_dict")
        if owner not in seen:
            seen.add(owner)
            targets.append((owner, "to_dict", "codec.encode"))
    return targets


# ------------------------------------------------------------------ analysis
def analyse(threads, since: int = 0) -> "dict[str, list[tuple[int, int, dict]]]":
    """Spans by name as ``(duration_ns, self_ns, child_ns_by_name)``.

    ``threads`` is a list of span lists, each ``(name, start, end,
    parent)`` with ``parent`` indexing the same list (``-1`` for a top
    span).  Unfinished spans (``name is None``) are skipped, and so are
    spans that started before ``since``.
    """
    out: "dict[str, list]" = {}
    for spans in threads:
        children: "list[dict]" = [{} for _ in spans]
        for name, start, end, parent in spans:
            if name is None or parent < 0:
                continue
            by_name = children[parent]
            by_name[name] = by_name.get(name, 0) + (end - start)
        for (name, start, end, _parent), by_name in zip(spans, children):
            if name is None or start < since:
                continue
            duration = end - start
            out.setdefault(name, []).append(
                (duration, duration - sum(by_name.values()), by_name)
            )
    return out


def load_dump(path) -> "tuple[list, dict]":
    """Read a :meth:`SpanRecorder.dump` file → ``(threads, extra)``, the
    span lists :func:`analyse` takes and everything else in the dump."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    names = payload.pop("names")
    threads = [
        [
            (names[i] if i >= 0 else None, start, end, parent)
            for i, start, end, parent in thread["spans"]
        ]
        for thread in payload.pop("threads")
    ]
    return threads, payload
