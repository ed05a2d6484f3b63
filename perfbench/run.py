"""StratRec serving benchmark: one closed-loop workload over HTTP.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload resolve-small --seed 1 --seconds 10 --trace 0

The system under test runs in its own process (``launcher.py``), built
from ``src/`` through public APIs only.  This process is the load
generator: ``CONNECTIONS`` threads, each with one keep-alive
``ServiceClient``, send ops in a closed loop (each waits for its answer
before sending the next), because StratRec's callers each wait for their
recommendation.  A run launches ``SETUP_LAUNCHES`` fresh servers, one
after another, and on each:

1. times process start to the answer to its first op, which uploads the
   ensemble inline (``setup_s`` is the mean over the launches);
2. sends ``WARMUP_S`` seconds of untimed warm-up traffic, then measures
   for an equal share of ``--seconds``, extended until the launches
   together hold at least ``MIN_OPS`` ops so that p99 has ten samples
   beyond it;
3. stops the server.

Then every served answer is checked against the direct engine (and, for
journaled sessions, each server's journal is replayed) on a pool of
``CONNECTIONS`` worker processes.

With ``--trace 1`` the run instead launches one untraced server and one
server whose layer entry points are wrapped (``tracing.py``), for half of
``--seconds`` each (and at least ``MIN_OPS`` ops), and reports per-layer
metrics plus ``trace_overhead_x`` (untraced over traced throughput); the
full per-layer report is written under ``.perfbench/``.  Per-layer
metrics cover the timed window only, like ``client.rtt_ms``, except
``engine.space_ms``: the relaxation space is built by the set-up op.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from http.client import HTTPException
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

CONNECTIONS = max(1, min(2, len(os.sched_getaffinity(0))))
#: On a shared host both a server process and a stretch of time can be
#: slow, and launch times are nearly independent draws (their spread is
#: about a quarter of their median).  So a run measures on several fresh
#: servers spread over its whole length, and ``setup_s`` is the mean of
#: their launches: the mean of five spread half as much from run to run
#: as the median of three did.
SETUP_LAUNCHES = 5
WARMUP_S = 0.5
MIN_OPS = 1000
MAX_WINDOW_S = 90.0
LAUNCH_TIMEOUT_S = 120.0

#: Span-derived per-layer metrics: name → (span, measure[, child]).  A
#: measure is ``"dur"`` (whole span), ``"self"`` (minus every direct child
#: span) or a tuple of child span names to subtract.  With ``child``, only
#: the spans that have such a child span count.
SPAN_METRICS = {
    "http.handle_ms": ("http.handle", "dur"),
    "http.self_ms": ("http.handle", ("service.handle", "router.forward")),
    "http.json_decode_ms": ("http.json_decode", "dur"),
    "http.json_encode_ms": ("http.json_encode", "dur"),
    "codec.parse_ms": ("codec.parse", "dur"),
    "codec.encode_ms": ("codec.encode", "dur"),
    "service.dispatch_ms": ("service.handle", "self"),
    "coalescer.wait_ms": ("coalescer.submit", "self"),
    "engine.plan_ms": ("engine.plan", "dur"),
    "engine.aggregate_ms": ("engine.aggregate", "dur"),
    "engine.adpar_ms": ("engine.adpar", "dur"),
    "engine.space_ms": ("engine.space", "dur"),
    "session.submit_ms": ("session.submit", "dur"),
    "session.retry_ms": ("session.retry", "dur"),
    "journal.append_ms": ("journal.append", "dur"),
    "journal.checkpoint_ms": ("journal.maybe_checkpoint", "dur", "journal.write_checkpoint"),
    "journal.encode_ms": ("journal.encode", "dur"),
    "journal.write_ms": ("journal.write", "dur"),
    "router.forward_ms": ("router.forward", "dur"),
    "router.upstream_ms": ("router.upstream", "dur"),
    "router.self_ms": ("router.forward", "self"),
}

#: Layer of each span, for self-time shares of ``http.handle``.  The
#: journal's write-behind thread runs outside any request, so its share
#: is its time over request-handling time rather than a part of it.
SHARE_LAYERS = {
    "http": ("http.handle",),
    "json": ("http.json_decode", "http.json_encode"),
    "codec": ("codec.parse", "codec.encode"),
    "service": ("service.handle", "service.engine_for"),
    "coalescer": ("coalescer.submit",),
    "engine": (
        "engine.resolve",
        "engine.plan",
        "engine.aggregate",
        "engine.adpar",
        "engine.space",
    ),
    "session": ("session.submit", "session.retry"),
    "journal": (
        "journal.append",
        "journal.maybe_checkpoint",
        "journal.write_checkpoint",
        "journal.encode",
        "journal.write",
    ),
    "router": ("router.forward",),
    "upstream": ("router.upstream",),
}


# ------------------------------------------------------------------ server
class Server:
    """One launcher process: the serving stack under test."""

    def __init__(self, mode: str, scratch: Path, trace: bool = False):
        scratch.mkdir(parents=True, exist_ok=True)
        self.journal_dir = scratch / "journal"
        cmd = [
            sys.executable,
            str(HERE / "launcher.py"),
            "--mode",
            mode,
            "--journal-dir",
            str(self.journal_dir),
        ]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT
        )
        watchdog = threading.Timer(LAUNCH_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            ready = self.proc.stdout.readline().split()
        finally:
            watchdog.cancel()
        if len(ready) != 3 or ready[0] != "READY":
            self.stop()
            raise RuntimeError(f"launcher did not start (mode {mode})")
        self.host, self.port = ready[1], int(ready[2])
        if trace:
            self.command("trace")

    def command(self, text: str) -> str:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().strip()
        if not reply or reply.startswith("error"):
            raise RuntimeError(f"launcher refused {text!r}: {reply!r}")
        return reply

    def stop(self) -> None:
        """Close the command pipe (the launcher shuts down) and reap it."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Window:
    """Records and timings of one measured stretch of traffic."""

    def __init__(self, records_by_conn, start: float, cpu_s: float):
        self.records_by_conn = records_by_conn
        self.records = [r for records in records_by_conn for r in records]
        self.start = start
        self.end = max((r.end for r in self.records), default=start)
        self.cpu_s = cpu_s

    @property
    def elapsed(self) -> float:
        return max(self.end - self.start, 1e-9)

    @property
    def throughput(self) -> float:
        return len(self.records) / self.elapsed


def drive(server: Server, clients, streams, seconds: float, min_ops: int) -> Window:
    """Closed loop: one thread per connection until time and ops suffice.

    Op encoding and answer decoding run outside the round-trip timer and
    are subtracted from the generator's CPU time.  The generator's own
    garbage collector is off meanwhile, so that its pauses (it holds every
    prepared envelope and record) never land inside a round trip.
    """
    from repro.api import ServiceClient
    from workloads import Record

    outs = [[] for _ in streams]
    excluded = [0.0] * len(streams)
    start = time.perf_counter()
    deadline, hard_stop = start + seconds, start + MAX_WINDOW_S

    def loop(i: int) -> None:
        client, stream, out = clients[i], streams[i], outs[i]
        spent = 0.0
        while True:
            now = time.perf_counter()
            if now >= hard_stop or (
                now >= deadline and sum(map(len, outs)) >= min_ops
            ):
                break
            c0 = time.thread_time()
            op = stream.next_op()
            spent += time.thread_time() - c0
            t0 = time.perf_counter()
            try:
                status, body = client.request_raw(op.data)
            except (HTTPException, OSError):
                status, body = 0, b""
                client.close()
                clients[i] = client = ServiceClient(server.host, server.port)
            record = Record(op, t0, time.perf_counter(), status, body)
            out.append(record)
            c0 = time.thread_time()
            stream.on_answer(record)
            spent += time.thread_time() - c0
        excluded[i] = spent

    gc.disable()
    try:
        cpu0 = time.process_time()
        threads = [threading.Thread(target=loop, args=(i,)) for i in range(len(streams))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cpu_s = time.process_time() - cpu0 - sum(excluded)
    finally:
        gc.enable()
    return Window(outs, start, cpu_s)


def _env() -> dict:
    """This environment with ``src/`` first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def serve_and_measure(workload, inputs, seed: int, seconds: float, scratch: Path, launches: int, trace: bool):
    """Launch ``launches`` servers in turn; measure ``seconds / launches``
    of traffic on each.

    Returns ``(setup_s per launch, [(window, info)] per launch)``; every
    server is stopped before the next starts.  Launch ``i`` uses the
    streams of connections ``i * CONNECTIONS`` onwards, so no two launches
    send the same requests.
    """
    from repro.api import ServiceClient
    from workloads import MAIN, WARM

    share = seconds / launches
    min_ops = math.ceil(MIN_OPS / launches)
    setups, measured = [], []
    for launch in range(launches):
        server = Server(workload.mode, scratch / f"launch{launch}", trace=trace)
        info = {"journal_dir": server.journal_dir}
        clients = []
        try:
            setups.append(_set_up(server, workload, inputs, seed, launch))
            clients = [ServiceClient(server.host, server.port) for _ in range(CONNECTIONS)]
            conns = range(launch * CONNECTIONS, (launch + 1) * CONNECTIONS)
            warm = [workload.stream(inputs, seed, c, WARM) for c in conns]
            warmup = drive(server, clients, warm, WARMUP_S, 0)
            main = [workload.stream(inputs, seed, c, MAIN) for c in conns]
            expected = max(warmup.throughput * share, min_ops)
            for stream in main:
                stream.prepare(int(expected / CONNECTIONS * 1.3) + 20)
            if trace:
                server.command("mark")
            window = drive(server, clients, main, share, min_ops)
            info["rss_kb"] = json.loads(server.command("rss"))["peak_rss_kb"]
            if trace:
                info["dump"] = scratch / f"spans{launch}.json"
                server.command(f"dump {info['dump']}")
        finally:
            for client in clients:
                client.close()
            server.stop()
        measured.append((window, info))
    return setups, measured


def _set_up(server: Server, workload, inputs, seed: int, launch: int) -> float:
    """Send a fresh server its first op; seconds from process start to
    the answer."""
    from repro.api import ServiceClient, SessionOpRequest

    setup = workload.setup_op(inputs, seed, launch)
    with ServiceClient(server.host, server.port) as client:
        status, body = client.request_raw(setup.data)
        elapsed = time.perf_counter() - server.started
        if status != 200:
            raise RuntimeError(f"set-up op answered HTTP {status}: {body[:200]!r}")
        if workload.kind == "session":
            session_id = json.loads(body)["session_id"]
            client.request(SessionOpRequest("close_session", session_id).to_dict())
    return elapsed


# ------------------------------------------------------------------ checks
def check(workload, inputs, windows_and_info) -> "tuple[list[list[list[bool]]], list[str]]":
    """Verdicts per record, per connection, per window; journal problems.

    The server is stopped by now, so the reference work runs on
    ``CONNECTIONS`` worker processes: one task per connection's records,
    plus one journal replay per journaled window (as costly as checking
    that window's records), the longest first.  The workers are forked
    from this process, so they start with the system already imported.
    """
    from workloads import journal_problem

    tasks = []
    for window, info in windows_and_info:
        if workload.mode == "journal":
            tasks.append((len(window.records), journal_problem, (str(info["journal_dir"]),)))
        for records in window.records_by_conn:
            tasks.append((len(records), workload.check, (inputs, records)))
    pool = ProcessPoolExecutor(CONNECTIONS, mp_context=multiprocessing.get_context("fork"))
    with pool:
        futures = {
            i: pool.submit(tasks[i][1], *tasks[i][2])
            for i in sorted(range(len(tasks)), key=lambda i: -tasks[i][0])
        }
        results = iter([futures[i].result() for i in range(len(tasks))])
    verdicts, problems = [], []
    for window, _info in windows_and_info:
        if workload.mode == "journal":
            problem = next(results)
            if problem:
                problems.append(problem)
        verdicts.append([next(results) for _ in window.records_by_conn])
    return verdicts, problems


def tally(verdicts) -> "tuple[int, int]":
    """``(attempted, failed)`` over verdicts per record, per connection,
    per window; ``error_frac`` is their ratio."""
    flat = [ok for window in verdicts for conn in window for ok in conn]
    return len(flat), len(flat) - sum(flat)


# ----------------------------------------------------------------- metrics
def end_to_end(workload, runs, verdicts, setups) -> "tuple[dict, float]":
    """The user-facing metrics of the untraced ``(window, info)`` runs of
    one benchmark run, and their p99 latency.

    Rates are ops over the windows' summed length.  Goodput counts ops
    answered correctly within the workload's latency limit; a failed op
    misses it whatever its round trip.  The p99 is printed but not a
    declared metric: on a shared two-CPU host its run-to-run spread (0.15
    to 0.46 of its median over ten runs) exceeds the largest bound a
    metric may have.
    """
    from stats import percentile

    records = [r for window, _info in runs for r in window.records]
    flat = [ok for window in verdicts for conn in window for ok in conn]  # same order
    good = sum(
        1 for r, ok in zip(records, flat) if ok and r.rtt_ms <= workload.latency_limit_ms
    )
    elapsed = sum(window.elapsed for window, _info in runs)
    rtts = [r.rtt_ms for r in records]
    return {
        "throughput_ops_s": (len(records) / elapsed, "ops/s"),
        "goodput_ops_s": (good / elapsed, "ops/s"),
        "latency_p50_ms": (statistics.median(rtts), "ms"),
        "setup_s": (statistics.mean(setups), "s"),
        "peak_rss_mb": (max(info["rss_kb"] for _w, info in runs) / 1024.0, "MB"),
    }, percentile(rtts, 99)


def per_layer(workload, untraced: Window, traced: Window, info: dict) -> "tuple[dict, list, list]":
    """Per-layer metrics from the traced server's spans and counters.

    Returns ``(metrics, absent, tail_as_max)``: layer metrics whose layer
    never ran on this workload, and spans whose p99 had too few samples
    (their ``.p99`` is the maximum instead).
    """
    from stats import tail
    from tracing import analyse, load_dump

    threads, extra = load_dump(info["dump"])
    spans = analyse(threads, since=extra["mark"])
    # The set-up op builds the relaxation space, before the window.
    spans["engine.space"] = analyse(threads).get("engine.space", [])
    before = extra.get("counters_at_mark") or {}
    counters = {  # counts over the timed window
        group: now and {k: v - (before.get(group) or {}).get(k, 0) for k, v in now.items()}
        for group, now in extra["counters"].items()
        if group != "worker_pids"
    }
    metrics: dict = {}
    absent, tail_as_max = [], []

    def timing(name: str, values_ms) -> None:
        if not values_ms:
            absent.append(name)
            p50 = p99 = 0.0
        else:
            p50 = statistics.median(values_ms)
            p99, supported = tail(values_ms)
            if not supported:
                tail_as_max.append(name)
        metrics[f"{name}.p50"] = (p50, "ms")
        metrics[f"{name}.p99"] = (p99, "ms")
        metrics[f"{name}.calls"] = (len(values_ms), "count")

    for name, (span, measure, *child) in SPAN_METRICS.items():
        rows = [row for row in spans.get(span, []) if all(c in row[2] for c in child)]
        if measure == "dur":
            values = [d for d, _s, _c in rows]
        elif measure == "self":
            values = [s for _d, s, _c in rows]
        else:
            values = [d - sum(c.get(child, 0) for child in measure) for d, _s, c in rows]
        timing(name, [v / 1e6 for v in values])
    timing("client.rtt_ms", [r.rtt_ms for r in traced.records])

    handle_ns = sum(d for d, _s, _c in spans.get("http.handle", [])) or 1
    for layer, names in SHARE_LAYERS.items():
        self_ns = sum(s for name in names for _d, s, _c in spans.get(name, []))
        metrics[f"share.{layer}"] = (self_ns / handle_ns, "frac")

    def scalar(name, value, unit) -> None:
        if value is None:
            absent.append(name)
            value = 0.0
        metrics[name] = (value, unit)

    def ratio(num, den):
        return num / den if den else None

    scalar(
        "http.response_bytes",
        statistics.median(len(r.body) for r in traced.records),
        "bytes",
    )
    handle_p50 = metrics["http.handle_ms.p50"][0]
    scalar("wire.gap_ms", metrics["client.rtt_ms.p50"][0] - handle_p50, "ms")
    coalescer = counters.get("coalescer")
    scalar(
        "coalescer.calls_per_batch",
        coalescer and ratio(coalescer["calls"], coalescer["batches"]),
        "count",
    )
    cache = counters.get("cache")
    for kind in ("workforce", "adpar"):
        hits, misses = (cache[f"{kind}_{c}"] for c in ("hits", "misses")) if cache else (0, 0)
        scalar(f"engine.{kind}_hit_rate", ratio(hits, hits + misses), "frac")
    decisions = [
        d["status"]
        for r in traced.records
        if r.op.kind == "submit" and r.status == 200
        for d in json.loads(r.body)["decisions"]
    ]
    scalar(
        "session.admit_frac",
        ratio(decisions.count("admitted"), len(decisions)) if decisions else None,
        "frac",
    )
    journal = counters.get("journal")
    scalar(
        "journal.bytes_per_event",
        journal and ratio(journal["bytes"], journal["events"] - journal["queued"]),
        "bytes",
    )
    scalar(
        "router.upstream_failures",
        extra["failures"].get("router.upstream", 0) if workload.mode == "cluster" else None,
        "count",
    )
    scalar("client.cpu_ms_per_op", untraced.cpu_s * 1e3 / max(len(untraced.records), 1), "ms")
    scalar("trace_overhead_x", untraced.throughput / traced.throughput, "x")
    return metrics, absent, tail_as_max


# -------------------------------------------------------------------- main
def run(workload, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    t0 = time.perf_counter()
    inputs = workload.build(seed)
    if trace:
        # The run's measured time is split between the two servers.
        _setups, untraced_runs = serve_and_measure(
            workload, inputs, seed, seconds / 2, scratch / "untraced", 1, False
        )
        _setups, traced_runs = serve_and_measure(
            workload, inputs, seed, seconds / 2, scratch / "traced", 1, True
        )
        runs = untraced_runs + traced_runs
    else:
        setups, runs = serve_and_measure(
            workload, inputs, seed, seconds, scratch, SETUP_LAUNCHES, False
        )
    t1 = time.perf_counter()
    verdicts, problems = check(workload, inputs, runs)
    t2 = time.perf_counter()
    attempted, failed = tally(verdicts)

    header = (
        f"perfbench {workload.name} seed={seed} trace={int(trace)}: "
        f"{CONNECTIONS} closed-loop connections"
    )
    lines = [header, f"  wall: serving {t1 - t0:.1f} s, checking {t2 - t1:.1f} s"]
    if trace:
        (untraced, _info), (traced, info) = runs
        metrics, absent, tail_as_max = per_layer(workload, untraced, traced, info)
        report = {
            "workload": workload.name,
            "seed": seed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "absent": absent,
            "p99_reported_as_max": tail_as_max,
        }
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{workload.name}.json").write_text(json.dumps(report, indent=1))
        lines.append(f"  absent (layer never ran): {', '.join(absent) or 'none'}")
        lines.append(f"  p99 reported as max (too few calls): {', '.join(tail_as_max) or 'none'}")
    else:
        metrics, p99 = end_to_end(workload, runs, verdicts, setups)
        windows = [window for window, _info in runs]
        ops = sum(len(w.records) for w in windows)
        lines.append(
            f"  {ops} ops (latency samples) in {sum(w.elapsed for w in windows):.2f} s "
            f"on {len(windows)} servers; set-up launches "
            f"{', '.join(f'{s:.3f}' for s in setups)} s"
        )
        lines.append(f"  latency_p99_ms = {p99:.6g} ms (printed only, see end_to_end)")
        lines.append(
            f"  load generator CPU {sum(w.cpu_s for w in windows) * 1e3 / max(ops, 1):.4f} "
            f"ms/op (encode and decode excluded)"
        )
    lines.append(f"  error_frac = {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    lines.extend(f"  problem: {p}" for p in problems)
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name} = {value:.6g} {unit}")
    print("\n".join(lines), flush=True)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed + len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="StratRec serving benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no StratRec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    scratch = OUT / f"run-{os.getpid()}"
    try:
        result = run(workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
