"""The system under test, in its own process.

Started by ``run.py`` with ``PYTHONPATH=src``.  Builds one serving
stack from public APIs only, prints ``READY <host> <port>`` and then
serves until its standard input closes.  Modes:

* ``plain`` — ``make_server(EngineService())`` (coalescer attached);
* ``journal`` — the same with a ``DecisionJournal`` attached;
* ``cluster`` — a ``RouterService`` over a one-worker
  ``WorkerSupervisor``, fronted by ``make_router_server``.

Commands on standard input, one per line, each answered by one line:

* ``trace`` — wrap the layer entry points (``tracing.py``) from now on
  (sent before any traffic);
* ``mark`` — note the start of the timed window and the service's
  counters (cache, coalescer, journal) at that point (sent between
  warm-up and timed traffic, while no request is in flight);
* ``dump <path>`` — write the spans recorded so far plus the service's
  counters, now and at the mark, to ``<path>``;
* ``rss`` — peak resident set (VmHWM) of this process and its workers;
* ``quit`` (or end of input) — shut down, drain the journal, stop the
  workers and exit.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from dataclasses import asdict

from tracing import SpanRecorder, install


def _vm_hwm_kb(pid: "int | str" = "self") -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _build(mode: str, journal_dir: "str | None"):
    """→ ``(server, counters(), close())`` for one serving stack."""
    if mode == "cluster":
        from repro.cluster import (
            RouterService,
            WorkerSupervisor,
            make_router_server,
        )

        supervisor = WorkerSupervisor(1)
        supervisor.start()
        try:
            router = RouterService(supervisor)
            server = make_router_server(router)
        except Exception:
            supervisor.stop()
            raise

        def close():
            router.drain(timeout=10)
            supervisor.stop()

        def counters():
            return {"worker_pids": supervisor.worker_pids()}

        return server, counters, close

    from repro.api import EngineService, make_server

    service = EngineService()
    journal = None
    if mode == "journal":
        from repro.journal import DecisionJournal

        journal = service.attach_journal(DecisionJournal(journal_dir))
    server = make_server(service)

    def counters():
        return {
            "cache": asdict(service.cache.stats),
            "coalescer": service.coalescer.occupancy(),
            "journal": None if journal is None else journal.occupancy(),
            "worker_pids": [],
        }

    def close():
        if journal is not None:
            journal.close()

    return server, counters, close


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "journal", "cluster"))
    parser.add_argument("--journal-dir")
    args = parser.parse_args(argv)

    server, counters, close = _build(args.mode, args.journal_dir)
    # A short poll interval only shortens shutdown; requests never wait on it.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    print(f"READY {host} {port}", flush=True)

    recorder = SpanRecorder()
    at_mark = None
    try:
        for line in sys.stdin:
            command, _, rest = line.strip().partition(" ")
            if command == "trace":
                install(recorder, cluster=args.mode == "cluster")
                reply = "ok"
            elif command == "mark":
                recorder.mark()
                at_mark = counters()
                reply = "ok"
            elif command == "dump":
                recorder.dump(rest, {"counters": counters(), "counters_at_mark": at_mark})
                reply = "ok"
            elif command == "rss":
                pids = ["self", *counters()["worker_pids"]]
                reply = json.dumps({"peak_rss_kb": sum(map(_vm_hwm_kb, pids))})
            elif command == "quit":
                break
            else:
                reply = f"error unknown command {command!r}"
            print(reply, flush=True)
    finally:
        recorder.unpatch()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
