"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro list                  # enumerate experiments
    python -m repro run fig14 --quick     # regenerate one table/figure
    python -m repro run all               # the full report
    python -m repro simulate --list              # enumerate scenario families
    python -m repro simulate paper-batch-small --set planner=payoff-dp --set objective=payoff
    python -m repro simulate paper-batch-small --set solver=adpar-weighted \
        --set 'solver_options={"norm":"l1","weights":[2,1,1]}'
    python -m repro simulate steady-stream --set m_requests=5000 --set burst_size=128
    python -m repro simulate flash-crowd --set m_requests=2000
    python -m repro serve --port 8000            # JSON-over-HTTP service
    python -m repro serve --journal /var/lib/repro/journal  # durable decisions
    python -m repro replay /var/lib/repro/journal --solver adpar-weighted --diff
    python -m repro lint                         # static lock-discipline checks

Both traffic subcommands route through the versioned service layer
(:class:`~repro.api.EngineService`): ``simulate`` runs one named
scenario family (a batch, a stream, an ADPaR request or a recorded
trace) with ``--set`` spec overrides through the same ``simulate``
envelope the HTTP API serves, and ``serve`` exposes every operation as
JSON over stdlib HTTP (see the README's Service API section for the
wire contract).  :func:`engine_spec_from_args` turns ``serve``'s
backend flags into the default :class:`~repro.api.EngineSpec`.

``serve --journal DIR`` adds a durable decision journal: every
service-level decision event is appended to ``DIR`` and a restarted
server recovers its sessions from checkpoint + tail before the ready
line prints.  ``replay TRACE`` reenacts such a journal against the
recorded specs — or, with explicit backend flags, against a *different*
engine configuration — and prints the structured decision diff.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from pathlib import Path
from typing import Callable

from repro.api import EngineService, EngineSpec, SimulateRequest
from repro.core.adpar_variants import NORMS
from repro.engine import default_registry, default_solver_registry


def _experiment(module: str, runner: str, **kwargs):
    """Call ``repro.experiments.<module>.<runner>(**kwargs)``.

    The runners (and scipy, which fig11, fig13 and table6 call) are
    imported only when ``run`` dispatches one, so ``repro serve`` and
    every other subcommand start without them.
    """
    return getattr(import_module(f"repro.experiments.{module}"), runner)(**kwargs)


#: name -> (description, factory(quick) -> ExperimentResult)
EXPERIMENTS: "dict[str, tuple[str, Callable]]" = {
    "example": (
        "Tables 1-5: the running example",
        lambda quick: _experiment("running_example", "run_running_example"),
    ),
    "fig11": (
        "Figure 11: worker availability per window",
        lambda quick: _experiment(
            "fig11_availability", "run_fig11", repetitions=3 if quick else 8
        ),
    ),
    "table6": (
        "Table 6: (alpha, beta) estimation",
        lambda quick: _experiment(
            "table6_model_fits", "run_table6", samples_per_level=3 if quick else 5
        ),
    ),
    "fig12": (
        "Figure 12: parameter linearity panels",
        lambda quick: _experiment(
            "fig12_linearity", "run_fig12", samples_per_level=2 if quick else 4
        ),
    ),
    "fig13": (
        "Figure 13: StratRec vs unguided deployments",
        lambda quick: _experiment(
            "fig13_effectiveness", "run_fig13", tasks_per_type=5 if quick else 10
        ),
    ),
    "fig14": (
        "Figure 14: % satisfied requests",
        lambda quick: _experiment(
            "fig14_satisfied", "run_fig14",
            repetitions=3 if quick else 10, quick=quick,
        ),
    ),
    "fig15": (
        "Figure 15: throughput objective",
        lambda quick: _experiment(
            "fig15_throughput", "run_fig15", repetitions=3 if quick else 10
        ),
    ),
    "fig16": (
        "Figure 16: pay-off objective + approximation factor",
        lambda quick: _experiment(
            "fig16_payoff", "run_fig16", repetitions=3 if quick else 10
        ),
    ),
    "fig17": (
        "Figure 17: ADPaR solution quality",
        lambda quick: _experiment(
            "fig17_adpar_quality", "run_fig17",
            repetitions=2 if quick else 5, quick=quick,
        ),
    ),
    "fig18a": (
        "Figure 18a: batch deployment scalability",
        lambda quick: _experiment("fig18_scalability", "run_fig18_batch"),
    ),
    "fig18bc": (
        "Figure 18b/c: ADPaR-Exact scalability",
        lambda quick: _experiment(
            "fig18_scalability", "run_fig18_adpar", quick=quick
        ),
    ),
}


def engine_spec_from_args(args) -> EngineSpec:
    """The :class:`~repro.api.EngineSpec` ``serve``'s backend flags declare.

    ``repro serve`` hands it to the service as the default spec for
    requests that omit one, and cluster workers inherit the same flags
    (:func:`_worker_args`).
    """
    solver_options = {"norm": args.norm}
    if args.weights is not None:
        solver_options["weights"] = tuple(args.weights)
    return EngineSpec(
        availability=args.availability,
        objective=args.objective,
        aggregation=args.aggregation,
        workforce_mode=args.workforce_mode,
        planner=args.planner,
        solver=args.solver,
        solver_options=solver_options,
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the StratRec paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    run.add_argument(
        "--quick",
        action="store_true",
        help="reduced repetitions/sizes for a fast pass",
    )
    simulate = sub.add_parser(
        "simulate",
        help="run a named workload scenario through the service simulator",
    )
    simulate.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="scenario family name (see --list)",
    )
    simulate.add_argument(
        "--list",
        action="store_true",
        dest="list_scenarios",
        help="enumerate the scenario catalog and exit",
    )
    simulate.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="KEY=VALUE",
        help=(
            "spec override (repeatable), e.g. --set n_strategies=500 "
            "--set availability=0.3; values parse as JSON, falling back "
            "to strings"
        ),
    )
    simulate.add_argument(
        "--seed", type=int, default=None, help="override the scenario seed"
    )
    simulate.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the raw simulate_result envelope instead of the summary",
    )
    serve = sub.add_parser(
        "serve",
        help="serve the engine as JSON over HTTP (the service API)",
    )
    serve.add_argument(
        "--planner",
        choices=default_registry().names(),
        default="batch-greedy",
        help="planner backend deciding which requests to satisfy",
    )
    serve.add_argument(
        "--solver",
        choices=default_solver_registry().names(),
        default="adpar-exact",
        help="default ADPaR backend for requests that omit a spec",
    )
    serve.add_argument(
        "--norm",
        choices=NORMS,
        default="l2",
        help="distance norm for --solver adpar-weighted",
    )
    serve.add_argument(
        "--weights",
        type=float,
        nargs=3,
        default=None,
        metavar=("WC", "WQ", "WL"),
        help=(
            "per-dimension weights for --solver adpar-weighted, in "
            "unified-space order (cost, quality', latency)"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000)
    serve.add_argument(
        "--availability",
        type=float,
        default=0.6,
        help="default expected workforce W for requests that omit a spec",
    )
    serve.add_argument(
        "--objective", choices=("throughput", "payoff"), default="throughput"
    )
    serve.add_argument("--aggregation", choices=("sum", "max"), default="max")
    serve.add_argument(
        "--workforce-mode", choices=("paper", "strict"), default="paper"
    )
    serve.add_argument(
        "--threads",
        type=int,
        default=16,
        help="handler thread-pool width (default: 16)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "run a sharded multi-process cluster: N engine worker "
            "processes behind a consistent-hashing router (default: 0, "
            "a single in-process service)"
        ),
    )
    serve.add_argument(
        "--vnodes",
        type=int,
        default=64,
        help="virtual nodes per worker on the hash ring (default: 64)",
    )
    serve.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help=(
            "append every decision event to a durable journal under DIR "
            "and recover sessions from it on startup; with --workers, "
            "each worker slot journals into its own DIR/worker-<slot>"
        ),
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log one line per HTTP request"
    )
    replay = sub.add_parser(
        "replay",
        help="reenact a recorded decision journal and diff the outcomes",
    )
    replay.add_argument(
        "trace",
        help="a --journal directory (or one journal-NNNNNN.jsonl segment)",
    )
    # Backend flags default to None on purpose: only flags the user
    # actually passes override each session's *recorded* spec, so a bare
    # `repro replay TRACE` is the same-spec determinism check.
    replay.add_argument(
        "--planner",
        choices=default_registry().names(),
        default=None,
        help="override the recorded planner backend",
    )
    replay.add_argument(
        "--solver",
        choices=default_solver_registry().names(),
        default=None,
        help="override the recorded ADPaR solver backend",
    )
    replay.add_argument(
        "--norm",
        choices=NORMS,
        default=None,
        help=(
            "distance norm for --solver adpar-weighted (replaces the "
            "recorded solver_options)"
        ),
    )
    replay.add_argument(
        "--weights",
        type=float,
        nargs=3,
        default=None,
        metavar=("WC", "WQ", "WL"),
        help=(
            "per-dimension weights for --solver adpar-weighted "
            "(replaces the recorded solver_options)"
        ),
    )
    replay.add_argument(
        "--availability",
        type=float,
        default=None,
        help="override the recorded expected workforce W",
    )
    replay.add_argument(
        "--diff",
        action="store_true",
        help="print one line per changed decision after the summary",
    )
    replay.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the full structured replay report as JSON",
    )
    lint = sub.add_parser(
        "lint",
        help="static lock-discipline analysis",
        description=(
            "Static lock-discipline analysis: lock-order inversions, "
            "blocking calls under a lock, unguarded attributes."
        ),
    )
    lint.add_argument(
        "--root",
        type=Path,
        default=None,
        help=(
            "repo root, which must hold src/repro "
            "(default: auto-detect from cwd)"
        ),
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable JSON report on stdout",
    )
    return parser


def _parse_override(item: str) -> tuple[str, object]:
    """One ``KEY=VALUE`` flag → a spec override; values parse as JSON."""
    import json

    key, sep, raw = item.partition("=")
    if not key or not sep:
        raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings (e.g. --set distribution=normal)
    return key, value


def run_simulate(args, out) -> int:
    """The ``simulate`` subcommand: one catalog scenario through the service.

    Exactly the ``simulate`` envelope ``repro serve`` exposes — the CLI
    builds a :class:`~repro.api.SimulateRequest` naming the family plus
    ``--set`` overrides and prints the structured report.
    """
    import json

    from repro.exceptions import ReproError
    from repro.workloads import default_scenario_registry

    registry = default_scenario_registry()
    if args.list_scenarios:
        width = max(len(name) for name in registry.names())
        for name in registry.names():
            spec = registry.get(name)
            print(
                f"{name.ljust(width)}  [{spec.kind}] {spec.description}",
                file=out,
            )
        return 0
    if args.scenario is None:
        print(
            "repro simulate: error: name a scenario or pass --list",
            file=sys.stderr,
        )
        return 2
    try:
        overrides = dict(_parse_override(item) for item in args.overrides)
        if args.seed is not None:
            overrides["seed"] = args.seed
        response = EngineService().handle(
            SimulateRequest(name=args.scenario, overrides=overrides or None)
        )
    except (ReproError, ValueError) as exc:
        # KeyError-derived errors (unknown scenario) str() to a quoted
        # repr; unwrap the original message.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"repro simulate: error: {message}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(response.to_dict(), indent=2), file=out)
    else:
        print(response.report.summary(), file=out)
    return 0


def run_serve(args, out) -> int:
    """The ``serve`` subcommand: the service API as JSON over HTTP.

    Builds one :class:`~repro.api.EngineService` whose default
    :class:`~repro.api.EngineSpec` comes from the backend flags
    (:func:`engine_spec_from_args`), then blocks in the stdlib HTTP
    serve loop until interrupted.  See the README's Service API
    section for the wire contract and a curl quickstart.
    """
    from repro.api import API_VERSION, serve
    from repro.core.params import TriParams
    from repro.core.strategy import StrategyEnsemble

    try:
        spec = engine_spec_from_args(args)
        # Exercise the spec through a real engine construction (throwaway
        # service) so a bad availability/weights config fails fast with
        # exit 2 instead of poisoning every spec-less request later.
        EngineService().engine_for(
            StrategyEnsemble.from_params([TriParams(0.5, 0.5, 0.5)]), spec
        )
        service = EngineService(default_spec=spec)
    except ValueError as exc:
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return 2
    for flag, value, least in (
        ("--workers", args.workers, 0),
        ("--threads", args.threads, 1),
        ("--vnodes", args.vnodes, 1),
    ):
        if value < least:
            print(
                f"repro serve: error: {flag} must be >= {least}",
                file=sys.stderr,
            )
            return 2
    journal = None
    if args.journal is not None and not args.workers:
        from repro.exceptions import ReproError
        from repro.journal import DecisionJournal

        try:
            journal = DecisionJournal(args.journal)
            # Recovery must precede attachment: replaying the tail back
            # into the service must not re-journal the recovered events.
            restored = service.recover_from_journal(journal)
            service.attach_journal(journal)
        except (ReproError, OSError) as exc:
            print(f"repro serve: error: {exc}", file=sys.stderr)
            return 2
        if restored:
            print(
                f"repro serve: restored {restored} session(s) from "
                f"journal {args.journal}",
                file=out,
            )

    def ready(address):
        host, port = address[0], address[1]
        mode = (
            f"cluster: {args.workers} workers, {args.vnodes} vnodes"
            if args.workers
            else f"threads={args.threads}"
        )
        # The address phrasing is load-bearing: the worker supervisor
        # (and the port-0 tests) parse it via cluster.ADDRESS_RE.
        print(
            f"repro serve: api v{API_VERSION} on http://{host}:{port}/v{API_VERSION} "
            f"(default spec: W={args.availability} planner={args.planner} "
            f"solver={args.solver}; {mode}); Ctrl-C to stop",
            file=out,
        )
        if hasattr(out, "flush"):
            out.flush()

    if args.workers:
        from repro.cluster import serve_cluster

        serve_cluster(
            args.workers,
            host=args.host,
            port=args.port,
            worker_args=_worker_args(args),
            threads=args.threads,
            vnodes=args.vnodes,
            verbose=args.verbose,
            ready=ready,
            journal_dir=args.journal,
        )
        return 0
    try:
        serve(
            service,
            host=args.host,
            port=args.port,
            verbose=args.verbose,
            ready=ready,
            threads=args.threads,
        )
    finally:
        if journal is not None:
            journal.close()
    return 0


def run_replay(args, out) -> int:
    """The ``replay`` subcommand: reenact a recorded decision journal.

    A bare ``repro replay TRACE`` re-drives every recorded session
    against its *recorded* spec — the determinism check (the summary
    says "bitwise identical" or names what drifted).  Explicit backend
    flags build a spec override applied to every session, turning the
    replay into a counterfactual: "what would this other configuration
    have decided for exactly this traffic?"
    """
    import json

    from repro.exceptions import ReproError
    from repro.journal import replay_trace

    overrides: "dict[str, object]" = {}
    if args.availability is not None:
        overrides["availability"] = args.availability
    if args.planner is not None:
        overrides["planner"] = args.planner
    if args.solver is not None:
        overrides["solver"] = args.solver
    solver_options: "dict[str, object]" = {}
    if args.norm is not None:
        solver_options["norm"] = args.norm
    if args.weights is not None:
        solver_options["weights"] = tuple(args.weights)
    if solver_options:
        overrides["solver_options"] = solver_options
    try:
        report = replay_trace(args.trace, overrides=overrides or None)
    except (ReproError, OSError, ValueError) as exc:
        print(f"repro replay: error: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2), file=out)
        return 0
    print(report.summary(), file=out)
    if args.diff and report.diffs:
        for diff in report.diffs:
            recorded = diff.recorded_status or "-"
            replayed = diff.replayed_status or "-"
            line = (
                f"  {diff.session_id} {diff.request_id} [{diff.source}] "
                f"{recorded} -> {replayed} "
                f"reserved {diff.recorded_reserved:.4f} -> "
                f"{diff.replayed_reserved:.4f}"
            )
            if (
                diff.recorded_distance is not None
                or diff.replayed_distance is not None
            ):
                line += (
                    f" distance {_fmt_distance(diff.recorded_distance)}"
                    f" -> {_fmt_distance(diff.replayed_distance)}"
                )
            print(line, file=out)
        if report.diffs_truncated:
            print(
                f"  ... diff list truncated at {len(report.diffs)} rows "
                "(use --json for counts)",
                file=out,
            )
    return 0


def _fmt_distance(value: "float | None") -> str:
    return "-" if value is None else f"{value:.4f}"


def _worker_args(args) -> "tuple[str, ...]":
    """The ``repro serve`` flags cluster workers inherit from the CLI.

    Workers get extra handler threads beyond the router's pool: every
    router connection pins a worker thread for its keep-alive lifetime,
    and the supervisor's health probes must never queue behind them.
    """
    worker_args = [
        "--availability", str(args.availability),
        "--objective", args.objective,
        "--aggregation", args.aggregation,
        "--workforce-mode", args.workforce_mode,
        "--planner", args.planner,
        "--solver", args.solver,
        "--norm", args.norm,
        "--threads", str(args.threads + 8),
    ]
    if args.weights is not None:
        worker_args += ["--weights", *(str(w) for w in args.weights)]
    return tuple(worker_args)


def main(argv: "list[str] | None" = None, out=None) -> int:
    """CLI entry point; returns a process exit code.

    No subcommand prints usage and exits non-zero; unknown subcommands
    exit non-zero via argparse (which also prints usage).
    """
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(out)
        return 2
    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, (description, _) in EXPERIMENTS.items():
            print(f"{name.ljust(width)}  {description}", file=out)
        return 0
    if args.command == "simulate":
        return run_simulate(args, out)
    if args.command == "serve":
        return run_serve(args, out)
    if args.command == "replay":
        return run_replay(args, out)
    if args.command == "lint":
        # Imported here so no other subcommand pays for the analyzer.
        from repro.analysis.runner import run_lint

        return run_lint(args, out)
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        _, factory = EXPERIMENTS[name]
        try:
            result = factory(args.quick)
        except ModuleNotFoundError as exc:
            if (exc.name or "").partition(".")[0] != "scipy":
                raise
            print(
                f"repro run: error: {name} needs scipy; install the "
                "'experiments' extra",
                file=sys.stderr,
            )
            return 2
        print(result.render(), file=out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
