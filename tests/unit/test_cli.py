"""Unit tests for the experiment CLI."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, _parse_override, build_parser, main
from repro.workloads import default_scenario_registry

#: ``paper-batch`` at W=0.6 under max-case aggregation: the synthetic
#: batch the CLI cases below resize with further ``--set`` overrides.
BATCH = [
    "simulate", "paper-batch", "--set", "availability=0.6",
    "--set", "aggregation=max",
]


@pytest.fixture
def no_serving(monkeypatch):
    """Fail a test that would start serving instead of blocking in it."""

    def started(*_args, **_kwargs):
        raise AssertionError("serve started")

    monkeypatch.setattr("repro.api.serve", started)
    monkeypatch.setattr("repro.cluster.serve_cluster", started)


def simulate_report(argv):
    """``repro simulate ... --json``'s report, asserting a clean exit."""
    out = io.StringIO()
    assert main([*argv, "--json"], out=out) == 0
    return json.loads(out.getvalue())["report"]


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_with_quick(self):
        args = build_parser().parse_args(["run", "fig14", "--quick"])
        assert args.command == "run"
        assert args.experiment == "fig14"
        assert args.quick

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_unknown_subcommand_exits_non_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["frobnicate"])
        assert excinfo.value.code != 0

    def test_no_command_prints_usage_and_fails(self):
        out = io.StringIO()
        assert main([], out=out) == 2
        assert "usage:" in out.getvalue()

    @pytest.mark.parametrize("command", ("engine", "stream"))
    def test_engine_and_stream_are_not_subcommands(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "paper-batch"])
        assert args.command == "simulate"
        assert args.scenario == "paper-batch"
        assert args.overrides == []
        assert args.seed is None
        assert not args.as_json
        assert not args.list_scenarios

    def test_simulate_set_flags_parse(self):
        args = build_parser().parse_args(
            ["simulate", "paper-batch", "--set", "solver=adpar-weighted",
             "--set", 'solver_options={"norm":"l1","weights":[2,1,1]}']
        )
        assert [_parse_override(item) for item in args.overrides] == [
            ("solver", "adpar-weighted"),
            ("solver_options", {"norm": "l1", "weights": [2, 1, 1]}),
        ]

    def test_steady_stream_defaults(self):
        spec = default_scenario_registry().get("steady-stream")
        assert spec.kind == "stream"
        assert spec.ensemble.n_strategies == 30
        assert spec.requests.m_requests == 1000
        assert spec.requests.k == 3
        assert spec.arrival.burst_size == 64
        assert spec.arrival.hold_bursts == 2
        assert spec.engine.availability == 0.9
        assert spec.engine.aggregation == "max"
        assert spec.engine.solver == "adpar-exact"

    def test_set_overrides_reach_the_engine_spec(self):
        args = build_parser().parse_args(
            ["simulate", "steady-stream", "--set", "planner=payoff-dp",
             "--set", "solver=adpar-weighted",
             "--set", 'solver_options={"norm":"l1","weights":[2,1,1]}']
        )
        overrides = dict(_parse_override(item) for item in args.overrides)
        engine = default_scenario_registry().create(
            "steady-stream", **overrides
        ).engine
        assert engine.planner == "payoff-dp"
        assert engine.solver == "adpar-weighted"
        assert engine.solver_options == {"norm": "l1", "weights": [2, 1, 1]}

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8000
        assert args.planner == "batch-greedy"
        assert args.solver == "adpar-exact"
        assert args.availability == 0.6

    def test_serve_unknown_solver_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--solver", "oracle"])

    def test_serve_has_no_coalesce_switch(self, no_serving, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--no-coalesce"], out=io.StringIO())
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --no-coalesce" in err


class TestEngineSpecFromArgs:
    """The one flag → EngineSpec mapping all traffic subcommands share."""

    def test_serve_backend_flags_map_to_spec(self):
        from repro.cli import engine_spec_from_args

        args = build_parser().parse_args(
            ["serve", "--planner", "payoff-dp", "--solver", "adpar-weighted",
             "--norm", "l1", "--weights", "2", "1", "1",
             "--availability", "0.7", "--objective", "payoff"]
        )
        spec = engine_spec_from_args(args)
        assert spec.planner == "payoff-dp"
        assert spec.solver == "adpar-weighted"
        assert spec.solver_options == {"norm": "l1", "weights": (2.0, 1.0, 1.0)}
        assert spec.availability == 0.7
        assert spec.objective == "payoff"
        assert spec.aggregation == "max"

    def test_serve_flags_map_to_default_spec(self):
        from repro.cli import engine_spec_from_args

        args = build_parser().parse_args(
            ["serve", "--availability", "0.9", "--workforce-mode", "strict"]
        )
        spec = engine_spec_from_args(args)
        assert spec.availability == 0.9
        assert spec.workforce_mode == "strict"


class TestMain:
    def test_list_prints_every_experiment(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        for name in EXPERIMENTS:
            assert name in text

    def test_run_example(self):
        out = io.StringIO()
        assert main(["run", "example"], out=out) == 0
        assert "Running example" in out.getvalue()

    def test_run_quick_fig15(self):
        out = io.StringIO()
        assert main(["run", "fig15", "--quick"], out=out) == 0
        assert "Throughput" in out.getvalue()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            pytest.param(["--threads", "0"], "--threads", id="threads"),
            pytest.param(
                ["--workers", "1", "--vnodes", "0"], "--vnodes", id="vnodes"
            ),
        ],
    )
    def test_serve_rejects_a_pool_below_one(self, argv, flag, no_serving, capsys):
        assert main(["serve", "--port", "0", *argv], out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert f"repro serve: error: {flag} must be >= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                ["paper-batch-small", "--set", "planner=quantum"], id="planner"
            ),
            pytest.param(
                ["paper-batch-small", "--set", "solver=oracle"], id="solver"
            ),
            pytest.param(
                ["paper-batch-small", "--set", "solver=adpar-weighted",
                 "--set", 'solver_options={"norm":"l3"}'],
                id="norm",
            ),
            pytest.param(
                ["steady-stream", "--set", "solver=oracle"], id="stream-solver"
            ),
            pytest.param(
                ["paper-batch-small", "--set", "availability=1.5"],
                id="batch-availability",
            ),
            pytest.param(
                ["paper-batch-small", "--set", "n_strategies=0"],
                id="batch-strategies",
            ),
            pytest.param(
                ["paper-batch-small", "--set", "m_requests=0"],
                id="batch-requests",
            ),
            pytest.param(["paper-batch-small", "--seed", "-1"], id="batch-seed"),
            pytest.param(
                ["paper-batch-small", "--set", "solver=adpar-weighted",
                 "--set", 'solver_options={"weights":[-1,1,1]}'],
                id="batch-negative-weight",
            ),
            pytest.param(
                ["paper-batch-small", "--set", "solver=adpar-weighted",
                 "--set", 'solver_options={"weights":[0,0,0]}'],
                id="batch-zero-weights",
            ),
            pytest.param(
                ["steady-stream", "--set", "availability=1.5"],
                id="stream-availability",
            ),
            pytest.param(
                ["steady-stream", "--set", "m_requests=0"], id="stream-arrivals"
            ),
            pytest.param(
                ["steady-stream", "--set", "burst_size=0"], id="stream-burst"
            ),
            pytest.param(
                ["steady-stream", "--set", "hold_bursts=0"], id="stream-hold"
            ),
            pytest.param(
                ["steady-stream", "--set", "n_strategies=0"],
                id="stream-strategies",
            ),
        ],
    )
    def test_simulate_invalid_override_fails_cleanly(self, argv, capsys):
        assert main(["simulate", *argv], out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert "repro simulate: error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            pytest.param(["low=2"], "low must be", id="low-above-one"),
            pytest.param(["low=NaN"], "low must be", id="low-nan"),
            pytest.param(["high=-Infinity"], "high must be", id="high-inf"),
            pytest.param(
                ["low=0.9", "high=0.1"], "low must be <= high",
                id="low-above-high",
            ),
            pytest.param(
                ["quality_offset=-1"], "quality_offset must be",
                id="offset-negative",
            ),
            pytest.param(
                ["solver_options=5"], "solver_options must be a mapping",
                id="solver-options",
            ),
            pytest.param(
                ["planner_options=[1]"], "planner_options must be a mapping",
                id="planner-options",
            ),
        ],
    )
    def test_simulate_bad_value_names_its_field(self, overrides, message, capsys):
        argv = ["simulate", "paper-batch-small"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv, out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("planner", ["batch-greedy", "payoff-dp"])
    def test_simulate_planner_end_to_end(self, planner):
        report = simulate_report(
            [*BATCH, "--set", f"planner={planner}", "--set", "n_strategies=40",
             "--set", "m_requests=12", "--set", "k=3"]
        )
        engine = report["scenario"]["engine"]
        assert engine["planner"] == planner
        assert engine["solver"] == "adpar-exact"
        assert report["arrivals"] == 12
        assert (
            report["satisfied"] + report["alternative"] + report["infeasible"]
            == report["arrivals"]
        )

    def test_simulate_stream_reports_counts(self):
        out = io.StringIO()
        code = main(
            ["simulate", "steady-stream", "--set", "n_strategies=25",
             "--set", "m_requests=120", "--set", "burst_size=16",
             "--set", "k=2"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "kind=stream |S|=25 arrivals=120" in text
        assert "admitted=" in text
        assert "throughput=" in text

    @pytest.mark.parametrize(
        "solver, solver_options",
        [
            pytest.param("onedim", None, id="onedim"),
            pytest.param(
                "adpar-weighted",
                {"norm": "linf", "weights": [2, 1, 1]},
                id="adpar-weighted",
            ),
        ],
    )
    def test_simulate_solver_end_to_end(self, solver, solver_options):
        options = (
            []
            if solver_options is None
            else ["--set", f"solver_options={json.dumps(solver_options)}"]
        )
        report = simulate_report(
            [*BATCH, "--set", f"solver={solver}", *options,
             "--set", "n_strategies=30", "--set", "m_requests=8",
             "--set", "k=2"]
        )
        engine = report["scenario"]["engine"]
        assert engine["solver"] == solver
        assert engine.get("solver_options") == solver_options
        assert (
            report["satisfied"] + report["alternative"] + report["infeasible"]
            == report["arrivals"]
            == 8
        )

    def test_registry_covers_all_paper_artifacts(self):
        # One entry per §5 artifact: tables 1-5 (example), fig 11-18, table 6.
        assert set(EXPERIMENTS) == {
            "example",
            "fig11",
            "table6",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18a",
            "fig18bc",
        }


#: Runs in a fresh interpreter: what the serving modules and the CLI
#: load, then, with scipy made unimportable, a replay (and whether it
#: loaded ``numpy.ma``) and two ``repro run``s, one of an experiment
#: that calls scipy.  Prints one JSON line for the test below to check.
LAYERING_PROBE = """
import contextlib, io, json, sys

def loaded(*packages):
    return sorted(
        name for name in sys.modules
        if any(name == p or name.startswith(p + ".") for p in packages)
    )

import repro.api, repro.cluster, repro.journal
serving = loaded("scipy", "repro.experiments", "repro.analysis")
import repro.cli
cli = loaded("scipy", "repro.experiments", "repro.analysis")
sys.modules["scipy"] = None  # any later `import scipy` raises ImportError
out = io.StringIO()
code = repro.cli.main(["replay", "tests/golden/recorded"], out=out)
numpy_ma = loaded("numpy.ma")
err = io.StringIO()
with contextlib.redirect_stderr(err):
    fig11 = repro.cli.main(["run", "fig11", "--quick"], out=io.StringIO())
example = repro.cli.main(["run", "example"], out=io.StringIO())
print(json.dumps({"serving": serving, "cli": cli, "code": code,
                  "replay": out.getvalue(), "numpy_ma": numpy_ma,
                  "fig11": fig11, "fig11_err": err.getvalue(),
                  "example": example}))
"""


class TestLayering:
    def test_serving_loads_neither_scipy_nor_the_experiments(self):
        root = Path(__file__).resolve().parents[2]
        proc = subprocess.run(
            [sys.executable, "-c", LAYERING_PROBE],
            cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stdout.splitlines()[-1])
        assert probe["serving"] == []
        assert probe["cli"] == []
        assert probe["code"] == 0
        assert "bitwise identical" in probe["replay"]
        # Grouping rows by k must not pull in numpy.ma (np.unique does).
        assert probe["numpy_ma"] == []
        assert probe["fig11"] == 2
        assert "'experiments' extra" in probe["fig11_err"]
        assert probe["example"] == 0
