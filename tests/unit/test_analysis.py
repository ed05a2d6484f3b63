"""Unit tests: the lock-discipline analysis behind ``repro lint``.

The lock pass must catch its seeded-bad fixture (exact rule ids and
locations), leave the known-good fixture clean, and — the live gate —
find nothing in this repository that no inline ``# lint:`` comment
accepts, with no accept left over.  The runtime lock-order asserter is
exercised both synthetically and against real service traffic,
corroborating the static lock graph.
"""

import ast
import io
import json
import threading
from pathlib import Path

import pytest

from repro.analysis import RULES, analyze_locks, run_analysis
from repro.analysis.diagnostics import SourceFile, apply_suppressions
from repro.analysis.runner import collect_sources
from repro.api import EngineService, EngineSpec, SubmitBatchRequest
from repro.cli import main as cli_main
from repro.journal import DecisionJournal
from repro.utils.lockdebug import (
    GLOBAL_ASSERTER,
    GuardedLock,
    LockOrderAsserter,
    LockOrderInversion,
    maybe_guarded,
)
from repro.utils.rng import spawn_rngs
from repro.workloads.generators import (
    generate_requests,
    generate_strategy_ensemble,
)

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def load_fixtures(*names) -> dict:
    sources = {}
    for name in names:
        path = FIXTURES / name
        text = path.read_text(encoding="utf-8")
        relpath = f"fixtures/{name}"
        sources[relpath] = SourceFile(
            path=path,
            relpath=relpath,
            lines=text.splitlines(),
            tree=ast.parse(text),
        )
    return sources


def line_of(name: str, marker: str) -> int:
    """1-based line of the first fixture line containing ``marker``."""
    lines = (FIXTURES / name).read_text(encoding="utf-8").splitlines()
    return next(i for i, text in enumerate(lines, 1) if marker in text)


class TestLockcheck:
    def test_inversion_is_detected_with_both_paths(self):
        diagnostics, graph = analyze_locks(load_fixtures("bad_locks.py"))
        inversions = [d for d in diagnostics if d.rule == "L001"]
        assert len(inversions) == 1
        (diag,) = inversions
        assert "Courier._lock" in diag.subject
        assert "Depot._gate" in diag.subject
        assert ("Courier._lock", "Depot._gate") in graph.edges
        assert ("Depot._gate", "Courier._lock") in graph.edges

    def test_blocking_call_under_lock_location(self):
        diagnostics, _ = analyze_locks(load_fixtures("bad_locks.py"))
        blocking = [d for d in diagnostics if d.rule == "L002"]
        assert len(blocking) == 1
        (diag,) = blocking
        assert diag.file == "fixtures/bad_locks.py"
        assert diag.line == line_of("bad_locks.py", "path.write_text")
        assert diag.subject == "Courier.flush->path.write_text"

    def test_unguarded_write_location_and_suppression(self):
        sources = load_fixtures("bad_locks.py")
        diagnostics, _ = analyze_locks(sources)
        unguarded = [d for d in diagnostics if d.rule == "L003"]
        # Both unguarded writes are found pre-suppression...
        assert {d.line for d in unguarded} == {
            line_of("bad_locks.py", "unguarded: also written"),
            line_of("bad_locks.py", "lint: unguarded-ok"),
        }
        assert all(d.subject.startswith("Courier.draining@") for d in unguarded)
        # ...and the `# lint: unguarded-ok` one is dropped by suppression.
        kept = apply_suppressions(diagnostics, sources)
        kept_unguarded = [d for d in kept if d.rule == "L003"]
        assert [d.line for d in kept_unguarded] == [
            line_of("bad_locks.py", "unguarded: also written")
        ]

    def test_known_good_module_is_clean(self):
        diagnostics, graph = analyze_locks(load_fixtures("good_locks.py"))
        assert diagnostics == []
        # The consistent order still shows up in the graph.
        assert ("Ledger._lock", "Vault._gate") in graph.edges

    def test_init_writes_are_exempt(self):
        diagnostics, _ = analyze_locks(load_fixtures("good_locks.py"))
        assert not [d for d in diagnostics if d.rule == "L003"]

    def test_every_rule_has_a_catalog_entry(self):
        diagnostics, _ = analyze_locks(load_fixtures("bad_locks.py"))
        assert all(d.rule in RULES for d in diagnostics)


class TestInlineAccepts:
    def test_an_accept_that_silences_nothing_fails_the_run(self, tmp_path):
        module = tmp_path / "src" / "repro" / "counter.py"
        module.parent.mkdir(parents=True)
        text = (
            '"""Quotes the syntax: ``# lint: lock-ok <why>``."""\n'
            "import threading\n"
            "\n"
            "\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.hits = 0\n"
            "\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            # lint: lock-ok nothing here blocks\n"
            "            self.hits += 1\n"
        )
        module.write_text(text, encoding="utf-8")
        out = io.StringIO()
        assert cli_main(["lint", "--root", str(tmp_path)], out) == 1
        assert out.getvalue().splitlines()[0] == (
            "src/repro/counter.py:12: `# lint: lock-ok` accepts no "
            "finding — remove it"
        )
        # Without the seeded comment the tree is clean: the docstring
        # quoting the syntax is not an accept.
        module.write_text(
            text.replace("            # lint: lock-ok nothing here blocks\n", ""),
            encoding="utf-8",
        )
        assert cli_main(["lint", "--root", str(tmp_path)], io.StringIO()) == 0

    def test_every_accept_in_src_gives_a_reason(self):
        tokens = []
        for relpath, source in collect_sources(REPO_ROOT).items():
            for line, token in source.accepts.items():
                reason = source.lines[line - 1].partition(f"lint: {token}")[2]
                assert reason.strip(), f"{relpath}:{line} gives no reason"
                tokens.append((relpath, token))
        # The journal's leaf-lock flushes are accepted inline.
        assert tokens.count(("src/repro/journal/journal.py", "lock-ok")) == 3


class TestSelfScan:
    def test_live_repo_is_clean_modulo_baseline(self):
        report = run_analysis(REPO_ROOT)
        assert report.clean, (
            "findings no comment accepts (or accepts that silence "
            "nothing) in the live repo:\n"
            + "\n".join(d.render() for d in report.new)
            + "\n".join(str(unused) for unused in report.unused)
        )

    def test_cli_lint_is_clean(self):
        out = io.StringIO()
        code = cli_main(["lint", "--root", str(REPO_ROOT)], out)
        assert code == 0
        assert "0 new" in out.getvalue()

    def test_cli_lint_json_report_shape(self):
        out = io.StringIO()
        code = cli_main(["lint", "--root", str(REPO_ROOT), "--json"], out)
        assert code == 0
        report = json.loads(out.getvalue())
        assert report["clean"] is True
        assert report["counts"]["new"] == 0
        assert {d["rule"] for d in report["accepted"]} <= set(RULES)


class TestLintRoot:
    def test_a_root_without_src_repro_is_a_usage_error(self, tmp_path, capsys):
        # An empty directory and a missing one: neither may fall back to
        # linting the installed tree and reporting it clean.
        for root in (tmp_path, tmp_path / "missing"):
            out = io.StringIO()
            assert cli_main(["lint", "--root", str(root)], out) == 2
            assert out.getvalue() == ""
            assert "repro lint: error:" in capsys.readouterr().err

    def test_no_checkout_above_the_cwd_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        # Without --root, a cwd outside any checkout must not fall back to
        # the tree the module was imported from and report it clean.
        monkeypatch.chdir(tmp_path)
        out = io.StringIO()
        assert cli_main(["lint"], out) == 2
        assert out.getvalue() == ""
        assert "--root" in capsys.readouterr().err


class TestLockOrderAsserter:
    def _pair(self):
        asserter = LockOrderAsserter()
        a = GuardedLock(threading.Lock(), "A", asserter)
        b = GuardedLock(threading.Lock(), "B", asserter)
        return asserter, a, b

    def test_inversion_raises_instead_of_deadlocking(self):
        _, a, b = self._pair()
        with a:
            with b:
                pass
        with pytest.raises(LockOrderInversion, match="A -> B"):
            with b:
                with a:
                    pass

    def test_consistent_order_is_silent(self):
        asserter, a, b = self._pair()
        for _ in range(3):
            with a:
                with b:
                    pass
        assert asserter.edges() == {"A": {"B"}}

    def test_reentrant_acquire_is_exempt(self):
        asserter = LockOrderAsserter()
        r = GuardedLock(threading.RLock(), "R", asserter)
        with r:
            with r:
                pass
        assert asserter.edges() == {}

    def test_cross_thread_inversion_is_caught(self):
        _, a, b = self._pair()

        def first():
            with a:
                with b:
                    pass

        thread = threading.Thread(target=first)
        thread.start()
        thread.join()
        with pytest.raises(LockOrderInversion):
            with b:
                with a:
                    pass

    def test_maybe_guarded_is_zero_cost_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOCK_DEBUG", raising=False)
        raw = threading.Lock()
        assert maybe_guarded(raw, "X") is raw
        monkeypatch.setenv("REPRO_LOCK_DEBUG", "1")
        guarded = maybe_guarded(raw, "X")
        assert isinstance(guarded, GuardedLock)
        assert guarded.name == "X"


class TestRuntimeCorroboratesStaticGraph:
    def test_journaled_service_traffic_has_no_inversion(
        self, monkeypatch, tmp_path
    ):
        """Real concurrent traffic under REPRO_LOCK_DEBUG=1: no inversion
        raised, and every runtime-observed ordering between the guarded
        locks appears in the statically extracted graph."""
        monkeypatch.setenv("REPRO_LOCK_DEBUG", "1")
        journal = DecisionJournal(str(tmp_path), checkpoint_every=4)
        service = EngineService()
        service.attach_journal(journal)
        rng_s, rng_r = spawn_rngs(13, 2)
        ensemble = generate_strategy_ensemble(30, "uniform", rng_s)
        spec = EngineSpec(availability=0.7)
        errors = []

        def one_session(seed: int) -> None:
            try:
                stream = generate_requests(
                    16, k=2, seed=seed, prefix=f"t{seed}-"
                )
                session_id = service.open_session(ensemble, spec)
                for start in range(0, len(stream), 4):
                    service.submit_batch(
                        SubmitBatchRequest(
                            requests=tuple(stream[start : start + 4]),
                            session_id=session_id,
                        )
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=one_session, args=(seed,))
            for seed in (21, 22, 23)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        journal.close()
        assert errors == []

        guarded = {
            "EngineService._sessions_lock",
            "EngineService._checkpoint_lock",
            "EngineSession.lock",
            "RouterService._counters_lock",
        }
        _, graph = analyze_locks(collect_sources(REPO_ROOT))
        static_edges = set(graph.edges)
        for held, acquired_set in GLOBAL_ASSERTER.edges().items():
            for acquired in acquired_set:
                if held in guarded and acquired in guarded:
                    assert (held, acquired) in static_edges, (
                        f"runtime observed {held} -> {acquired}, which the "
                        f"static lock graph does not predict"
                    )
