"""The ``repro lint`` driver: collect, analyze, diff, report.

One run parses every module under ``src/``, feeds the shared
:class:`~repro.analysis.diagnostics.SourceFile` set through the
lock-discipline pass, applies inline suppressions, and diffs the
surviving findings against ``analysis/baseline.json``:

* **new** findings (not in the baseline) fail the run;
* **accepted** findings (baselined, with a justification) pass;
* **stale** baseline entries (the finding no longer fires) also fail,
  so the baseline can only shrink — it never rots.

Exit codes: 0 clean, 1 new-or-stale findings, 2 analysis error (or no
tree to lint: a ``--root`` that holds no ``src/repro``, or none given
and no ``src/repro`` at or above the cwd).
``--json`` emits the machine-readable report CI uploads as an artifact;
``--update-baseline`` rewrites the baseline for the current findings
(preserving existing justifications) for deliberate, reviewed accepts.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.diagnostics import (
    Diagnostic,
    SourceFile,
    apply_suppressions,
    diff_against_baseline,
    load_baseline,
    sort_diagnostics,
    write_baseline,
)
from repro.analysis.lockcheck import analyze_locks


def find_repo_root() -> "Path | None":
    """The nearest ancestor of the cwd holding ``src/repro``, if any."""
    here = Path.cwd()
    for candidate in (here, *here.resolve().parents):
        if (candidate / "src" / "repro").is_dir():
            return candidate
    return None


def collect_sources(root: Path) -> "dict[str, SourceFile]":
    """Parse every module under ``src/`` into the shared SourceFile map."""
    sources: "dict[str, SourceFile]" = {}
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=relpath)
        sources[relpath] = SourceFile(
            path=path,
            relpath=relpath,
            lines=text.splitlines(),
            tree=tree,
        )
    return sources


@dataclass
class AnalysisReport:
    """One lint run: every finding, split against the baseline."""

    root: Path
    diagnostics: "list[Diagnostic]" = field(default_factory=list)
    new: "list[Diagnostic]" = field(default_factory=list)
    accepted: "list[Diagnostic]" = field(default_factory=list)
    stale: "list[dict]" = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.new and not self.stale

    def to_dict(self) -> dict:
        return {
            "clean": self.clean,
            "counts": {
                "total": len(self.diagnostics),
                "new": len(self.new),
                "accepted": len(self.accepted),
                "stale_baseline": len(self.stale),
            },
            "new": [d.to_dict() for d in self.new],
            "accepted": [d.to_dict() for d in self.accepted],
            "stale_baseline": self.stale,
        }


def default_baseline_path(root: Path) -> Path:
    return root / "analysis" / "baseline.json"


def run_analysis(
    root: Path,
    baseline_path: "Path | None" = None,
) -> AnalysisReport:
    """Run the lock-discipline pass over ``root`` and diff against the baseline."""
    root = Path(root)
    sources = collect_sources(root)
    diagnostics, _graph = analyze_locks(sources)
    diagnostics = sort_diagnostics(apply_suppressions(diagnostics, sources))
    if baseline_path is None:
        baseline_path = default_baseline_path(root)
    baseline = load_baseline(baseline_path)
    new, accepted, stale = diff_against_baseline(diagnostics, baseline)
    return AnalysisReport(
        root=root,
        diagnostics=diagnostics,
        new=new,
        accepted=accepted,
        stale=stale,
    )


def add_lint_args(parser: argparse.ArgumentParser) -> None:
    """Declare the lint flags on ``parser``.

    ``repro lint`` and ``python -m repro.analysis`` both parse with this
    one declaration; :func:`run_lint` reads the parsed namespace.
    """
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help=(
            "repo root, which must hold src/repro "
            "(default: auto-detect from cwd)"
        ),
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline file (default: <root>/analysis/baseline.json)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable JSON report on stdout",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "rewrite the baseline to accept the current findings "
            "(keeps existing justifications)"
        ),
    )


def run_lint(args, out=sys.stdout) -> int:
    """One lint run from the parsed :func:`add_lint_args` flags."""
    if args.root is None:
        root = find_repo_root()
        if root is None:
            print(
                "repro lint: error: no src/repro at or above the current "
                "directory; pass --root",
                file=sys.stderr,
            )
            return 2
    elif (args.root / "src" / "repro").is_dir():
        root = args.root
    else:
        print(
            f"repro lint: error: --root {args.root} holds no src/repro",
            file=sys.stderr,
        )
        return 2
    baseline_path = args.baseline or default_baseline_path(root)
    try:
        report = run_analysis(root, baseline_path)
    except (OSError, SyntaxError, ValueError) as exc:
        print(f"repro lint: analysis failed: {exc}", file=sys.stderr)
        return 2
    if args.update_baseline:
        previous = load_baseline(baseline_path)
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        write_baseline(baseline_path, report.diagnostics, previous)
        print(
            f"baseline updated: {len(report.diagnostics)} accepted "
            f"finding(s) -> {baseline_path}",
            file=out,
        )
        return 0
    if args.json:
        json.dump(report.to_dict(), out, indent=2)
        out.write("\n")
    else:
        for diag in report.new:
            print(diag.render(), file=out)
        for entry in report.stale:
            print(
                f"stale baseline entry {entry['key']!r}: the finding no "
                f"longer fires — remove it from {baseline_path}",
                file=out,
            )
        print(
            f"repro lint: {len(report.new)} new, "
            f"{len(report.accepted)} baselined, "
            f"{len(report.stale)} stale baseline entr"
            f"{'y' if len(report.stale) == 1 else 'ies'}",
            file=out,
        )
    return 0 if report.clean else 1


def main(argv=None, out=sys.stdout) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Static lock-discipline analysis: lock-order inversions, "
            "blocking calls under a lock, unguarded attributes."
        ),
    )
    add_lint_args(parser)
    return run_lint(parser.parse_args(argv), out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
