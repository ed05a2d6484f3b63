"""The ``repro lint`` driver: collect, analyze, report.

One run parses every module under ``src/``, feeds the shared
:class:`~repro.analysis.diagnostics.SourceFile` set through the
lock-discipline pass, and splits the findings by their inline
``# lint:`` accepts:

* **new** findings (no accept comment) fail the run;
* **accepted** findings (an accept comment giving the reason) pass;
* **unused** accepts (the comment silences no finding) also fail, so
  an accept cannot outlive the finding it was written for.

Exit codes: 0 clean, 1 new findings or unused accepts, 2 analysis error
(or no tree to lint: a ``--root`` that holds no ``src/repro``, or none
given and no ``src/repro`` at or above the cwd).  ``--json`` emits the
machine-readable report CI uploads as an artifact.  The flags are
declared with the ``lint`` subcommand in :mod:`repro.cli`.
"""

from __future__ import annotations

import ast
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.diagnostics import (
    Diagnostic,
    SourceFile,
    apply_suppressions,
    sort_diagnostics,
    unused_accepts,
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
    """One lint run: every finding, split by its inline accept."""

    root: Path
    new: "list[Diagnostic]" = field(default_factory=list)
    accepted: "list[Diagnostic]" = field(default_factory=list)
    unused: "list[tuple[str, int, str]]" = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.new and not self.unused

    def to_dict(self) -> dict:
        return {
            "clean": self.clean,
            "counts": {
                "new": len(self.new),
                "accepted": len(self.accepted),
                "unused_accepts": len(self.unused),
            },
            "new": [d.to_dict() for d in self.new],
            "accepted": [d.to_dict() for d in self.accepted],
            "unused_accepts": [
                {"file": file, "line": line, "token": token}
                for file, line, token in self.unused
            ],
        }


def run_analysis(root: Path) -> AnalysisReport:
    """Run the lock-discipline pass over ``root``."""
    root = Path(root)
    sources = collect_sources(root)
    diagnostics, _graph = analyze_locks(sources)
    diagnostics = sort_diagnostics(diagnostics)
    new = apply_suppressions(diagnostics, sources)
    unaccepted = set(new)
    return AnalysisReport(
        root=root,
        new=new,
        accepted=[d for d in diagnostics if d not in unaccepted],
        unused=unused_accepts(diagnostics, sources),
    )


def run_lint(args, out=sys.stdout) -> int:
    """One lint run from the parsed ``repro lint`` flags."""
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
    try:
        report = run_analysis(root)
    except (OSError, SyntaxError, ValueError) as exc:
        print(f"repro lint: analysis failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        json.dump(report.to_dict(), out, indent=2)
        out.write("\n")
    else:
        for diag in report.new:
            print(diag.render(), file=out)
        for file, line, token in report.unused:
            print(
                f"{file}:{line}: `# lint: {token}` accepts no finding — "
                "remove it",
                file=out,
            )
        print(
            f"repro lint: {len(report.new)} new, "
            f"{len(report.accepted)} accepted inline, "
            f"{len(report.unused)} unused accept(s)",
            file=out,
        )
    return 0 if report.clean else 1
