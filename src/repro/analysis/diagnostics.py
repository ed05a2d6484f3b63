"""The shared rule/diagnostic framework behind ``repro lint``.

A :class:`Diagnostic` is one finding: rule id, repo-relative
``file:line``, a message, and a fix hint.  Its ``key`` is the stable
identity the baseline matches on — deliberately line-free (rule, file,
and a symbolic subject such as ``DecisionJournal._writer_loop``) so an
unrelated edit above a baselined finding does not resurrect it.

Suppressions are explicit inline comments on the flagged line (or the
line directly above it)::

    self.hits += 1  # lint: unguarded-ok idempotent counter race

Each token silences one rule family: ``unguarded-ok`` → ``L003``,
``lock-ok`` → ``L001``/``L002``.
Anything after the token is the (encouraged) justification.

The baseline file is a JSON list of ``{"key", "rule", "justification"}``
entries; :func:`diff_against_baseline` splits a run into *new* findings
(fail CI), *accepted* ones (matched a baseline key), and *stale*
baseline entries (the finding no longer fires — remove the entry, also
a CI failure so the baseline can never rot).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

#: rule id -> (title, one-line description)
RULES: "dict[str, tuple[str, str]]" = {
    "L001": (
        "lock-order-inversion",
        "two lock-acquisition paths order the same locks differently "
        "(a cycle in the lock graph = a potential deadlock)",
    ),
    "L002": (
        "blocking-call-under-lock",
        "file I/O, subprocess, HTTP, sleeping, or engine construction "
        "while holding a lock",
    ),
    "L003": (
        "unguarded-attribute",
        "an attribute of a lock-holding class is mutated both inside "
        "and outside lock scope",
    ),
}

#: suppression comment token -> rule ids it silences
SUPPRESSION_TOKENS: "dict[str, tuple[str, ...]]" = {
    "unguarded-ok": ("L003",),
    "lock-ok": ("L001", "L002"),
}

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*([a-z-]+)")


@dataclass(frozen=True)
class Diagnostic:
    """One finding: where, which rule, what, and how to fix it."""

    rule: str
    file: str  # repo-relative posix path
    line: int
    message: str
    hint: str = ""
    subject: str = ""  # stable symbolic anchor for the baseline key

    @property
    def key(self) -> str:
        """Line-free identity the baseline matches on."""
        return f"{self.rule}:{self.file}:{self.subject or self.line}"

    @property
    def rule_name(self) -> str:
        return RULES.get(self.rule, (self.rule, ""))[0]

    def render(self) -> str:
        text = (
            f"{self.file}:{self.line}: {self.rule} "
            f"[{self.rule_name}] {self.message}"
        )
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "name": self.rule_name,
            "file": self.file,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
            "key": self.key,
        }


@dataclass
class SourceFile:
    """One parsed module shared by the analyzers: path, text, AST."""

    path: Path
    relpath: str
    lines: "list[str]" = field(default_factory=list)
    tree: "object | None" = None  # ast.Module

    def suppressed_rules(self, line: int) -> "set[str]":
        """Rules silenced at ``line`` by a ``# lint:`` comment on it or
        the line directly above."""
        silenced: "set[str]" = set()
        for lineno in (line, line - 1):
            if 1 <= lineno <= len(self.lines):
                for match in _SUPPRESS_RE.finditer(self.lines[lineno - 1]):
                    silenced.update(SUPPRESSION_TOKENS.get(match.group(1), ()))
        return silenced


def apply_suppressions(
    diagnostics: "list[Diagnostic]", sources: "dict[str, SourceFile]"
) -> "list[Diagnostic]":
    """Drop findings whose flagged line carries a matching suppression."""
    kept = []
    for diag in diagnostics:
        source = sources.get(diag.file)
        if source is not None and diag.rule in source.suppressed_rules(
            diag.line
        ):
            continue
        kept.append(diag)
    return kept


def sort_diagnostics(diagnostics: "list[Diagnostic]") -> "list[Diagnostic]":
    return sorted(diagnostics, key=lambda d: (d.file, d.line, d.rule, d.message))


# ------------------------------------------------------------------ baseline
def load_baseline(path) -> "list[dict]":
    """The accepted-findings list (empty when the file is absent)."""
    path = Path(path)
    if not path.is_file():
        return []
    payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, list):
        raise ValueError(f"{path}: baseline must be a JSON list of entries")
    entries = []
    for index, entry in enumerate(payload):
        if not isinstance(entry, dict) or "key" not in entry:
            raise ValueError(
                f"{path}: entry {index} must be an object with a 'key'"
            )
        entries.append(entry)
    return entries


def diff_against_baseline(
    diagnostics: "list[Diagnostic]", baseline: "list[dict]"
):
    """Split a run into (new, accepted, stale-baseline-entries)."""
    accepted_keys = {entry["key"] for entry in baseline}
    seen_keys = {diag.key for diag in diagnostics}
    new = [d for d in diagnostics if d.key not in accepted_keys]
    accepted = [d for d in diagnostics if d.key in accepted_keys]
    stale = [e for e in baseline if e["key"] not in seen_keys]
    return new, accepted, stale


def write_baseline(path, diagnostics: "list[Diagnostic]", previous) -> None:
    """Rewrite the baseline for the current findings, keeping the
    justification of every entry that survives."""
    justifications = {entry["key"]: entry.get("justification", "") for entry in previous}
    entries = [
        {
            "key": diag.key,
            "rule": diag.rule,
            "justification": justifications.get(
                diag.key, "TODO: justify this accepted finding"
            ),
        }
        for diag in sort_diagnostics(diagnostics)
    ]
    Path(path).write_text(
        json.dumps(entries, indent=2) + "\n", encoding="utf-8"
    )
