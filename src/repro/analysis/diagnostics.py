"""The shared rule/diagnostic framework behind ``repro lint``.

A :class:`Diagnostic` is one finding: rule id, repo-relative
``file:line``, a message, and a fix hint.

A finding is accepted by an inline comment on the flagged line (or the
line directly above it) that gives the reason::

    self.hits += 1  # lint: unguarded-ok idempotent counter race

Each token accepts one rule family: ``unguarded-ok`` → ``L003``,
``lock-ok`` → ``L001``/``L002``.  Anything after the token is the
justification.  Only comment tokens count, so a docstring quoting the
syntax accepts nothing.  An accept that silences no finding fails the
run (:func:`unused_accepts`), so accepts cannot outlive their findings.
"""

from __future__ import annotations

import functools
import io
import re
import tokenize
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

#: accept comment token -> rule ids it accepts
SUPPRESSION_TOKENS: "dict[str, tuple[str, ...]]" = {
    "unguarded-ok": ("L003",),
    "lock-ok": ("L001", "L002"),
}

_ACCEPT_RE = re.compile(r"#\s*lint:\s*([a-z-]+)")


@dataclass(frozen=True)
class Diagnostic:
    """One finding: where, which rule, what, and how to fix it."""

    rule: str
    file: str  # repo-relative posix path
    line: int
    message: str
    hint: str = ""
    subject: str = ""  # symbolic anchor, e.g. ``Class.method->call``

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
            "subject": self.subject,
        }


@dataclass
class SourceFile:
    """One parsed module shared by the analyzers: path, text, AST."""

    path: Path
    relpath: str
    lines: "list[str]" = field(default_factory=list)
    tree: "object | None" = None  # ast.Module

    @functools.cached_property
    def accepts(self) -> "dict[int, str]":
        """Line → token of each ``# lint: <token> <why>`` comment."""
        text = "\n".join(self.lines) + "\n"
        accepts = {}
        if "lint:" not in text:
            return accepts  # most files: skip the tokenizer
        readline = io.StringIO(text).readline
        for token in tokenize.generate_tokens(readline):
            if token.type == tokenize.COMMENT:
                match = _ACCEPT_RE.search(token.string)
                if match is not None:
                    accepts[token.start[0]] = match.group(1)
        return accepts

    def accepting_line(self, diag: Diagnostic) -> "int | None":
        """The line of the comment that accepts ``diag``, if any: on the
        flagged line or the line directly above."""
        for line in (diag.line, diag.line - 1):
            token = self.accepts.get(line)
            if diag.rule in SUPPRESSION_TOKENS.get(token, ()):
                return line
        return None


def apply_suppressions(
    diagnostics: "list[Diagnostic]", sources: "dict[str, SourceFile]"
) -> "list[Diagnostic]":
    """Drop findings that a ``# lint:`` comment accepts."""
    return [
        diag
        for diag in diagnostics
        if diag.file not in sources
        or sources[diag.file].accepting_line(diag) is None
    ]


def unused_accepts(
    diagnostics: "list[Diagnostic]", sources: "dict[str, SourceFile]"
) -> "list[tuple[str, int, str]]":
    """``(file, line, token)`` of every ``# lint:`` comment that accepts
    none of ``diagnostics``: its finding is gone, or its token is not
    one of :data:`SUPPRESSION_TOKENS`."""
    used = {
        (diag.file, sources[diag.file].accepting_line(diag))
        for diag in diagnostics
        if diag.file in sources
    }
    return [
        (relpath, line, token)
        for relpath, source in sorted(sources.items())
        for line, token in sorted(source.accepts.items())
        if (relpath, line) not in used
    ]


def sort_diagnostics(diagnostics: "list[Diagnostic]") -> "list[Diagnostic]":
    return sorted(diagnostics, key=lambda d: (d.file, d.line, d.rule, d.message))
