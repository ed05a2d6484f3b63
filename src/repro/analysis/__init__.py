"""Project-invariant static analysis (`repro lint`).

Three AST-based analyzer families guard the invariants the runtime
layers rely on but cannot themselves check:

* **Lock discipline** (:mod:`repro.analysis.lockcheck`) — builds the
  per-class lock-acquisition graph from ``with self._lock:`` /
  ``.acquire()`` sites and flags lock-order inversions (``L001``),
  blocking calls made while holding a lock (``L002``), and attributes
  mutated both inside and outside lock scope (``L003``).
* **Wire universe** (:mod:`repro.analysis.wirecheck`) — the closure of
  the envelope universe: request dispatch vs ``_HANDLERS`` (``W004``),
  exception → error-code coverage (``W005``), and ``HTTP_STATUS`` vs
  produced codes (``W006``).  Codec drift needs no rule: every wire and
  journal codec is derived from its dataclass (:mod:`repro.api.codec`).
* **Registry coverage** (:mod:`repro.analysis.registrycheck`) — every
  registered planner/solver/scenario backend name must be pinned by at
  least one test (``R001``) and one benchmark (``R002``).

Diagnostics carry ``file:line``, a rule id, and a fix hint; accepted
pre-existing findings live in ``analysis/baseline.json`` (with a
justification each) so only *new* findings fail CI.  Run it with
``repro lint`` or ``python -m repro.analysis --json``.
"""

from repro.analysis.diagnostics import (
    Diagnostic,
    RULES,
    load_baseline,
    diff_against_baseline,
)
from repro.analysis.lockcheck import analyze_locks
from repro.analysis.registrycheck import analyze_registries
from repro.analysis.runner import run_analysis
from repro.analysis.wirecheck import analyze_wire

__all__ = [
    "Diagnostic",
    "RULES",
    "analyze_locks",
    "analyze_registries",
    "analyze_wire",
    "diff_against_baseline",
    "load_baseline",
    "run_analysis",
]
