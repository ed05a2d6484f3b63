"""Lock-discipline static analysis (`repro lint`).

One AST-based pass (:mod:`repro.analysis.lockcheck`) checks lock
discipline on every code path, including the ones no test runs: it
builds the per-class lock-acquisition graph from ``with self._lock:`` /
``.acquire()`` sites and flags lock-order inversions (``L001``),
blocking calls made while holding a lock (``L002``), and attributes
mutated both inside and outside lock scope (``L003``).

Invariants between live objects are tier-1 tests, not lint rules: the
wire dispatch and error-code tables are checked in
``tests/unit/test_api.py``, and every registered planner, solver and
scenario name is covered by construction in
``tests/property/test_backend_contract.py``.

Diagnostics carry ``file:line``, a rule id, and a fix hint.  A finding
is accepted by a ``# lint: lock-ok <why>`` (or ``unguarded-ok``)
comment on its line or the line above; an accept that silences no
finding fails the run.  Run it with ``repro lint`` or ``python -m
repro.analysis --json``.
"""

from repro.analysis.diagnostics import Diagnostic, RULES
from repro.analysis.lockcheck import analyze_locks
from repro.analysis.runner import run_analysis

__all__ = [
    "Diagnostic",
    "RULES",
    "analyze_locks",
    "run_analysis",
]
