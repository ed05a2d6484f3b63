"""Lock-discipline analysis: order inversions, blocking calls, races.

The analyzer extracts a **per-class lock-acquisition graph** from the
source AST:

* a *lock* is an instance attribute assigned a ``threading.Lock`` /
  ``RLock`` / ``Condition`` / ``Semaphore`` anywhere in its value
  expression (so wrapper factories like
  ``maybe_guarded(threading.RLock(), ...)`` and lock *collections* like
  ``tuple(threading.Lock() for ...)`` register too), labelled
  ``ClassName.attr``; a ``threading.Condition(self._lock)`` aliases to
  the lock it wraps, so ``with self._cv:`` and ``with self._lock:``
  count as the same lock;
* an *edge* ``A → B`` is recorded whenever ``B`` is acquired
  (syntactically via ``with``/``.acquire()``, or through a resolvable
  call into a method that acquires it) while ``A`` is held.

Call resolution is deliberately conservative: ``self.method()``
resolves within the class, and ``receiver.method()`` resolves
cross-class only when the receiver's name clearly hints the class
(``journal.append`` → ``DecisionJournal``) — anonymous container
methods never create edges.  Lambdas and nested defs are skipped (their
bodies don't run under the enclosing lock).

Rules:

* **L001** — a cycle in the lock graph: two code paths acquire the same
  locks in opposite orders, the classic deadlock shape.
* **L002** — a blocking call (file I/O, ``subprocess``, HTTP/socket
  traffic, ``time.sleep``, engine construction) while holding a lock,
  either directly or one call deep into a resolvable method.
  ``Condition.wait`` is *not* blocking — it releases the lock.
* **L003** — an attribute of a lock-holding class written both inside
  and outside that class's lock scope.  ``__init__`` writes are exempt
  (the object is not yet shared), and a private helper whose every
  intra-class call site is lock-guarded counts as guarded itself.
  Suppress benign idempotent races with ``# lint: unguarded-ok``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic, SourceFile

#: threading factory callables that mint a lock-ish object.
LOCK_FACTORIES = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
}

#: Attribute names whose call blocks (I/O, sleeping, subprocess, HTTP).
BLOCKING_ATTRS = {
    "open": "file I/O",
    "write": "file I/O",
    "flush": "file I/O",
    "read": "file I/O",
    "readline": "file I/O",
    "readlines": "file I/O",
    "read_text": "file I/O",
    "write_text": "file I/O",
    "read_bytes": "file I/O",
    "write_bytes": "file I/O",
    "sleep": "sleeping",
    "join": "thread join",
    "urlopen": "HTTP traffic",
    "request": "HTTP traffic",
    "getresponse": "HTTP traffic",
    "connect": "socket traffic",
    "recv": "socket traffic",
    "sendall": "socket traffic",
    "accept": "socket traffic",
    "communicate": "subprocess wait",
}

#: Root module names whose every call is blocking (``subprocess.run``).
BLOCKING_MODULES = {"subprocess", "socket", "urllib"}

#: Constructors expensive enough to count as blocking under a lock.
EXPENSIVE_CONSTRUCTORS = {"RecommendationEngine"}


def _attr_chain(node) -> "list[str]":
    """``a.b.c`` → ["a", "b", "c"]; empty when not a plain name chain."""
    parts: "list[str]" = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _contains_lock_factory(node) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            chain = _attr_chain(sub.func)
            if (
                len(chain) == 2
                and chain[0] == "threading"
                and chain[1] in LOCK_FACTORIES
            ) or (len(chain) == 1 and chain[0] in LOCK_FACTORIES):
                return True
    return False


def _condition_alias(node) -> "str | None":
    """``threading.Condition(self.X)`` → ``X`` (the lock it wraps)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            chain = _attr_chain(sub.func)
            if chain[-1:] == ["Condition"] and sub.args:
                arg_chain = _attr_chain(sub.args[0])
                if len(arg_chain) == 2 and arg_chain[0] == "self":
                    return arg_chain[1]
    return None


@dataclass
class MethodInfo:
    cls: str
    name: str
    node: ast.FunctionDef
    acquires: "set[str]" = field(default_factory=set)
    blocking: "list[tuple[str, int, str]]" = field(default_factory=list)
    # intra-class call sites pointing AT this method: (caller, guarded)
    call_sites: "list[tuple[str, bool]]" = field(default_factory=list)


@dataclass
class ClassInfo:
    name: str
    relpath: str
    node: ast.ClassDef
    locks: "dict[str, str]" = field(default_factory=dict)  # attr -> canonical attr
    methods: "dict[str, MethodInfo]" = field(default_factory=dict)

    def lock_label(self, attr: str) -> "str | None":
        canonical = self.locks.get(attr)
        return None if canonical is None else f"{self.name}.{canonical}"


@dataclass
class LockGraph:
    """The extracted lock universe: labels, ordered edges, their sites."""

    locks: "dict[str, tuple[str, int]]" = field(default_factory=dict)
    # (held, acquired) -> list of (file, line, "Class.method")
    edges: "dict[tuple[str, str], list[tuple[str, int, str]]]" = field(
        default_factory=dict
    )

    def add_edge(self, held: str, acquired: str, site) -> None:
        self.edges.setdefault((held, acquired), []).append(site)

    def cycles(self) -> "list[tuple[str, ...]]":
        """Every elementary cycle among the edge set (canonical order)."""
        adjacency: "dict[str, set[str]]" = {}
        for a, b in self.edges:
            adjacency.setdefault(a, set()).add(b)
        seen: "set[tuple[str, ...]]" = set()
        cycles: "list[tuple[str, ...]]" = []

        def dfs(start: str, node: str, path: "list[str]") -> None:
            for nxt in sorted(adjacency.get(node, ())):
                if nxt == start and len(path) > 1:
                    rotation = min(
                        tuple(path[i:] + path[:i]) for i in range(len(path))
                    )
                    if rotation not in seen:
                        seen.add(rotation)
                        cycles.append(rotation)
                elif nxt not in path and nxt > start:
                    # Only explore nodes after `start` so each cycle is
                    # found exactly once (from its smallest member).
                    dfs(start, nxt, path + [nxt])

        for label in sorted(adjacency):
            dfs(label, label, [label])
        return cycles


class _ModuleScan:
    """One module's lock-relevant facts, gathered in a single pass."""

    def __init__(self, source: SourceFile):
        self.source = source
        self.classes: "dict[str, ClassInfo]" = {}
        for node in source.tree.body:
            if isinstance(node, ast.ClassDef):
                self._scan_class(node)

    def _scan_class(self, node: ast.ClassDef) -> None:
        info = ClassInfo(name=node.name, relpath=self.source.relpath, node=node)
        aliases: "list[tuple[str, str]]" = []
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            info.methods[method.name] = MethodInfo(
                cls=node.name, name=method.name, node=method
            )
            for sub in ast.walk(method):
                if not isinstance(sub, ast.Assign):
                    continue
                for target in sub.targets:
                    chain = _attr_chain(target)
                    if len(chain) != 2 or chain[0] != "self":
                        continue
                    alias = _condition_alias(sub.value)
                    if alias is not None:
                        aliases.append((chain[1], alias))
                    elif _contains_lock_factory(sub.value):
                        info.locks[chain[1]] = chain[1]
        for attr, wrapped in aliases:
            info.locks[attr] = info.locks.get(wrapped, attr)
        self.classes[node.name] = info


class LockAnalyzer:
    """Build the lock graph and emit L001/L002/L003 diagnostics."""

    def __init__(self, sources: "dict[str, SourceFile]"):
        self.sources = sources
        self.graph = LockGraph()
        self.diagnostics: "list[Diagnostic]" = []
        self.scans = [
            _ModuleScan(source)
            for source in sources.values()
            if source.tree is not None
        ]
        # Global class registry + per-lock-attr owner map.
        self.classes: "dict[str, ClassInfo]" = {}
        for scan in self.scans:
            self.classes.update(scan.classes)
        self.attr_owners: "dict[str, list[ClassInfo]]" = {}
        for cls in self.classes.values():
            for attr in cls.locks:
                self.attr_owners.setdefault(attr, []).append(cls)
            for attr, canonical in cls.locks.items():
                label = f"{cls.name}.{canonical}"
                self.graph.locks.setdefault(
                    label, (cls.relpath, cls.node.lineno)
                )
        # Mutation bookkeeping for L003:
        # (class, attr) -> list of (guarded, file, line, method)
        self.writes: "dict[tuple[str, str], list]" = {}

    # ------------------------------------------------------------ resolution
    def _resolve_lock_expr(self, expr, cls: "ClassInfo | None") -> "str | None":
        """A ``with``-target / ``.acquire()`` receiver → lock label."""
        while isinstance(expr, ast.Subscript):
            expr = expr.value
        chain = _attr_chain(expr)
        if not chain or len(chain) < 2:
            return None
        attr = chain[-1]
        if chain[0] == "self" and len(chain) == 2 and cls is not None:
            return cls.lock_label(attr)
        owners = self.attr_owners.get(attr, [])
        if len(owners) == 1:
            return owners[0].lock_label(attr)
        return None

    def _resolve_callee(self, call, cls: "ClassInfo | None") -> "MethodInfo | None":
        chain = _attr_chain(call.func)
        if len(chain) < 2:
            return None
        method_name = chain[-1]
        if chain[0] == "self" and len(chain) == 2:
            if cls is not None:
                return cls.methods.get(method_name)
            return None
        # receiver-hint resolution: `journal.append` → DecisionJournal
        receiver = chain[-2].lstrip("_").lower()
        if not receiver or receiver == "self":
            return None
        matches = [
            c
            for c in self.classes.values()
            if receiver in c.name.lower()
            and method_name in c.methods
            and (
                c.methods[method_name].acquires
                or c.methods[method_name].blocking
            )
        ]
        if len(matches) == 1:
            return matches[0].methods[method_name]
        return None

    @staticmethod
    def _classify_blocking(call) -> "str | None":
        chain = _attr_chain(call.func)
        if not chain:
            return None
        if len(chain) == 1:
            if chain[0] == "open":
                return "file I/O"
            if chain[0] in EXPENSIVE_CONSTRUCTORS:
                return "engine construction"
            return None
        if chain[0] in BLOCKING_MODULES:
            return f"{chain[0]} call"
        return BLOCKING_ATTRS.get(chain[-1])

    # ------------------------------------------------------------- summaries
    def _summarize(self) -> None:
        """Per-method acquired-lock sets and direct blocking calls."""
        for scan in self.scans:
            for cls in scan.classes.values():
                for method in cls.methods.values():
                    for node in ast.walk(method.node):
                        if isinstance(node, (ast.With, ast.AsyncWith)):
                            for item in node.items:
                                label = self._resolve_lock_expr(
                                    item.context_expr, cls
                                )
                                if label:
                                    method.acquires.add(label)
                        elif isinstance(node, ast.Call):
                            if (
                                isinstance(node.func, ast.Attribute)
                                and node.func.attr == "acquire"
                            ):
                                label = self._resolve_lock_expr(
                                    node.func.value, cls
                                )
                                if label:
                                    method.acquires.add(label)
                            desc = self._classify_blocking(node)
                            if desc:
                                method.blocking.append(
                                    (
                                        desc,
                                        node.lineno,
                                        ast.unparse(node.func),
                                    )
                                )
        # Transitive closure of acquires through resolvable calls.
        changed = True
        while changed:
            changed = False
            for cls in self.classes.values():
                for method in cls.methods.values():
                    for node in ast.walk(method.node):
                        if not isinstance(node, ast.Call):
                            continue
                        callee = self._resolve_callee(node, cls)
                        if callee is None:
                            continue
                        extra = callee.acquires - method.acquires
                        if extra:
                            method.acquires |= extra
                            changed = True

    # ------------------------------------------------------------ main walk
    def analyze(self) -> "tuple[list[Diagnostic], LockGraph]":
        self._summarize()
        for scan in self.scans:
            for cls in scan.classes.values():
                for method in cls.methods.values():
                    self._walk_body(
                        method.node.body, [], scan, cls, method
                    )
        self._finish_unguarded()
        self._finish_cycles()
        return self.diagnostics, self.graph

    def _site(self, scan, cls, method, node):
        return (scan.source.relpath, node.lineno, f"{cls.name}.{method.name}")

    def _record_acquire(self, held, label, node, scan, cls, method) -> None:
        for h in held:
            if h != label:
                self.graph.add_edge(
                    h, label, self._site(scan, cls, method, node)
                )

    def _walk_body(self, stmts, held, scan, cls, method) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt, held, scan, cls, method)

    def _walk_stmt(self, stmt, held, scan, cls, method) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scope: not executed under the held locks
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            entered: "list[str]" = []
            for item in stmt.items:
                self._walk_expr(item.context_expr, held, scan, cls, method)
                label = self._resolve_lock_expr(item.context_expr, cls)
                if label:
                    self._record_acquire(held, label, stmt, scan, cls, method)
                    held.append(label)
                    entered.append(label)
            self._walk_body(stmt.body, held, scan, cls, method)
            for label in reversed(entered):
                held.remove(label)
            return
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            self._record_writes(stmt, held, scan, cls, method)
        for _name, value in ast.iter_fields(stmt):
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.stmt):
                        self._walk_stmt(item, held, scan, cls, method)
                    elif isinstance(item, ast.expr):
                        self._walk_expr(item, held, scan, cls, method)
                    elif isinstance(item, ast.excepthandler):
                        self._walk_body(item.body, held, scan, cls, method)
                    elif isinstance(item, (ast.match_case,)):
                        self._walk_body(item.body, held, scan, cls, method)
                    elif isinstance(item, ast.withitem):  # pragma: no cover
                        self._walk_expr(
                            item.context_expr, held, scan, cls, method
                        )
            elif isinstance(value, ast.expr):
                self._walk_expr(value, held, scan, cls, method)

    def _walk_expr(self, expr, held, scan, cls, method) -> None:
        if expr is None:
            return
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue  # deferred body: not run under the held locks
            if isinstance(node, ast.Call):
                self._handle_call(node, held, scan, cls, method)
            stack.extend(ast.iter_child_nodes(node))

    def _handle_call(self, call, held, scan, cls, method) -> None:
        func = call.func
        # Intra-class call-site guardedness, for the L003 fixpoint.
        chain = _attr_chain(func)
        if len(chain) == 2 and chain[0] == "self":
            target = cls.methods.get(chain[1])
            if target is not None:
                own_lock_held = any(
                    h.startswith(f"{cls.name}.") for h in held
                )
                target.call_sites.append((method.name, own_lock_held))
        if isinstance(func, ast.Attribute) and func.attr in (
            "acquire",
            "release",
        ):
            label = self._resolve_lock_expr(func.value, cls)
            if label:
                if func.attr == "acquire":
                    self._record_acquire(held, label, call, scan, cls, method)
                    held.append(label)
                elif label in held:
                    held.remove(label)
                return
        if not held:
            return
        desc = self._classify_blocking(call)
        if desc:
            self._flag_blocking(call, held, desc, None, scan, cls, method)
        callee = self._resolve_callee(call, cls)
        if callee is None:
            return
        for label in callee.acquires:
            self._record_acquire(held, label, call, scan, cls, method)
        if callee.blocking:
            inner_desc = callee.blocking[0][0]
            self._flag_blocking(
                call, held, inner_desc, callee, scan, cls, method
            )

    def _flag_blocking(
        self, call, held, desc, callee, scan, cls, method
    ) -> None:
        target = ast.unparse(call.func)
        if callee is None:
            message = (
                f"{desc} via `{target}(...)` while holding {held[-1]}"
            )
        else:
            message = (
                f"call to {callee.cls}.{callee.name} (which does {desc}) "
                f"while holding {held[-1]}"
            )
        self.diagnostics.append(
            Diagnostic(
                rule="L002",
                file=scan.source.relpath,
                line=call.lineno,
                message=message,
                hint=(
                    "move the blocking work outside the lock, or accept it "
                    "with `# lint: lock-ok <why>` if the lock is a "
                    "designed leaf"
                ),
                subject=f"{cls.name}.{method.name}->{target}",
            )
        )

    # -------------------------------------------------------- L003 plumbing
    def _record_writes(self, stmt, held, scan, cls, method) -> None:
        if not cls.locks or method.name == "__init__":
            return
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = stmt.targets
        own_lock_held = any(h.startswith(f"{cls.name}.") for h in held)
        for target in targets:
            attr = self._self_attr_of(target)
            if attr is None or attr in cls.locks:
                continue
            self.writes.setdefault((cls.name, attr), []).append(
                (
                    own_lock_held,
                    scan.source.relpath,
                    stmt.lineno,
                    method.name,
                )
            )

    @staticmethod
    def _self_attr_of(target) -> "str | None":
        node = target
        while True:
            if isinstance(node, ast.Subscript):
                node = node.value
            elif isinstance(node, ast.Attribute):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    return node.attr
                node = node.value
            else:
                return None

    def _finish_unguarded(self) -> None:
        for cls in self.classes.values():
            if not cls.locks:
                continue
            guarded_methods: "set[str]" = set()
            changed = True
            while changed:
                changed = False
                for name, method in cls.methods.items():
                    if name in guarded_methods or name == "__init__":
                        continue
                    if not method.call_sites:
                        continue
                    # A call from __init__ is as safe as a guarded one:
                    # the object is not shared yet.
                    if all(
                        guarded
                        or caller == "__init__"
                        or caller in guarded_methods
                        for caller, guarded in method.call_sites
                    ):
                        guarded_methods.add(name)
                        changed = True
            for (cls_name, attr), writes in self.writes.items():
                if cls_name != cls.name:
                    continue
                guarded_writes = [
                    w
                    for w in writes
                    if w[0] or w[3] in guarded_methods
                ]
                unguarded_writes = [
                    w
                    for w in writes
                    if not w[0] and w[3] not in guarded_methods
                ]
                if not guarded_writes or not unguarded_writes:
                    continue
                for _guarded, relpath, line, method_name in unguarded_writes:
                    self.diagnostics.append(
                        Diagnostic(
                            rule="L003",
                            file=relpath,
                            line=line,
                            message=(
                                f"{cls.name}.{attr} is written under "
                                f"{cls.name}'s lock elsewhere but "
                                f"unguarded here in {method_name}()"
                            ),
                            hint=(
                                "take the lock around this write, or mark "
                                "a benign idempotent race with "
                                "`# lint: unguarded-ok <why>`"
                            ),
                            subject=f"{cls.name}.{attr}@{method_name}",
                        )
                    )

    def _finish_cycles(self) -> None:
        for cycle in self.graph.cycles():
            ring = list(cycle) + [cycle[0]]
            hops = []
            first_site = None
            for a, b in zip(ring, ring[1:]):
                sites = self.graph.edges.get((a, b), [])
                site = sites[0] if sites else ("?", 0, "?")
                if first_site is None:
                    first_site = site
                hops.append(f"{a} -> {b} (at {site[0]}:{site[1]} in {site[2]})")
            assert first_site is not None
            self.diagnostics.append(
                Diagnostic(
                    rule="L001",
                    file=first_site[0],
                    line=first_site[1],
                    message=(
                        "lock-order inversion: " + "; ".join(hops)
                    ),
                    hint=(
                        "pick one global order for these locks and release "
                        "the earlier lock before taking the later one on "
                        "every path"
                    ),
                    subject="->".join(cycle),
                )
            )


def analyze_locks(
    sources: "dict[str, SourceFile]",
) -> "tuple[list[Diagnostic], LockGraph]":
    """Run the lock-discipline analysis over parsed sources."""
    return LockAnalyzer(sources).analyze()
