"""Wire-universe analysis: the envelope and error-code sets are closed.

Every wire and journal codec is derived from its dataclass
(:mod:`repro.api.codec`), so encoder/decoder drift cannot happen and is
not checked here.  What a derived codec cannot see is whether the sets
around it agree:

* **W004** — request classes in ``envelopes._REQUEST_TYPES`` and
  ``EngineService._HANDLERS`` must agree;
* **W005** — every ``repro.exceptions`` class must map to a stable wire
  error code;
* **W006** — every ``HTTP_STATUS`` code must be one the code can
  actually produce.

(Journal event kinds need no rule: each event class registers its kind
when it is defined, and a duplicate kind fails at import.)
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic, SourceFile


def _const_str(node) -> "str | None":
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


@dataclass
class _Module:
    source: SourceFile
    functions: "dict[str, ast.FunctionDef]" = field(default_factory=dict)
    classes: "dict[str, ast.ClassDef]" = field(default_factory=dict)

    def __post_init__(self):
        for node in self.source.tree.body:
            if isinstance(node, ast.FunctionDef):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        # class-level helpers resolve by qualified name
                        self.functions.setdefault(
                            f"{node.name}.{sub.name}", sub
                        )


class WireAnalyzer:
    def __init__(self, sources: "dict[str, SourceFile]"):
        self.sources = sources
        self.diagnostics: "list[Diagnostic]" = []
        self.modules = [
            _Module(source)
            for source in sources.values()
            if source.tree is not None
        ]

    # -------------------------------------------------- W004: handler drift
    def _top_level_assign(self, module: _Module, name: str):
        for node in module.source.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        return node.value
            elif isinstance(node, ast.AnnAssign):
                if (
                    isinstance(node.target, ast.Name)
                    and node.target.id == name
                ):
                    return node.value
        return None

    def _class_level_assign(self, cls: ast.ClassDef, name: str):
        for node in cls.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        return node.value
        return None

    def _check_handler_drift(self) -> None:
        dispatch_value = None
        dispatch_module = None
        for module in self.modules:
            value = self._top_level_assign(module, "_REQUEST_TYPES")
            if value is not None:
                dispatch_value, dispatch_module = value, module
                break
        handlers_value = None
        handlers_module = None
        handlers_line = 0
        for module in self.modules:
            for cls in module.classes.values():
                value = self._class_level_assign(cls, "_HANDLERS")
                if value is not None:
                    handlers_value = value
                    handlers_module = module
                    handlers_line = value.lineno
        if dispatch_value is None or handlers_value is None:
            return
        dispatched = {
            node.id
            for node in ast.walk(dispatch_value)
            if isinstance(node, ast.Name) and node.id.endswith("Request")
        }
        handled = {
            key.id
            for key in getattr(handlers_value, "keys", [])
            if isinstance(key, ast.Name)
        }
        for name in sorted(dispatched - handled):
            self.diagnostics.append(
                Diagnostic(
                    rule="W004",
                    file=dispatch_module.source.relpath,
                    line=dispatch_value.lineno,
                    message=(
                        f"{name} is wire-dispatchable but has no entry in "
                        f"EngineService._HANDLERS"
                    ),
                    hint="add a handler method and a _HANDLERS entry",
                    subject=name,
                )
            )
        for name in sorted(handled - dispatched):
            self.diagnostics.append(
                Diagnostic(
                    rule="W004",
                    file=handlers_module.source.relpath,
                    line=handlers_line,
                    message=(
                        f"{name} has a _HANDLERS entry but is not "
                        f"reachable from the wire dispatch table"
                    ),
                    hint="register the request type in _REQUEST_TYPES",
                    subject=name,
                )
            )

    # ------------------------------------------- W005/W006: error contract
    def _error_code_table(self):
        """(module, ERROR_CODES value node) or (None, None)."""
        for module in self.modules:
            value = self._top_level_assign(module, "ERROR_CODES")
            if value is not None:
                return module, value
        return None, None

    def _check_exception_coverage(self) -> None:
        table_module, table = self._error_code_table()
        if table is None:
            return
        mapped = {
            node.id
            for node in ast.walk(table)
            if isinstance(node, ast.Name)
        }
        exc_module = None
        for module in self.modules:
            if module.source.path.name == "exceptions.py":
                exc_module = module
                break
        if exc_module is None:
            return
        bases = {
            name: [
                b.id for b in cls.bases if isinstance(b, ast.Name)
            ]
            for name, cls in exc_module.classes.items()
        }

        def covered(name: str, seen: "set[str]") -> bool:
            if name in seen:
                return False
            seen.add(name)
            if name in mapped or name == "ApiError":
                return True  # ApiError carries its own wire code
            return any(covered(base, seen) for base in bases.get(name, []))

        for name, cls in exc_module.classes.items():
            if not covered(name, set()):
                self.diagnostics.append(
                    Diagnostic(
                        rule="W005",
                        file=exc_module.source.relpath,
                        line=cls.lineno,
                        message=(
                            f"exception {name} maps to no stable wire "
                            f"error code (clients would see 'internal')"
                        ),
                        hint=(
                            "add an (ExceptionClass, code) row to "
                            "envelopes.ERROR_CODES"
                        ),
                        subject=name,
                    )
                )

    def _produced_error_codes(self) -> "set[str]":
        produced: "set[str]" = set()
        _table_module, table = self._error_code_table()
        if table is not None:
            produced.update(
                node.value
                for node in ast.walk(table)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
            )
        # The position of a parameter literally named `code` in every
        # module-level function, so `_error_body("not_found", ...)`
        # counts as producing the code even positionally.
        code_positions: "dict[str, int]" = {}
        for module in self.modules:
            for name, func in module.functions.items():
                for i, arg in enumerate(func.args.args):
                    if arg.arg == "code":
                        code_positions[name.rsplit(".", 1)[-1]] = i
        for module in self.modules:
            for node in ast.walk(module.source.tree):
                if not isinstance(node, ast.Call):
                    continue
                for kw in node.keywords:
                    if kw.arg == "code":
                        code = _const_str(kw.value)
                        if code:
                            produced.add(code)
                callee = None
                if isinstance(node.func, ast.Name):
                    callee = node.func.id
                elif isinstance(node.func, ast.Attribute):
                    callee = node.func.attr
                index = code_positions.get(callee)
                if index is not None and index < len(node.args):
                    code = _const_str(node.args[index])
                    if code:
                        produced.add(code)
            func = module.functions.get("error_code_for")
            if func is not None:
                for node in ast.walk(func):
                    if isinstance(node, ast.Return) and node.value is not None:
                        code = _const_str(node.value)
                        if code:
                            produced.add(code)
        return produced

    def _check_status_table(self) -> None:
        table = None
        module = None
        for candidate in self.modules:
            value = self._top_level_assign(candidate, "HTTP_STATUS")
            if value is not None:
                table, module = value, candidate
                break
        if table is None or not isinstance(table, ast.Dict):
            return
        produced = self._produced_error_codes()
        for key_node in table.keys:
            code = _const_str(key_node)
            if code is None or code in produced:
                continue
            self.diagnostics.append(
                Diagnostic(
                    rule="W006",
                    file=module.source.relpath,
                    line=key_node.lineno,
                    message=(
                        f"HTTP_STATUS maps error code {code!r} that "
                        f"nothing in the codebase produces"
                    ),
                    hint="drop the dead row or produce the code",
                    subject=code,
                )
            )

    def analyze(self) -> "list[Diagnostic]":
        self._check_handler_drift()
        self._check_exception_coverage()
        self._check_status_table()
        return self.diagnostics


def analyze_wire(sources: "dict[str, SourceFile]") -> "list[Diagnostic]":
    """Run the wire-universe analysis over parsed sources."""
    return WireAnalyzer(sources).analyze()
