"""One name → entry catalog with a typed unknown-name error.

The planner and ADPaR solver backends (:mod:`repro.engine.registry`,
:mod:`repro.engine.solvers`), the scenario families
(:mod:`repro.workloads.registry`) and the dimension-value distributions
(:mod:`repro.workloads.generators`) are each a :class:`Registry`.
"""

from __future__ import annotations


class Registry:
    """Stable names mapped to registered entries, each with a description.

    A subclass sets :attr:`kind`, the noun its messages use, and
    :attr:`error`, the exception :meth:`get` raises for an unknown name
    (and so the wire code that name answers).  Equality is identity: the
    engine cache keys solvers and ADPaR answers by the registry object,
    so two registries binding one name to different entries never share
    an entry.
    """

    kind = "entry"
    error: "type[Exception]" = KeyError

    def __init__(self):
        self._entries: "dict[str, tuple[object, str]]" = {}

    def register(
        self,
        name: str,
        entry,
        description: str = "",
        replace: bool = False,
    ) -> None:
        """Register ``entry`` under ``name``; re-registering needs ``replace``."""
        if not name:
            raise ValueError(f"{self.kind} name must be non-empty")
        if name in self._entries and not replace:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._entries[name] = (entry, description)

    def names(self) -> "list[str]":
        """Registered names, sorted."""
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def get(self, name: str):
        """The entry registered under ``name``."""
        return self._registered(name)[0]

    def describe(self, name: str) -> str:
        """The description ``name`` was registered with."""
        return self._registered(name)[1]

    def _registered(self, name: str) -> "tuple[object, str]":
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self.names()) or "<none>"
            raise self.error(
                f"unknown {self.kind} {name!r}; registered: {known}"
            ) from None
