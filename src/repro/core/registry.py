"""One named registry: the lookup behind every ``@register_*`` decorator.

Compilers, execution backends, workloads and study components are each
addressed by a short name.  A :class:`Registry` holds the entries of one
kind, refuses a second entry under a taken name, and imports the modules
that register the built-ins on the first lookup, so importing a registry
module stays cheap.
"""

from __future__ import annotations

import importlib
from typing import Dict, Generic, List, Sequence, TypeVar

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(Generic[T]):
    """Entries of one ``kind`` by name; ``builtins`` load on first lookup."""

    def __init__(self, kind: str, builtins: Sequence[str] = ()) -> None:
        self.kind = kind
        #: Modules whose import registers the built-in entries.
        self.builtins = tuple(builtins)
        self._entries: Dict[str, T] = {}
        self._loaded = not self.builtins

    def add(self, name: str, entry: T) -> T:
        """Register ``entry`` under ``name``; a taken name is refused."""
        if name in self._entries:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._entries[name] = entry
        return entry

    def _load_builtins(self) -> None:
        # The flag is set only once every import has returned: a failed
        # import is retried on the next lookup instead of leaving a silently
        # partial registry behind.
        if not self._loaded:
            for module in self.builtins:
                importlib.import_module(module)
            self._loaded = True

    def names(self) -> List[str]:
        """Sorted names of every registered entry."""
        self._load_builtins()
        return sorted(self._entries)

    def get(self, name: str) -> T:
        """The entry registered under ``name``."""
        self._load_builtins()
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {name!r}; available: {', '.join(sorted(self._entries))}"
            ) from None

    def values(self) -> List[T]:
        """Every registered entry, in name order."""
        return [self._entries[name] for name in self.names()]
