"""Package names resolved on first use (PEP 562).

A package ``__init__`` maps each exported name to the submodule that
defines it and imports nothing, so a process loads only the modules it
touches: a shard worker that needs ``repro.core.lfo`` does not pay for
the policy zoo or the serving loop.  ::

    __getattr__, __dir__, __all__ = _lazy.exports(__name__, {
        "lfo": ("LFOCache", "LFOModel"),
        "online": ("LFOOnline",),
    })

``repro.core.LFOCache`` then imports ``repro.core.lfo`` on first access
and caches the class in the package dict, so later lookups never reach
``__getattr__``.  A name outside the table that is a submodule resolves
to the submodule; any other raises :class:`AttributeError`.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable

__all__ = ["exports"]


def exports(
    package: str, table: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``__getattr__``, ``__dir__`` and ``__all__`` for ``package``, whose
    ``table`` lists, per submodule (relative to ``package``), the names
    it exports."""
    origin = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(f"{package}.{module}"), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):  # dunder probes are never submodules
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, list(origin)
