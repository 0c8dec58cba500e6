"""Package exports that load on first use (PEP 562).

A package ``__init__`` declares what it exports as one table, submodule
→ names, and binds what :func:`exports` returns::

    __getattr__, __dir__, __all__ = exports(__name__, {
        "engine": ("Simulator", "PeriodicTask"),
        "clock": ("SimulationClock",),
    })

Importing the package then imports none of its submodules.  The first
``package.Simulator`` (or ``from package import Simulator``) imports
``package.engine`` and caches the object on the package, so later lookups
are plain attribute reads.  A name the table does not list resolves as a
submodule, so ``import repro.core; repro.core.lb_tier`` keeps working.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Sequence, Tuple


def exports(
    package: str,
    table: Mapping[str, Sequence[str]],
    submodules: Sequence[str] = (),
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` of ``package`` from its export table.

    ``table`` maps a submodule (relative to ``package``) to the names it
    defines that the package re-exports; ``submodules`` are exported as
    modules themselves (``from repro import core``).
    """
    module = sys.modules[package]
    owner = {name: f"{package}.{source}" for source, names in table.items() for name in names}
    public = [*owner, *submodules]

    def __getattr__(name: str) -> Any:
        if name in owner:
            value = getattr(importlib.import_module(owner[name]), name)
        elif name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise  # the submodule exists; something it imports does not
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(module, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(module), *public})

    return __getattr__, __dir__, public
