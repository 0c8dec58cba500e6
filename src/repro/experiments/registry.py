"""Scenario registry: the single catalogue of experiment families.

Every :class:`~repro.experiments.scenario.ScenarioSpec` registers itself
here at import time; the CLI, the figure renderers, and the scenario
driver all iterate this registry instead of hard-coding the families.
Adding a workload family is therefore: write a spec module, call
:func:`register` at its bottom, add it to :data:`_BUILTIN_MODULES` (or
import it yourself) — the sub-command table, ``srlb-repro scenarios``
listing, and figure smoke tests pick it up automatically.

Built-in family modules are imported lazily on first lookup, so
``registry.get`` works inside worker processes regardless of the
multiprocessing start method (a spawned worker has not imported the
family modules yet when it unpickles its first task).
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Dict, List

from repro.errors import ExperimentError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.scenario import ScenarioSpec

#: Modules whose import registers the built-in scenario families.
_BUILTIN_MODULES = (
    "repro.experiments.poisson_experiment",
    "repro.experiments.wikipedia_experiment",
    "repro.experiments.resilience_experiment",
    "repro.experiments.flash_crowd_experiment",
    "repro.experiments.heterogeneous_experiment",
    "repro.experiments.autoscale_experiment",
    "repro.experiments.heavy_tail_experiment",
    "repro.experiments.adversarial_experiment",
    "repro.experiments.scale_experiment",
    "repro.experiments.chaos_experiment",
)

_SCENARIOS: Dict[str, "ScenarioSpec"] = {}
_builtins_loaded = False


def register(spec: "ScenarioSpec") -> "ScenarioSpec":
    """Register a scenario spec under its ``name``; returns the spec.

    Re-registering the *same* spec object is a no-op (modules may be
    imported through several paths); a different spec under a taken name
    is rejected loudly.
    """
    if not spec.name:
        raise ExperimentError(f"scenario spec {spec!r} needs a non-empty name")
    existing = _SCENARIOS.get(spec.name)
    if existing is not None and existing is not spec:
        raise ExperimentError(
            f"scenario name {spec.name!r} is already registered by {existing!r}"
        )
    _SCENARIOS[spec.name] = spec
    return spec


def _ensure_builtins_loaded() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    # Flag success only after every family imported: a failed import is
    # retried (and re-raises its real cause) on the next lookup instead
    # of leaving later callers with a misleading partial registry.
    _builtins_loaded = True


def get(name: str) -> "ScenarioSpec":
    """The registered spec called ``name`` (loud when unknown)."""
    _ensure_builtins_loaded()
    try:
        return _SCENARIOS[name]
    except KeyError as exc:
        known = ", ".join(sorted(_SCENARIOS)) or "none"
        raise ExperimentError(
            f"unknown scenario {name!r}: registered scenarios are {known}"
        ) from exc


def names() -> List[str]:
    """Registered scenario names, in registration order."""
    _ensure_builtins_loaded()
    return list(_SCENARIOS)


def specs() -> List["ScenarioSpec"]:
    """Registered specs, in registration order."""
    _ensure_builtins_loaded()
    return list(_SCENARIOS.values())
