"""Scenario registry: the single catalogue of experiment families.

The catalogue is a table with one :class:`Family` row per family: its
name, title and config class, whether one run of it splits over
partition processes, and the module that defines its
:class:`~repro.experiments.scenario.ScenarioSpec`.  The CLI, the figure
renderers and :func:`~repro.experiments.scenario.run_scenario` all read this table instead of
hard-coding the families.

Reading rows imports no family module: :func:`names` and
:func:`families` are all that ``build_parser``, ``srlb-repro --help``
and the ``srlb-repro scenarios`` table need (the flags come from the
config class).  :func:`get` imports the one module that defines the
family it is asked for, the first time it is asked, and that module's
:func:`register` call hands the spec to its row; :func:`specs` imports
every family.  Because :func:`get` imports on demand, it works inside a
worker process under any multiprocessing start method (a spawned worker
has imported no family when it unpickles its first task).

Adding a built-in family is one row in :data:`_SCENARIOS` plus a spec
module that calls :func:`register` at its bottom; a spec defined
anywhere else calls :func:`register` itself, which adds its row.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import ExperimentError
from repro.experiments.config import (
    AdversarialConfig,
    AutoscaleConfig,
    ChaosConfig,
    FlashCrowdConfig,
    HeavyTailConfig,
    HeterogeneousFleetConfig,
    PoissonSweepConfig,
    ResilienceConfig,
    ScaleConfig,
    WikipediaReplayConfig,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.scenario import ScenarioSpec


@dataclass
class Family:
    """One row of the catalogue: what is known of a family before its import."""

    name: str
    title: str
    #: The family's config dataclass; its defaults are the family's defaults.
    config: type
    #: The module whose import registers the family's spec.
    module: str
    #: One run splits over processes (``--partitions``) instead of fanning
    #: independent cells out (``--jobs``): its ``cells`` take ``partitions``.
    partitioned: bool = False
    #: The registered spec, once :attr:`module` has been imported.
    spec: Optional["ScenarioSpec"] = None


_SCENARIOS: Dict[str, Family] = {
    row.name: row
    for row in (
        Family(
            "poisson",
            "Poisson load-factor sweep across policies (paper §V, Figures 2–5)",
            PoissonSweepConfig,
            "repro.experiments.poisson_experiment",
        ),
        Family(
            "resilience",
            "Broken flows under load-balancer churn, per selection scheme (§II-B)",
            ResilienceConfig,
            "repro.experiments.resilience_experiment",
        ),
        Family(
            "wikipedia",
            "Synthetic Wikipedia-day replay, RR vs SR4 (paper §VI, Figures 6–8)",
            WikipediaReplayConfig,
            "repro.experiments.wikipedia_experiment",
        ),
        Family(
            "flash-crowd",
            "Step/spike arrival schedule: overload absorption per policy",
            FlashCrowdConfig,
            "repro.experiments.flash_crowd_experiment",
        ),
        Family(
            "heterogeneous-fleet",
            "Mixed fast/slow server tiers: SR fairness per unit capacity",
            HeterogeneousFleetConfig,
            "repro.experiments.heterogeneous_experiment",
        ),
        Family(
            "autoscale",
            "Elastic control plane vs static provisioning under diurnal load",
            AutoscaleConfig,
            "repro.experiments.autoscale_experiment",
        ),
        Family(
            "heavy-tail",
            "Heavy-tailed sessions: Pareto/lognormal mix with Zipf user affinity",
            HeavyTailConfig,
            "repro.experiments.heavy_tail_experiment",
        ),
        Family(
            "adversarial",
            "Legitimate-flow service under SYN flood, hash skew and gray failure",
            AdversarialConfig,
            "repro.experiments.adversarial_experiment",
        ),
        Family(
            "scale",
            "Partitioned million-client replay across ECMP pods",
            ScaleConfig,
            "repro.experiments.scale_experiment",
            partitioned=True,
        ),
        Family(
            "chaos",
            "Query recovery under packet loss, link flaps and jitter",
            ChaosConfig,
            "repro.experiments.chaos_experiment",
        ),
    )
}


def register(spec: "ScenarioSpec") -> "ScenarioSpec":
    """Register a scenario spec under its ``name``; returns the spec.

    A built-in family's module hands its spec to the family's row; a
    spec defined anywhere else gets a row of its own, read off the spec.
    Re-registering the *same* spec object is a no-op (modules may be
    imported through several paths); a different spec under a taken name
    — including a built-in name from outside the built-in's module — is
    rejected loudly.
    """
    if not spec.name:
        raise ExperimentError(f"scenario spec {spec!r} needs a non-empty name")
    row = _SCENARIOS.get(spec.name)
    if row is None:
        row = _SCENARIOS[spec.name] = Family(
            spec.name,
            spec.title,
            type(spec.default_config()),
            type(spec).__module__,
            partitioned="partitions" in inspect.signature(spec.cells).parameters,
        )
    elif row.spec is not spec and (
        row.spec is not None or type(spec).__module__ != row.module
    ):
        raise ExperimentError(
            f"scenario name {spec.name!r} is already registered by "
            f"{row.spec or row.module}"
        )
    row.spec = spec
    return spec


def family(name: str) -> Family:
    """The catalogue row called ``name`` (loud when unknown); imports nothing."""
    try:
        return _SCENARIOS[name]
    except KeyError as exc:
        known = ", ".join(sorted(_SCENARIOS)) or "none"
        raise ExperimentError(
            f"unknown scenario {name!r}: registered scenarios are {known}"
        ) from exc


def families() -> List[Family]:
    """Every catalogue row, in catalogue order; imports nothing."""
    return list(_SCENARIOS.values())


def get(name: str) -> "ScenarioSpec":
    """The spec called ``name``, importing its family's module on first use."""
    row = family(name)
    if row.spec is None:
        importlib.import_module(row.module)
        if row.spec is None:
            raise ExperimentError(
                f"module {row.module} does not register scenario {name!r}"
            )
    return row.spec


def names() -> List[str]:
    """Scenario names, in catalogue order; imports nothing."""
    return list(_SCENARIOS)


def specs() -> List["ScenarioSpec"]:
    """Every spec, in catalogue order (imports every family)."""
    return [get(name) for name in list(_SCENARIOS)]
