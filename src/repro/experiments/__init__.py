"""Experiment harness: the paper's evaluation, end to end.

Builds the simulated testbed (one load balancer, twelve 2-core Apache
servers, one traffic generator on a shared LAN), calibrates the
saturation rate λ₀, and runs the Poisson sweep (Figures 2–5) and the
Wikipedia replay (Figures 6–8) under each load-balancing configuration.
The :mod:`repro.experiments.figures` module extracts and renders the
exact series each figure plots.

Every experiment family is a declarative
:class:`~repro.experiments.scenario.ScenarioSpec` registered in
:mod:`repro.experiments.registry`; :func:`~repro.experiments.scenario.run_scenario`
is the single driver and the single home of ``jobs=`` dispatch (cells go
to the worker processes of :mod:`repro.sim.partition`).  On top of the
paper's three families, the harness ships the ``flash-crowd`` and
``heterogeneous-fleet`` scenarios.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "calibration": (
            "CalibrationProbe",
            "CalibrationResult",
            "analytic_saturation_rate",
            "find_empirical_saturation_rate",
        ),
        "config": (
            "HIGH_LOAD_FACTOR",
            "LIGHT_LOAD_FACTOR",
            "PAPER_LOAD_FACTORS",
            "ChurnEvent",
            "FlashCrowdConfig",
            "HeterogeneousFleetConfig",
            "PoissonSweepConfig",
            "PolicySpec",
            "ResilienceConfig",
            "TestbedConfig",
            "WikipediaReplayConfig",
            "paper_policy_suite",
            "rr_policy",
            "sr_policy",
            "srdyn_policy",
        ),
        "scenario": (
            "ScenarioCell",
            "ScenarioResult",
            "ScenarioSpec",
            "ScenarioTask",
            "resolve_jobs",
            "run_scenario",
        ),
        "platform": ("Testbed", "build_testbed"),
        "poisson_experiment": (
            "PoissonRunResult",
            "PoissonSweep",
            "PoissonSweepResult",
            "make_poisson_trace",
            "run_poisson_once",
        ),
        "resilience_experiment": (
            "ResilienceRunResult",
            "make_resilience_trace",
            "render_resilience_table",
            "resilience_saturation_rate",
            "run_resilience_comparison",
            "run_resilience_once",
        ),
        "wikipedia_experiment": (
            "WikipediaReplay",
            "WikipediaReplayResult",
            "WikipediaRunResult",
            "make_wikipedia_trace",
        ),
        "flash_crowd_experiment": (
            "FlashCrowdRunResult",
            "make_flash_crowd_trace",
            "render_flash_crowd",
            "run_flash_crowd",
        ),
        "heterogeneous_experiment": (
            "make_heterogeneous_trace",
            "render_heterogeneous_fleet",
            "run_heterogeneous_fleet",
            "tier_acceptance_shares",
        ),
    },
    ("registry", "figures"),
)
