"""Experiment harness: the paper's evaluation, end to end.

Builds the simulated testbed (one load balancer, twelve 2-core Apache
servers, one traffic generator on a shared LAN), calibrates the
saturation rate λ₀, and runs the Poisson sweep (Figures 2–5) and the
Wikipedia replay (Figures 6–8) under each load-balancing configuration.
The :mod:`repro.experiments.figures` module extracts and renders the
exact series each figure plots.

Every experiment family is a declarative
:class:`~repro.experiments.scenario.ScenarioSpec` registered in
:mod:`repro.experiments.registry`, and
:func:`~repro.experiments.scenario.run_scenario` is the only way to run
one — and the single home of ``jobs=`` dispatch (cells go to the worker
processes of :mod:`repro.sim.partition`).  A one-cell Poisson run is
``run_scenario("poisson", PoissonSweepConfig(load_factors=(rho,),
policies=(policy,), ...)).run((policy.name, rho))``.
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
            "RunResult",
            "ScenarioCell",
            "ScenarioResult",
            "ScenarioSpec",
            "ScenarioTask",
            "resolve_jobs",
            "run_scenario",
        ),
        "platform": ("Testbed", "build_testbed"),
        "poisson_experiment": ("PoissonRunResult",),
        "resilience_experiment": (
            "ResilienceRunResult",
            "render_resilience_table",
            "resilience_saturation_rate",
        ),
        "wikipedia_experiment": ("WikipediaRunResult", "make_wikipedia_trace"),
        "flash_crowd_experiment": ("render_flash_crowd",),
        "heterogeneous_experiment": (
            "render_heterogeneous_fleet",
            "tier_acceptance_shares",
        ),
    },
    ("registry", "figures"),
)
