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
