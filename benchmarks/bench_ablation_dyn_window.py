"""Ablation A2 — SRdyn window size and watermarks.

Algorithm 2 adapts the threshold every 50 optional decisions, moving it
when the window acceptance ratio leaves the [0.4, 0.6] band.  This
ablation varies the window size (and, implicitly, how quickly the policy
can react) at heavy load, to show that the paper's default is not a
knife-edge choice: a wide range of windows tracks the best static
policy.
"""

from __future__ import annotations

import dataclasses

from benchmarks.conftest import scale_jobs, scale_queries, run_once, write_output
from repro.core.policies import DynamicThresholdPolicy, register_policy
from repro.experiments.config import (
    HIGH_LOAD_FACTOR,
    PoissonSweepConfig,
    PolicySpec,
    sr_policy,
)
from repro.experiments.scenario import run_scenario
from repro.metrics.reporting import format_table

WINDOW_SIZES = (10, 25, 50, 100, 200)


def _register_window_policies():
    for window in WINDOW_SIZES:
        register_policy(
            f"SRdyn-w{window}",
            lambda window=window: DynamicThresholdPolicy(window_size=window),
        )


def bench_ablation_dynamic_window(benchmark):
    _register_window_policies()
    static = dataclasses.replace(sr_policy(4), name="SR4 (static reference)")
    windows = tuple(
        PolicySpec(
            name=f"SRdyn w={window}",
            acceptance_policy=f"SRdyn-w{window}",
            num_candidates=2,
        )
        for window in WINDOW_SIZES
    )
    config = PoissonSweepConfig(
        load_factors=(HIGH_LOAD_FACTOR,),
        num_queries=scale_queries(),
        policies=(static,) + windows,
    )

    def run_all():
        sweep = run_scenario("poisson", config, jobs=scale_jobs())
        return {name: sweep.run(name, HIGH_LOAD_FACTOR) for name in sweep.policies()}

    runs = run_once(benchmark, run_all)

    reference = runs["SR4 (static reference)"].mean_response_time
    rows = [
        [name, run.mean_response_time, run.mean_response_time / reference]
        for name, run in runs.items()
    ]
    table = format_table(
        ["policy", "mean response (s)", "vs best static"],
        rows,
        title="Ablation A2: SRdyn window size at rho=0.88",
    )
    write_output("ablation_dyn_window", table)

    # Shape check: every window in the sweep stays within 2x of the best
    # static policy (SRdyn is robust to the window-size choice).
    for window in WINDOW_SIZES:
        assert runs[f"SRdyn w={window}"].mean_response_time < 2.0 * reference
