"""Figure 4 — instantaneous server load (mean and fairness), RR vs SR4.

Paper: "Instantaneous server load for a run of 20000 queries of the
Poisson workload (mean and fairness over the 12 servers): RR vs SR4
policy, ρ = 0.88", smoothed with an EWMA filter of parameter
α = 1 − exp(−δt).  SR4 keeps the fairness index closer to 1 and the
servers individually less loaded.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import scale_jobs, scale_queries, run_once, write_output
from repro.experiments import figures
from repro.experiments.config import (
    HIGH_LOAD_FACTOR,
    PoissonSweepConfig,
    TestbedConfig,
    rr_policy,
    sr_policy,
)
from repro.experiments.scenario import run_scenario


def bench_figure4_load_and_fairness(benchmark):
    config = PoissonSweepConfig(
        testbed=TestbedConfig(sample_load=True),
        load_factors=(HIGH_LOAD_FACTOR,),
        num_queries=scale_queries(),
        policies=(rr_policy(), sr_policy(4)),
    )

    def run_both():
        sweep = run_scenario("poisson", config, jobs=scale_jobs())
        return {name: sweep.run((name, rho)) for name, rho in sweep.keys()}

    runs = run_once(benchmark, run_both)

    table = figures.render_figure4(runs, num_rows=24)
    series = figures.figure4_series(runs)
    rr_fairness = np.nanmean([value for _, value in series["RR"].fairness])
    sr4_fairness = np.nanmean([value for _, value in series["SR4"].fairness])
    rr_load = np.nanmean([value for _, value in series["RR"].mean_load])
    sr4_load = np.nanmean([value for _, value in series["SR4"].mean_load])
    summary = (
        f"time-averaged fairness index: RR={rr_fairness:.3f}, SR4={sr4_fairness:.3f}\n"
        f"time-averaged mean busy threads: RR={rr_load:.2f}, SR4={sr4_load:.2f}"
    )
    write_output("figure4_load_fairness", table + "\n\n" + summary)

    # Shape checks: SR4 spreads the load better (higher fairness) and
    # keeps servers less backed up (lower mean busy-thread count).
    assert sr4_fairness > rr_fairness
    assert sr4_load < rr_load
