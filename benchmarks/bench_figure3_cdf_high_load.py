"""Figure 3 — CDF of page load time at ρ = 0.88 (heavy load).

Paper: "CDF of page load time over 20000 queries for the Poisson
workload: RR vs different SRc policies, ρ = 0.88."  RR shows a dispersed
distribution; the SRc policies yield lower and less dispersed response
times.
"""

from __future__ import annotations

from benchmarks.conftest import scale_jobs, scale_queries, run_once, write_output
from repro.experiments import figures
from repro.experiments.config import HIGH_LOAD_FACTOR, PoissonSweepConfig, paper_policy_suite
from repro.experiments.scenario import run_scenario
from repro.metrics.stats import percentile


def bench_figure3_cdf_heavy_load(benchmark):
    config = PoissonSweepConfig(
        load_factors=(HIGH_LOAD_FACTOR,),
        num_queries=scale_queries(),
        policies=tuple(paper_policy_suite()),
    )

    def run_all():
        sweep = run_scenario("poisson", config, jobs=scale_jobs())
        return {name: sweep.run(name, HIGH_LOAD_FACTOR) for name in sweep.policies()}

    runs = run_once(benchmark, run_all)

    table = figures.render_figure_cdf(
        runs, title=f"Figure 3: CDF of page load time, rho={HIGH_LOAD_FACTOR}"
    )
    write_output("figure3_cdf_high_load", table)

    # Shape checks: the SR4 distribution is stochastically smaller than
    # RR's at heavy load — its median and 90th percentile are lower.
    rr_times = runs["RR"].response_times()
    sr4_times = runs["SR4"].response_times()
    assert percentile(sr4_times, 50) < percentile(rr_times, 50)
    assert percentile(sr4_times, 90) < percentile(rr_times, 90)
