"""Figure 5 — CDF of page load time at ρ = 0.61 (light load).

Paper: "CDF of page load time over 20000 queries for the Poisson
workload: RR vs different SRc policies, ρ = 0.61."  At this lighter load
SR16 yields no improvement over RR and SR8 only a small one, while SR4
still provides a substantial improvement and SRdyn matches it.
"""

from __future__ import annotations

from benchmarks.conftest import scale_jobs, scale_queries, run_once, write_output
from repro.experiments import figures
from repro.experiments.config import LIGHT_LOAD_FACTOR, PoissonSweepConfig, paper_policy_suite
from repro.experiments.scenario import run_scenario
from repro.metrics.stats import percentile


def bench_figure5_cdf_light_load(benchmark):
    config = PoissonSweepConfig(
        load_factors=(LIGHT_LOAD_FACTOR,),
        num_queries=scale_queries(),
        policies=tuple(paper_policy_suite()),
    )

    def run_all():
        sweep = run_scenario("poisson", config, jobs=scale_jobs())
        return {name: sweep.run(name, LIGHT_LOAD_FACTOR) for name in sweep.policies()}

    runs = run_once(benchmark, run_all)

    table = figures.render_figure_cdf(
        runs, title=f"Figure 5: CDF of page load time, rho={LIGHT_LOAD_FACTOR}"
    )
    write_output("figure5_cdf_light_load", table)

    # Shape checks: SR16 is essentially RR at light load (within 15 % on
    # the median); SR4 is no worse than RR.
    rr_median = percentile(runs["RR"].response_times(), 50)
    sr16_median = percentile(runs["SR16"].response_times(), 50)
    sr4_median = percentile(runs["SR4"].response_times(), 50)
    assert abs(sr16_median - rr_median) / rr_median < 0.15
    assert sr4_median <= rr_median * 1.05
