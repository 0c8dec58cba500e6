"""Figure 2 — mean response time vs normalized request rate ρ.

Paper: "Average page load time for the Poisson workload as a function of
the normalized request rate ρ: RR vs different SRc policies (4, 8, 16,
and dynamic)."  The paper's headline numbers: SR4 is up to 2.3× better
than RR at ρ = 0.88, SR8/SR16 also beat RR but by less, and SRdyn tracks
the best static policy.

The benchmark sweeps a reduced set of load factors (always including the
paper's highlighted ρ = 0.88) with every policy of the paper's suite and
prints the mean response time per (ρ, policy), plus the SR4-vs-RR
improvement factor at the heaviest point.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import (
    run_once,
    scale_jobs,
    scale_queries,
    scale_rho_points,
    write_output,
)
from repro.experiments import figures
from repro.experiments.config import PoissonSweepConfig, paper_policy_suite
from repro.experiments.scenario import run_scenario
from repro.metrics.reporting import format_comparison


def _load_factors(points: int) -> tuple:
    """Evenly spaced load factors ending at the paper's ρ = 0.88."""
    return tuple(round(float(value), 3) for value in np.linspace(0.3, 0.88, points))


def bench_figure2_mean_response_time(benchmark):
    config = PoissonSweepConfig(
        load_factors=_load_factors(scale_rho_points()),
        num_queries=scale_queries(),
        policies=tuple(paper_policy_suite()),
    )

    # REPRO_BENCH_JOBS > 1 exercises the multiprocessing runner; the
    # sweep's results are identical in both modes, only wall-clock moves.
    sweep_result = run_once(
        benchmark, lambda: run_scenario("poisson", config, jobs=scale_jobs())
    )

    table = figures.render_figure2(sweep_result)
    heavy = max(config.load_factors)
    comparison = format_comparison(
        f"mean response time (s) at rho={heavy}",
        "RR",
        sweep_result.run(("RR", heavy)).mean_response_time,
        {
            name: sweep_result.run((name, heavy)).mean_response_time
            for name in ("SR4", "SR8", "SR16", "SRdyn")
        },
    )
    write_output("figure2_mean_response", table + "\n\n" + comparison)

    # Reproduction checks (shape, not absolute values): every SR policy
    # beats RR at the heaviest load, and SR4 wins by a clear margin.
    rr_heavy = sweep_result.run(("RR", heavy)).mean_response_time
    sr4_heavy = sweep_result.run(("SR4", heavy)).mean_response_time
    assert sr4_heavy < rr_heavy
    assert sweep_result.run(("SR8", heavy)).mean_response_time < rr_heavy
    assert rr_heavy / sr4_heavy > 1.3
