"""Heterogeneous-fleet scenario — SR fairness across speed tiers.

Beyond the paper: the fleet mixes fast and slow CPU tiers and the
benchmark reports, per policy, response times plus each tier's share of
accepted queries relative to the capacity it brings (1.0 = perfectly
capacity-proportional) and Jain's fairness index over per-capacity
acceptance.  Expectation: RR, blind to server state, feeds both tiers
uniformly and overloads the slow one; Service Hunting's busy-thread
refusals push the excess toward the fast tier, landing closer to
capacity-proportional and with lower response times.

Scale knobs: ``REPRO_BENCH_QUERIES`` (queries per run) and
``REPRO_BENCH_JOBS`` (worker processes) as for the other benchmarks.
"""

from __future__ import annotations

from dataclasses import replace

from benchmarks.conftest import run_once, scale_jobs, scale_queries, write_output
from repro.experiments import registry
from repro.experiments.config import HeterogeneousFleetConfig
from repro.experiments.heterogeneous_experiment import capacity_fairness_index
from repro.experiments.scenario import run_scenario


def bench_heterogeneous_fleet_fairness(benchmark):
    config = replace(HeterogeneousFleetConfig(), num_queries=scale_queries())

    result = run_once(
        benchmark, lambda: run_scenario("heterogeneous-fleet", config, jobs=scale_jobs())
    )

    write_output(
        "heterogeneous_fleet_fairness",
        registry.get("heterogeneous-fleet").render(result),
    )

    # Reproduction checks (shape, not absolute values): Service Hunting
    # both spreads per-capacity load more fairly than RR and serves the
    # mixed fleet faster.
    (rho,) = config.load_factors
    rr = result.run(("RR", rho))
    sr4 = result.run(("SR4", rho))
    assert capacity_fairness_index(config, sr4.acceptance_counts) > (
        capacity_fairness_index(config, rr.acceptance_counts)
    )
    assert sr4.mean_response_time < rr.mean_response_time
