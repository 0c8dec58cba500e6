#!/usr/bin/env python3
"""Quickstart: run SRLB against a small cluster and compare it with RR.

This is the smallest end-to-end use of the library's public API:

1. describe the testbed (here: 6 servers with 16 Apache workers each),
2. pick the load-balancing configurations to compare,
3. replay the same Poisson workload under each configuration — one
   ``run_scenario("poisson", ...)`` call runs every (policy, load) cell,
4. print response-time statistics.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.experiments.calibration import analytic_saturation_rate
from repro.experiments.config import (
    PoissonSweepConfig,
    TestbedConfig,
    rr_policy,
    sr_policy,
    srdyn_policy,
)
from repro.experiments.scenario import run_scenario
from repro.metrics.reporting import format_table


def main() -> None:
    # A small cluster: 6 servers, 2 cores and 16 workers each.
    testbed = TestbedConfig(num_servers=6, workers_per_server=16, cores_per_server=2)

    # The cluster's saturation rate λ₀ for the 100 ms CPU-bound workload,
    # used to express load as the paper's normalized request rate ρ.
    saturation = analytic_saturation_rate(testbed, service_mean=0.1)
    print(f"analytic saturation rate λ₀ ≈ {saturation:.0f} queries/s")

    load_factor = 0.85
    num_queries = 4_000
    policies = [rr_policy(), sr_policy(4), srdyn_policy()]

    config = PoissonSweepConfig(
        testbed=testbed,
        load_factors=(load_factor,),
        num_queries=num_queries,
        service_mean=0.1,
        policies=tuple(policies),
    )
    sweep = run_scenario("poisson", config)

    rows = []
    for spec in policies:
        result = sweep.run((spec.name, load_factor))
        summary = result.collector.summary()
        rows.append(
            [
                spec.name,
                summary.mean,
                summary.median,
                summary.p90,
                result.counters["server.connections_reset"],
            ]
        )

    print()
    print(
        format_table(
            ["policy", "mean (s)", "median (s)", "p90 (s)", "resets"],
            rows,
            title=(
                f"Poisson workload, ρ = {load_factor}, {num_queries} queries, "
                f"{testbed.num_servers} servers"
            ),
        )
    )

    rr_mean = rows[0][1]
    sr4_mean = rows[1][1]
    print(
        f"\nSR4 mean response time is {rr_mean / sr4_mean:.2f}x better than RR "
        f"at ρ = {load_factor} (the paper reports up to 2.3x at ρ = 0.88 on "
        "its 12-server testbed)."
    )


if __name__ == "__main__":
    main()
