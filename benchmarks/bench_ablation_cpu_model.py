"""Ablation A5 — CPU scheduling model of the server substrate.

DESIGN.md models each 2-core VM as a processor-sharing CPU (the OS
time-slices the Apache workers).  This ablation reruns the heavy-load
comparison with the run-to-completion (FIFO) model instead, to show that
the paper's qualitative conclusion — SR4 beats RR — does not depend on
that substrate choice, even though absolute response times differ.
"""

from __future__ import annotations

import dataclasses

from benchmarks.conftest import scale_jobs, scale_queries, run_once, write_output
from repro.experiments.config import (
    HIGH_LOAD_FACTOR,
    PoissonSweepConfig,
    TestbedConfig,
    rr_policy,
    sr_policy,
)
from repro.experiments.scenario import run_scenario
from repro.metrics.reporting import format_table


def bench_ablation_cpu_model(benchmark):
    queries = scale_queries()

    def run_all():
        results = {}
        for cpu_model in ("processor-sharing", "fifo"):
            config = PoissonSweepConfig(
                testbed=dataclasses.replace(TestbedConfig(), cpu_model=cpu_model),
                load_factors=(HIGH_LOAD_FACTOR,),
                num_queries=queries,
                policies=(rr_policy(), sr_policy(4)),
            )
            sweep = run_scenario("poisson", config, jobs=scale_jobs())
            for name in sweep.policies():
                results[(cpu_model, name)] = sweep.run(name, HIGH_LOAD_FACTOR)
        return results

    runs = run_once(benchmark, run_all)

    rows = [
        [cpu_model, policy, run.mean_response_time, run.collector.summary().p90]
        for (cpu_model, policy), run in runs.items()
    ]
    table = format_table(
        ["CPU model", "policy", "mean response (s)", "p90 (s)"],
        rows,
        title="Ablation A5: server CPU scheduling model at rho=0.88",
    )
    write_output("ablation_cpu_model", table)

    # Shape check: SR4 beats RR under both CPU models.
    for cpu_model in ("processor-sharing", "fifo"):
        assert (
            runs[(cpu_model, "SR4")].mean_response_time
            < runs[(cpu_model, "RR")].mean_response_time
        )
