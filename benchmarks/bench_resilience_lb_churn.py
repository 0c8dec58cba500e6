"""Resilience benchmark — broken flows under load-balancer churn.

Not a figure of the paper: this benchmark quantifies the §II-B
resiliency *claim* — that flow-stable candidate selection lets SRLB
instances be killed and added at will behind an ECMP edge without
breaking in-flight flows, while random selection leaves the victim's
flows unrecoverable.  One instance of a four-LB tier is killed halfway
through the run and another is added at three quarters, under each
selection scheme, over the same workload.
"""

from __future__ import annotations

from benchmarks.conftest import run_once, scale_queries, write_output
from repro.experiments.config import ChurnEvent, ResilienceConfig, TestbedConfig
from repro.experiments.resilience_experiment import render_resilience_table
from repro.experiments.scenario import run_scenario


def bench_resilience_lb_churn(benchmark):
    config = ResilienceConfig(
        testbed=TestbedConfig(
            num_load_balancers=4,
            request_spread=2.0,
            request_chunks=5,
            # Free workers pinned by churn-broken flows, as the
            # ResilienceConfig default testbed does.
            request_timeout=5.0,
        ),
        num_queries=scale_queries(),
        churn=(
            ChurnEvent(at_fraction=0.5, action="kill"),
            ChurnEvent(at_fraction=0.75, action="add"),
        ),
    )

    comparison = run_once(benchmark, lambda: run_scenario("resilience", config))

    table = render_resilience_table(comparison)
    write_output("resilience_lb_churn", table)

    consistent = comparison.run("consistent-hash")
    random_run = comparison.run("random")
    # Shape checks, mirroring the paper's claim: with consistent hashing
    # the tier absorbs the churn (< 5% of in-flight flows break), while
    # random selection loses a macroscopic fraction of the victim's
    # flows.  The kill exposes ~1/4 of in-flight flows, so the random
    # scheme should break measurably more than the consistent one.
    assert consistent.broken_fraction < 0.05
    assert random_run.broken_fraction > consistent.broken_fraction
    assert consistent.counters["lb.recovery_hunts"] > 0
    for run in (random_run, consistent):
        assert run.counters["client.queries_swept"] == 0
