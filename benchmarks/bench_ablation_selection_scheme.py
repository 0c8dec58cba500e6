"""Ablation A3 — candidate-selection scheme.

The paper chooses two random candidates; §II-B also mentions consistent
hashing as an alternative selection scheme.  This ablation compares
random selection, consistent hashing (Maglev chains) and deterministic
round-robin, all with the SR4 acceptance policy at heavy load.
"""

from __future__ import annotations

from benchmarks.conftest import scale_jobs, scale_queries, run_once, write_output
from repro.experiments.config import HIGH_LOAD_FACTOR, PoissonSweepConfig, PolicySpec
from repro.experiments.scenario import run_scenario
from repro.metrics.reporting import format_table

SCHEMES = (
    ("random", "random-2"),
    ("consistent-hash", "consistent-hash-2"),
    ("round-robin", "round-robin-2"),
)


def bench_ablation_selection_scheme(benchmark):
    schemes = tuple(
        PolicySpec(name=label, acceptance_policy="SR4", num_candidates=2, selector=selector)
        for selector, label in SCHEMES
    )
    # The RR baseline, for context.
    baseline = PolicySpec(name="RR baseline", acceptance_policy="always", num_candidates=1)
    config = PoissonSweepConfig(
        load_factors=(HIGH_LOAD_FACTOR,),
        num_queries=scale_queries(),
        policies=schemes + (baseline,),
    )

    def run_all():
        sweep = run_scenario("poisson", config, jobs=scale_jobs())
        return {name: sweep.run((name, rho)) for name, rho in sweep.keys()}

    runs = run_once(benchmark, run_all)

    rows = [
        [name, run.mean_response_time, run.collector.summary().p90]
        for name, run in runs.items()
    ]
    table = format_table(
        ["selection scheme", "mean response (s)", "p90 (s)"],
        rows,
        title="Ablation A3: candidate-selection scheme at rho=0.88 (SR4 policy)",
    )
    write_output("ablation_selection_scheme", table)

    # Shape check: every two-candidate scheme beats the RR baseline —
    # the benefit comes from the choice, not from the specific scheme.
    baseline = runs["RR baseline"].mean_response_time
    for _, label in SCHEMES:
        assert runs[label].mean_response_time < baseline
