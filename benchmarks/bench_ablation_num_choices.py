"""Ablation A1 — number of SR candidates (the power of d choices).

The paper inserts exactly two candidate servers into the SR list, citing
Mitzenmacher's result that the marginal benefit of more than two choices
is small.  This ablation sweeps d ∈ {1, 2, 3, 4} candidates with the SR4
acceptance policy at heavy load and compares the simulated improvement
against the analytic supermarket-model prediction.
"""

from __future__ import annotations

from benchmarks.conftest import scale_jobs, scale_queries, run_once, write_output
from repro.analysis.power_of_choices import improvement_over_random
from repro.experiments.config import HIGH_LOAD_FACTOR, PoissonSweepConfig, PolicySpec
from repro.experiments.scenario import run_scenario
from repro.metrics.reporting import format_table


def _spec(num_candidates: int) -> PolicySpec:
    if num_candidates == 1:
        return PolicySpec(name="d=1 (RR)", acceptance_policy="always", num_candidates=1)
    return PolicySpec(
        name=f"d={num_candidates}", acceptance_policy="SR4", num_candidates=num_candidates
    )


def bench_ablation_number_of_choices(benchmark):
    choices = (1, 2, 3, 4)
    config = PoissonSweepConfig(
        load_factors=(HIGH_LOAD_FACTOR,),
        num_queries=scale_queries(),
        policies=tuple(_spec(d) for d in choices),
    )

    def run_all():
        sweep = run_scenario("poisson", config, jobs=scale_jobs())
        return {d: sweep.run((_spec(d).name, HIGH_LOAD_FACTOR)) for d in choices}

    runs = run_once(benchmark, run_all)

    baseline = runs[1].mean_response_time
    rows = []
    for d in choices:
        mean = runs[d].mean_response_time
        simulated_speedup = baseline / mean
        analytic_speedup = (
            1.0 if d == 1 else improvement_over_random(HIGH_LOAD_FACTOR, d)
        )
        rows.append([f"d={d}", mean, simulated_speedup, analytic_speedup])
    table = format_table(
        ["candidates", "mean response (s)", "simulated speed-up", "supermarket-model speed-up"],
        rows,
        title="Ablation A1: number of SR candidates at rho=0.88 (SR4 acceptance policy)",
    )
    write_output("ablation_num_choices", table)

    # Shape checks: two choices give a large improvement over one, and
    # the marginal benefit of the third and fourth choices is smaller
    # than the first step (diminishing returns).
    gain_1_to_2 = runs[1].mean_response_time - runs[2].mean_response_time
    gain_2_to_4 = runs[2].mean_response_time - runs[4].mean_response_time
    assert runs[2].mean_response_time < runs[1].mean_response_time
    assert gain_1_to_2 > gain_2_to_4
