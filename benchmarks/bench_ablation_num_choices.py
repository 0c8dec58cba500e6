"""Ablation A1 — number of SR candidates (the power of d choices).

The paper inserts exactly two candidate servers into the SR list, citing
Mitzenmacher's result that the marginal benefit of more than two choices
is small.  This ablation sweeps d ∈ {1, 2, 3, 4} candidates with the SR4
acceptance policy at heavy load and compares the simulated improvement
against the mean-field model of SRc (:func:`repro.analysis.queueing.sr_mean_field`),
both past the warm-up (``steady_mean_response``).
``tests/test_analysis_oracle.py`` pins their agreement at ρ ≤ 0.7; at
ρ = 0.88 twelve servers and a reduced run leave the simulator off the
model's N → ∞ limit, RR's queues most of all.
"""

from __future__ import annotations

from benchmarks.conftest import (
    mean_field_response,
    run_once,
    scale_jobs,
    scale_queries,
    steady_mean_response,
    write_output,
)
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

    means = {d: steady_mean_response(runs[d]) for d in choices}
    model = {d: mean_field_response(config, HIGH_LOAD_FACTOR, 4, d) for d in choices}
    rows = []
    for d in choices:
        rows.append(
            [f"d={d}", means[d], model[d], means[1] / means[d], model[1] / model[d]]
        )
    table = format_table(
        [
            "candidates",
            "steady mean (s)",
            "mean-field (s)",
            "simulated speed-up",
            "mean-field speed-up",
        ],
        rows,
        title="Ablation A1: number of SR candidates at rho=0.88 (SR4 acceptance policy)",
    )
    write_output("ablation_num_choices", table)

    # Shape checks: two choices give a large improvement over one, and
    # the marginal benefit of the third and fourth choices is smaller
    # than the first step (diminishing returns).
    gain_1_to_2 = means[1] - means[2]
    gain_2_to_4 = means[2] - means[4]
    assert means[2] < means[1]
    assert gain_1_to_2 > gain_2_to_4
