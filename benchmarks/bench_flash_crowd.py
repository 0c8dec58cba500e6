"""Flash-crowd scenario — overload absorption per policy.

Beyond the paper: the Poisson workload's rate jumps from a baseline
below saturation to a spike *above* it and back, and the benchmark
reports per-phase response times per policy.  The expectation mirrors
the paper's stationary result: the power of two choices keeps queues
shorter when the crowd hits, so the SR policies absorb the spike and
drain back faster than the RR baseline.

Scale knobs: ``REPRO_BENCH_TIME_FACTOR`` multiplies every phase
duration (default 0.5 — half the scenario's default schedule);
``REPRO_BENCH_JOBS`` fans the per-policy replays out over worker
processes.
"""

from __future__ import annotations

import os

from benchmarks.conftest import run_once, scale_jobs, write_output
from repro.experiments import registry
from repro.experiments.config import FlashCrowdConfig
from repro.experiments.flash_crowd_experiment import phase_summary
from repro.experiments.scenario import run_scenario


def _time_factor() -> float:
    return float(os.environ.get("REPRO_BENCH_TIME_FACTOR", 0.5))


def bench_flash_crowd_overload(benchmark):
    config = FlashCrowdConfig().scaled(_time_factor())

    result = run_once(
        benchmark, lambda: run_scenario("flash-crowd", config, jobs=scale_jobs())
    )

    write_output("flash_crowd_overload", registry.get("flash-crowd").render(result))

    # Reproduction checks (shape, not absolute values): the spike is a
    # real overload for every policy, and two choices beat one while the
    # crowd lasts.
    rr_spike = phase_summary(result.run("RR"), config, "spike")
    sr4_spike = phase_summary(result.run("SR4"), config, "spike")
    for name in result.keys():
        run = result.run(name)
        baseline = phase_summary(run, config, "baseline")
        spike = phase_summary(run, config, "spike")
        assert baseline.count > 0 and spike.count > 0
        assert spike.mean > baseline.mean
    assert sr4_spike.mean < rr_spike.mean * 1.05
