"""Autoscale scenario — elastic control plane vs static over-provisioning.

Beyond the paper: a diurnal (sinusoid-plus-noise) arrival schedule is
replayed under a peak-sized static fleet and under the reactive and
predictive autoscalers of :mod:`repro.control`, and the benchmark
reports capacity-seconds (cost) against p99 response time (SLO).  The
expectation is the one elasticity exists to deliver: the scaled fleets
pay for materially less capacity while staying inside the SLO.

Scale knobs: ``REPRO_BENCH_TIME_FACTOR`` compresses the day and every
control-plane clock (default 0.5); ``REPRO_BENCH_JOBS`` fans the
per-mode replays out over worker processes.
"""

from __future__ import annotations

import os

from benchmarks.conftest import run_once, scale_jobs, write_output
from repro.experiments import registry
from repro.experiments.config import AutoscaleConfig
from repro.experiments.scenario import run_scenario


def _time_factor() -> float:
    return float(os.environ.get("REPRO_BENCH_TIME_FACTOR", 0.5))


def bench_autoscale_diurnal(benchmark):
    config = AutoscaleConfig().scaled(_time_factor())

    result = run_once(
        benchmark, lambda: run_scenario("autoscale", config, jobs=scale_jobs())
    )

    write_output("autoscale_diurnal", registry.get("autoscale").render(result))

    # Reproduction checks (shape, not absolute values): every mode keeps
    # serving, and the elastic fleets spend less than the static one.
    bills = {
        mode: result.run(mode).capacity.capacity_seconds(through=config.duration)
        for mode in result.keys()
    }
    for mode in result.keys():
        assert result.run(mode).counters["server.requests_served"] > 0
        assert bills[mode] > 0
    for mode in ("reactive", "predictive"):
        assert bills[mode] < bills["static"]
        assert result.run(mode).capacity.scale_ups() > 0
