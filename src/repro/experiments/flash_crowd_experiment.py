"""Flash-crowd experiments: a sudden overload spike over the testbed.

The paper evaluates Service Hunting under *stationary* Poisson load;
this family asks what the power of two choices buys when the load is
anything but stationary — a flash crowd.  The workload is a stepped
Poisson schedule (:mod:`repro.workload.flash_crowd`): a baseline phase
below saturation, a spike phase *above* saturation (ρ > 1 — the fleet
cannot drain the offered load while the crowd lasts), and a recovery
phase back at the baseline rate.  Every policy replays the same trace.

Reported per policy:

* per-phase response-time summaries (baseline / spike / recovery), so
  the overload penalty and the drain-back are separately visible;
* per-bin median and 90th-percentile series across the whole run (the
  scenario's figure), showing how the spike propagates;
* reset counts — under overload the backlog tips over, and how many
  connections a policy sacrifices is part of the comparison.

The family is registered as the ``flash-crowd`` scenario and aggregates
into a generic :class:`~repro.experiments.scenario.ScenarioResult` keyed
by policy name.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import ExperimentError
from repro.experiments import registry
from repro.experiments.calibration import analytic_saturation_rate
from repro.experiments.config import FlashCrowdConfig, TestbedConfig
from repro.experiments.scenario import (
    RunResult,
    ScenarioCell,
    ScenarioResult,
    ScenarioSpec,
    TraceProvider,
    trace_rng,
)
from repro.metrics.reporting import format_table
from repro.metrics.stats import SummaryStatistics, summarize_or_nan
from repro.workload.flash_crowd import RatePhase, SteppedPoissonWorkload
from repro.workload.service_models import ExponentialServiceTime
from repro.workload.trace import Trace

#: Phase labels, in schedule order.
PHASES: Tuple[str, ...] = ("baseline", "spike", "recovery")

#: Mean CPU demand per query, seconds.
SERVICE_MEAN = 0.1


def phase_window(config: FlashCrowdConfig, phase: str) -> Tuple[float, float]:
    """``(start, end)`` of one phase, in trace time."""
    spike_start, spike_end = config.spike_window
    if phase == "baseline":
        return (0.0, spike_start)
    if phase == "spike":
        return (spike_start, spike_end)
    if phase == "recovery":
        return (spike_end, float("inf"))
    raise ExperimentError(
        f"unknown phase {phase!r}: expected one of {', '.join(PHASES)}"
    )


def phase_summary(
    run: RunResult, config: FlashCrowdConfig, phase: str
) -> SummaryStatistics:
    """Response-time summary of the queries *sent* during one phase.

    NaN statistics when none of them completed (a heavy enough spike can
    reset every one of them).
    """
    start, end = phase_window(config, phase)
    table = run.collector.columns()
    rows = table.succeeded & (start <= table.sent_at) & (table.sent_at < end)
    return summarize_or_nan(table.response_times[rows])


class FlashCrowdScenario(ScenarioSpec):
    """The flash-crowd comparison as a declarative scenario."""

    name = "flash-crowd"

    def smoke_config(self) -> FlashCrowdConfig:
        from repro.experiments.config import rr_policy, sr_policy

        return FlashCrowdConfig(
            testbed=TestbedConfig(
                num_servers=4, workers_per_server=8, backlog_capacity=16
            ),
            policies=(rr_policy(), sr_policy(4)),
        ).scaled(0.25)

    # trace_key: the default (one shared trace for every policy).

    def make_trace(self, config: FlashCrowdConfig, cell: ScenarioCell) -> Trace:
        saturation = analytic_saturation_rate(config.testbed, SERVICE_MEAN)
        workload = SteppedPoissonWorkload(
            phases=(
                RatePhase(config.baseline_duration, config.baseline_load * saturation),
                RatePhase(config.spike_duration, config.spike_load * saturation),
                RatePhase(config.recovery_duration, config.baseline_load * saturation),
            ),
            service_model=ExponentialServiceTime(SERVICE_MEAN),
        )
        return workload.generate(trace_rng(config, len(workload.phases)))

    def meta(
        self, config: FlashCrowdConfig, trace_for: TraceProvider
    ) -> Dict[str, object]:
        return {"saturation_rate": analytic_saturation_rate(config.testbed, SERVICE_MEAN)}

    def render(self, result: ScenarioResult) -> str:
        return render_flash_crowd(result)


#: The registered spec instance (also reachable via ``registry.get``).
FLASH_CROWD_SCENARIO = registry.register(FlashCrowdScenario())


def render_flash_crowd(result: ScenarioResult) -> str:
    """Per-phase summary table plus the per-bin median/p90 series."""
    config: FlashCrowdConfig = result.config
    summary_rows: List[List[object]] = []
    for name in result.keys():
        run = result.run(name)
        row: List[object] = [name]
        for phase in PHASES:
            summary = phase_summary(run, config, phase)
            row.extend([summary.mean, summary.p90])
        row.append(run.counters["server.connections_reset"])
        summary_rows.append(row)
    headers = ["policy"]
    for phase in PHASES:
        headers.extend([f"{phase} mean (s)", f"{phase} p90 (s)"])
    headers.append("resets")
    spike_start, spike_end = config.spike_window
    summary_table = format_table(
        headers,
        summary_rows,
        title=(
            f"Flash crowd: rho {config.baseline_load:g} -> {config.spike_load:g} "
            f"during [{spike_start:g}s, {spike_end:g}s), "
            f"{config.total_duration:g}s total"
        ),
    )

    # Per-bin median and 90th percentile (9th decile) by arrival time.
    series: Dict[str, List[Tuple[float, float]]] = {}
    p90s: Dict[str, List[Tuple[float, float]]] = {}
    for name in result.keys():
        binned = result.run(name).collector.binned(bin_width=config.bin_width)
        series[name] = binned.median_series(through=config.total_duration)
        p90s[name] = [
            (center, deciles[-1])
            for center, deciles in binned.decile_series(through=config.total_duration)
        ]
    reference = next(iter(series.values()))
    bin_headers = ["time (s)"]
    for name in series:
        bin_headers.extend([f"{name} median (s)", f"{name} p90 (s)"])
    bin_rows: List[List[object]] = []
    for index, (center, _) in enumerate(reference):
        row = [center]
        for name in series:
            row.append(
                series[name][index][1] if index < len(series[name]) else float("nan")
            )
            row.append(
                p90s[name][index][1] if index < len(p90s[name]) else float("nan")
            )
        bin_rows.append(row)
    bin_table = format_table(
        bin_headers, bin_rows, title="Flash crowd: per-bin response time"
    )
    return summary_table + "\n\n" + bin_table
