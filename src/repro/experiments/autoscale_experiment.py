"""Autoscale experiments: elastic capacity under a diurnal workload.

The paper evaluates Service Hunting over a fixed twelve-server pool;
production deployments of the same architecture pair it with an elastic
control plane.  This family quantifies what that control plane buys: a
diurnal (sinusoid-plus-noise) arrival schedule is replayed under several
*provisioning modes* —

* ``static`` — the fleet is pinned at ``max_servers`` (peak-sized
  over-provisioning, the no-control-plane baseline);
* ``reactive`` — the fleet starts at ``min_servers`` and a threshold
  autoscaler (:mod:`repro.control`) tracks the load;
* ``predictive`` — same, with the EWMA-slope forecasting policy that
  provisions ahead of the ramp;

— and each run reports **cost** (capacity-seconds, the integral of
provisioned speed-weighted cores over the day) against **SLO** (p99
response time vs the configured target).  The headline claim mirrors
what elasticity is for: the scaled fleets spend materially fewer
capacity-seconds than the static one while keeping p99 inside the SLO.

The family is registered as the ``autoscale`` scenario; cells are the
provisioning modes, and every mode replays the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.control.autoscaler import Autoscaler
from repro.control.lifecycle import ServerLifecycle
from repro.control.monitor import FleetMonitor
from repro.control.policy import make_scaling_policy
from repro.experiments import registry
from repro.experiments.calibration import analytic_saturation_rate
from repro.experiments.config import AutoscaleConfig, TestbedConfig
from repro.experiments.platform import Testbed, build_testbed
from repro.experiments.scenario import (
    RunResult,
    ScenarioCell,
    ScenarioResult,
    ScenarioSpec,
    trace_rng,
)
from repro.metrics.capacity import CapacityTracker
from repro.metrics.reporting import format_table
from repro.workload.diurnal import DiurnalWorkload
from repro.workload.service_models import ExponentialServiceTime
from repro.workload.trace import Trace

#: Mean CPU demand per query, seconds.
SERVICE_MEAN = 0.1


def make_diurnal_workload(config: AutoscaleConfig) -> DiurnalWorkload:
    """The diurnal rate schedule described by ``config``."""
    # Load factors are fractions of the peak-sized (static) fleet.
    saturation = analytic_saturation_rate(config.max_testbed, SERVICE_MEAN)
    return DiurnalWorkload(
        mean_rate=config.mean_load * saturation,
        amplitude=config.load_amplitude * saturation,
        period=config.period,
        duration=config.duration,
        num_steps=config.num_steps,
        noise=config.rate_noise,
        service_model=ExponentialServiceTime(SERVICE_MEAN),
    )


@dataclass
class AutoscaleRunResult(RunResult):
    """One provisioning mode's run, with its capacity bill."""

    capacity: CapacityTracker
    #: ``(time, raw busy fraction, smoothed busy fraction, serving servers)``
    #: rows from the fleet monitor (empty for the static mode).
    monitor_series: List[Tuple[float, float, float, int]]


def attach_control_plane(testbed: Testbed, config: AutoscaleConfig, mode: str):
    """Wire monitor → policy → lifecycle → autoscaler onto ``testbed``.

    Returns the started :class:`~repro.control.autoscaler.Autoscaler`;
    its stop is registered on the testbed's arrival horizon so the
    control loop cannot keep the event heap alive after the day ends.
    """
    lifecycle = ServerLifecycle(
        testbed,
        provisioning_delay=config.provisioning_delay,
        warmup_duration=config.warmup_duration,
        drain_check_interval=config.drain_check_interval,
    )
    monitor = FleetMonitor(time_constant=config.ewma_time_constant)
    policy = make_scaling_policy(
        mode,
        low=config.scale_down_fraction,
        high=config.scale_up_fraction,
        horizon=config.prediction_horizon,
        slope_time_constant=config.slope_time_constant,
    )
    autoscaler = Autoscaler(
        lifecycle=lifecycle,
        monitor=monitor,
        policy=policy,
        min_servers=config.min_servers,
        max_servers=config.max_servers,
        interval=config.monitor_interval,
        scale_up_cooldown=config.scale_up_cooldown,
        scale_down_cooldown=config.scale_down_cooldown,
    )
    autoscaler.start(first_delay=config.monitor_interval)
    testbed.at_horizon(autoscaler.stop)
    return autoscaler


class AutoscaleScenario(ScenarioSpec):
    """The elastic-vs-static comparison as a declarative scenario."""

    name = "autoscale"
    grid = "modes"

    def smoke_config(self) -> AutoscaleConfig:
        return AutoscaleConfig(
            testbed=TestbedConfig(
                workers_per_server=8, cores_per_server=1, backlog_capacity=16
            ),
            min_servers=2,
            max_servers=5,
            mean_load=0.5,
            load_amplitude=0.35,
            period=100.0,
            duration=100.0,
            num_steps=40,
            rate_noise=0.05,
            monitor_interval=0.5,
            ewma_time_constant=2.5,
            scale_up_fraction=0.22,
            scale_down_fraction=0.08,
            scale_up_cooldown=2.0,
            scale_down_cooldown=6.0,
            provisioning_delay=3.0,
            warmup_duration=3.0,
            prediction_horizon=8.0,
            # The peak sits at rho 0.85 of the full fleet on single-core
            # PS servers, so even the static baseline's p99 is ~2.2 s;
            # the SLO must sit above what peak-sized capacity delivers.
            slo_p99=3.0,
        )

    def config_from_flags(self, config: AutoscaleConfig, flags) -> AutoscaleConfig:
        if flags.time_factor != 1.0:
            return config.scaled(flags.time_factor)
        return config

    # trace_key: the default (one shared trace for every mode).

    def make_trace(self, config: AutoscaleConfig, cell: ScenarioCell) -> Trace:
        return make_diurnal_workload(config).generate(trace_rng(config, config.num_steps))

    def run_once(
        self, config: AutoscaleConfig, cell: ScenarioCell, trace: Trace
    ) -> AutoscaleRunResult:
        mode = cell.key
        with build_testbed(
            config.testbed_for(mode), config.policy, run_name=f"autoscale-{mode}"
        ) as testbed:
            autoscaler = None
            if mode == "static":
                # No control plane: a constant-capacity tracker records the
                # bill the peak-sized fleet runs up.
                capacity = CapacityTracker(
                    start_time=testbed.simulator.now,
                    capacity=float(config.max_servers * config.testbed.cores_per_server),
                )
            else:
                autoscaler = attach_control_plane(testbed, config, mode)
                capacity = autoscaler.lifecycle.capacity
            duration = testbed.run_trace(trace)
        monitor_series = (
            []
            if autoscaler is None
            else [
                (
                    sample.time,
                    sample.busy_fraction,
                    sample.smoothed_busy_fraction,
                    sample.serving_servers,
                )
                for sample in autoscaler.monitor.samples()
            ]
        )
        return AutoscaleRunResult.of(
            testbed, duration, capacity=capacity, monitor_series=monitor_series
        )

    def render(self, result: ScenarioResult) -> str:
        return render_autoscale(result)


#: The registered spec instance (also reachable via ``registry.get``).
AUTOSCALE_SCENARIO = registry.register(AutoscaleScenario())


def _capacity_at(series: List[Tuple[float, float]], time: float) -> float:
    """Value of a capacity step function at ``time``."""
    value = series[0][1]
    for step_time, step_value in series:
        if step_time > time:
            break
        value = step_value
    return value


def render_autoscale(result: ScenarioResult) -> str:
    """Cost-vs-SLO summary plus the fleet-size trajectory per mode."""
    config: AutoscaleConfig = result.config
    rows: List[List[object]] = []
    for mode in result.keys():
        run: AutoscaleRunResult = result.run(mode)
        capacity = run.capacity
        summary = run.collector.summary()
        drains = capacity.drain_durations
        mean_servers = (
            capacity.mean_capacity(through=config.duration)
            / config.testbed.cores_per_server
        )
        rows.append(
            [
                mode,
                f"{capacity.capacity_seconds(through=config.duration):.0f}",
                f"{mean_servers:.2f}",
                capacity.scale_ups(),
                capacity.scale_downs(),
                f"{sum(drains) / len(drains):.2f}" if drains else "-",
                summary.mean,
                summary.p99,
                "yes" if summary.p99 <= config.slo_p99 else "NO",
                run.counters["server.connections_reset"],
            ]
        )
    summary_table = format_table(
        [
            "mode",
            "capacity-s",
            "mean servers",
            "ups",
            "downs",
            "drain (s)",
            "mean (s)",
            "p99 (s)",
            f"p99<={config.slo_p99:g}s",
            "resets",
        ],
        rows,
        title=(
            f"Autoscale: diurnal load {config.mean_load:g}±{config.load_amplitude:g} "
            f"of a {config.max_servers}-server fleet over {config.duration:g}s "
            f"(bounds [{config.min_servers}, {config.max_servers}])"
        ),
    )

    workload = make_diurnal_workload(config)
    cores = config.testbed.cores_per_server
    capacity_series = {
        mode: result.run(mode).capacity.series() for mode in result.keys()
    }
    points = 12
    trajectory_rows: List[List[object]] = []
    for index in range(points + 1):
        time = config.duration * index / points
        row: List[object] = [f"{time:.0f}", f"{workload.rate_at(time):.1f}"]
        for mode in result.keys():
            row.append(
                f"{_capacity_at(capacity_series[mode], time) / cores:.1f}"
            )
        trajectory_rows.append(row)
    trajectory_table = format_table(
        ["time (s)", "offered (q/s)"]
        + [f"{mode} servers" for mode in result.keys()],
        trajectory_rows,
        title="Autoscale: provisioned servers vs the diurnal rate",
    )
    return summary_table + "\n\n" + trajectory_table
