"""Fault injection against the SRLB tier: the ``chaos`` scenario family.

Every other family runs over a perfect network.  This one replays one
legitimate Poisson workload through a :mod:`repro.net.faults` pipeline
installed on the fabric's delivery channel, one impairment recipe per
cell:

* ``baseline`` — the pipeline is installed but every injector is
  *disabled*.  This cell exists to pin, as a golden fingerprint, that an
  idle fault plane is bit-identical to no fault plane at all;
* ``loss`` — i.i.d. packet loss plus corruption-as-drop plus a
  Gilbert–Elliott burst process.  The headline robustness cell: with the
  client's SYN retransmission and bounded retries armed, ≥ 99 % of
  queries must still complete under 1 % loss, and every query that does
  not must be accounted for by ``gave_up``;
* ``flap`` — scheduled link-down windows during which the fabric drops
  everything, exercising recovery after total (but bounded) outages;
* ``jitter`` — latency jitter plus bounded reordering: nothing is lost,
  but timing shifts everywhere and spurious client timeouts retry flows
  onto fresh ECMP paths.

The testbed arms client retransmission/retries and server load-shedding
(see :class:`~repro.experiments.config.ChaosConfig`), so the cells
measure *recovery*, not just damage.  A cell's fingerprint
(:func:`outcome_fingerprint` of its collector) is SHA-256 over the
sorted per-query outcome matrix.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.experiments import registry
from repro.experiments.calibration import legitimate_poisson_trace
from repro.experiments.config import ChaosConfig, TestbedConfig
from repro.experiments.platform import build_testbed
from repro.experiments.scenario import (
    RunResult,
    ScenarioCell,
    ScenarioResult,
    ScenarioSpec,
)
from repro.metrics.collector import ResponseTimeCollector
from repro.metrics.reporting import format_table
from repro.net.faults import FaultConfig, install_fault_channel
from repro.workload.trace import Trace

#: ``loss`` cell, beside ``--loss-rate``: corruption-as-drop rate, and the
#: Gilbert–Elliott burst process (enter and exit per packet, loss
#: probability while in the bad state).
CORRUPTION_RATE = 0.001
BURST_ENTER, BURST_EXIT, BURST_LOSS = 0.0005, 0.2, 0.9

#: ``jitter`` cell, beside ``--jitter-mean``: the cap on the exponential
#: extra latency (seconds), and bounded reordering (rate, hold-back
#: window in seconds).
JITTER_CAP = 0.02
REORDER_RATE, REORDER_WINDOW = 0.02, 0.001


def _flap_windows(
    config: ChaosConfig, trace_duration: float
) -> Tuple[Tuple[float, float], ...]:
    """``flap_count`` down-windows spread evenly over the trace.

    On a trace too short for ``flap_down``-long windows at that spacing,
    windows that overlap merge into their union: the link is down from
    the first one's start to the last one's end.
    """
    count = config.flap_count
    half = config.flap_down / 2.0
    windows: List[Tuple[float, float]] = []
    for index in range(count):
        center = trace_duration * (index + 1) / (count + 1)
        start, end = max(0.0, center - half), center + half
        if windows and start < windows[-1][1]:
            start = windows.pop()[0]
        windows.append((start, end))
    return tuple(windows)


def fault_config_for(
    config: ChaosConfig, mode: str, trace_duration: float
) -> FaultConfig:
    """The fault recipe one cell installs on the fabric."""
    if mode == "baseline":
        # Installed with no stage enabled: pins that an idle pipeline
        # is bit-identical to no pipeline.
        return FaultConfig()
    if mode == "loss":
        return FaultConfig(
            loss_rate=config.loss_rate,
            corruption_rate=CORRUPTION_RATE,
            burst_enter=BURST_ENTER,
            burst_exit=BURST_EXIT,
            burst_loss=BURST_LOSS,
        )
    if mode == "flap":
        return FaultConfig(
            flap_windows=_flap_windows(config, trace_duration)
        )
    if mode == "jitter":
        return FaultConfig(
            jitter_mean=config.jitter_mean,
            jitter_cap=JITTER_CAP,
            reorder_rate=REORDER_RATE,
            reorder_window=REORDER_WINDOW,
        )
    raise ExperimentError(f"unknown chaos mode {mode!r}")


def outcome_fingerprint(collector: ResponseTimeCollector) -> str:
    """SHA-256 over the sorted per-query outcome matrix.

    One float64 row per recorded query — ``(request_id, sent_at,
    response_time | -1, retries, gave_up, failed)`` sorted by request
    id — so the fingerprint is invariant to completion order (and hence
    to the jobs fan-out) but pins every outcome bit the chaos cells care
    about, including the retry accounting.  Read straight from the
    collector's columns; a stable sort by request id orders the rows
    (ids are unique within a cell).
    """
    table = collector.columns()
    matrix = np.column_stack(
        (
            table.request_ids.astype(np.float64),
            table.sent_at,
            np.where(np.isnan(table.response_times), -1.0, table.response_times),
            table.retries.astype(np.float64),
            table.gave_up.astype(np.float64),
            table.failed.astype(np.float64),
        )
    )
    order = np.argsort(table.request_ids, kind="stable")
    return hashlib.sha256(matrix[order].tobytes()).hexdigest()


class ChaosScenario(ScenarioSpec):
    """The fault-injection comparison as a declarative scenario."""

    name = "chaos"
    grid = "modes"

    def smoke_config(self) -> ChaosConfig:
        return ChaosConfig(
            testbed=TestbedConfig(
                num_servers=4,
                workers_per_server=8,
                cores_per_server=2,
                backlog_capacity=16,
                num_load_balancers=2,
                flow_idle_timeout=5.0,
                request_timeout=2.0,
                syn_retransmit_timeout=0.2,
                syn_retransmit_cap=2.0,
                syn_retransmit_limit=4,
                retry_timeout=1.5,
                max_retries=3,
                backlog_shed_watermark=14,
            ),
            num_queries=600,
        )

    # trace_key: the default (one shared trace for every mode).

    def make_trace(self, config: ChaosConfig, cell: ScenarioCell) -> Trace:
        return legitimate_poisson_trace(config)

    def run_once(
        self, config: ChaosConfig, cell: ScenarioCell, trace: Trace
    ) -> RunResult:
        """Replay the legitimate workload under one impairment mode."""
        mode = cell.key
        with build_testbed(
            config.testbed, config.policy, run_name=f"chaos-{mode}"
        ) as testbed:
            pipeline = install_fault_channel(
                testbed.simulator,
                testbed.fabric,
                fault_config_for(config, mode, trace.duration),
            )
            testbed.fault_pipeline = pipeline
            if testbed.telemetry is not None:
                testbed.telemetry.watch_faults(pipeline)
            duration = testbed.run_trace(trace)
        return RunResult.of(testbed, duration)

    def render(self, result: ScenarioResult) -> str:
        return render_chaos_table(result)


#: The registered spec instance (also reachable via ``registry.get``).
CHAOS_SCENARIO = registry.register(ChaosScenario())


def render_chaos_table(comparison: ScenarioResult) -> str:
    """Text table of the per-mode chaos comparison."""
    config = comparison.config
    rows: List[List[object]] = []
    for mode in comparison.keys():
        run = comparison.run(mode)
        counters = run.counters
        rows.append(
            [
                mode,
                f"{100 * run.completion_rate(config.num_queries):.1f}%",
                run.collector.totals.failed,
                counters["client.queries_retried"],
                counters["client.queries_gave_up"],
                counters["client.syn_retransmits"],
                run.collector.summary().p99,
                counters["fault.packets_dropped"],
                counters["fault.packets_delayed_jitter"]
                + counters["fault.packets_reordered"],
                counters["server.connections_shed"],
            ]
        )
    return format_table(
        [
            "mode",
            "done",
            "failed",
            "retried",
            "gave up",
            "SYN rtx",
            "p99 (s)",
            "net drops",
            "net delays",
            "sheds",
        ],
        rows,
        title=(
            f"Chaos: {config.testbed.num_load_balancers} LBs, "
            f"{config.testbed.num_servers} servers, rho={config.load_factor:g}, "
            f"loss={config.loss_rate:g}, flaps={config.flap_count} x "
            f"{config.flap_down:g}s, jitter mean={config.jitter_mean:g}s"
        ),
    )
