"""Poisson-workload experiments (paper §V, Figures 2–5).

The experiment replays a Poisson stream of CPU-bound queries against the
testbed under each load-balancing configuration and collects client-side
response times plus (optionally) the per-server load samples used by
Figure 4.  The *same* workload trace — same arrival times, same
per-request CPU demands — is replayed under every policy of a
comparison, so differences between policies are differences in load
balancing, not in workload randomness.

The sweep is the ``poisson`` :class:`~repro.experiments.scenario.ScenarioSpec`
(one cell per (policy, load factor)), run through
:func:`~repro.experiments.scenario.run_scenario`; one run is a one-cell
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.experiments import registry
from repro.experiments.calibration import saturation_rate_for
from repro.experiments.config import PoissonSweepConfig, TestbedConfig
from repro.experiments.platform import build_testbed
from repro.experiments.scenario import (
    RunResult,
    ScenarioCell,
    ScenarioSpec,
    TraceProvider,
)
from repro.metrics.collector import ServerLoadSampler
from repro.metrics.reporting import format_table
from repro.workload.poisson import poisson_trace
from repro.workload.trace import Trace


@dataclass
class PoissonRunResult(RunResult):
    """One (policy, load factor) run, with its per-server data."""

    #: Accepted connections per server name (Service Hunting counters).
    acceptance_counts: Dict[str, int]
    #: Busy-thread samples (Figure 4), when the sweep sampled load.
    load_sampler: Optional[ServerLoadSampler] = None

    @property
    def mean_response_time(self) -> float:
        """Mean page load time (Figure 2's metric)."""
        return self.collector.mean_response_time()

    def response_times(self) -> np.ndarray:
        """Raw response times (Figures 3 and 5 plot their CDF)."""
        return self.collector.response_times()


@dataclass
class PoissonSweepResult:
    """All runs of a load-factor sweep, indexed by policy then load factor."""

    config: PoissonSweepConfig
    saturation_rate: float
    runs: Dict[str, Dict[float, PoissonRunResult]] = field(default_factory=dict)

    def mean_response_series(self, policy_name: str) -> List[Tuple[float, float]]:
        """``(load factor, mean response time)`` series for one policy."""
        if policy_name not in self.runs:
            raise ExperimentError(f"no runs recorded for policy {policy_name!r}")
        by_load = self.runs[policy_name]
        return [
            (load_factor, by_load[load_factor].mean_response_time)
            for load_factor in sorted(by_load)
        ]

    def policies(self) -> List[str]:
        """Names of the policies in the sweep, in configuration order."""
        return [policy.name for policy in self.config.policies]

    def run(self, policy_name: str, load_factor: float) -> PoissonRunResult:
        """A specific run, by policy name and load factor."""
        try:
            return self.runs[policy_name][load_factor]
        except KeyError as exc:
            raise ExperimentError(
                f"no run for policy {policy_name!r} at load factor {load_factor!r}"
            ) from exc


class PoissonScenario(ScenarioSpec):
    """The load-factor sweep as a declarative scenario (Figure 2)."""

    name = "poisson"

    def smoke_config(self) -> PoissonSweepConfig:
        from repro.experiments.config import rr_policy, sr_policy

        return PoissonSweepConfig(
            testbed=TestbedConfig(
                num_servers=4, workers_per_server=8, backlog_capacity=16
            ),
            load_factors=(0.5,),
            num_queries=150,
            policies=(rr_policy(), sr_policy(4)),
        )

    def cells(
        self, config: PoissonSweepConfig, sample_load: bool = False
    ) -> List[ScenarioCell]:
        saturation = saturation_rate_for(
            config.saturation_rate, config.testbed, config.service_mean
        )
        return [
            ScenarioCell(
                key=(policy.name, load_factor),
                params={
                    "policy": policy,
                    "load_factor": load_factor,
                    "saturation_rate": saturation,
                    "sample_load": sample_load,
                },
            )
            for load_factor in config.load_factors
            for policy in config.policies
        ]

    def trace_key(self, config: PoissonSweepConfig, cell: ScenarioCell) -> float:
        # Every policy replays the same trace at a given load factor.
        return cell.param("load_factor")

    def make_trace(self, config: PoissonSweepConfig, cell: ScenarioCell) -> Trace:
        # Seeded from the workload seed and the load factor only, so the
        # trace is identical across policies and across testbed seeds.
        load_factor = cell.param("load_factor")
        return poisson_trace(
            load_factor,
            cell.param("saturation_rate"),
            config.num_queries,
            config.service_mean,
            [config.workload_seed, int(round(load_factor * 1_000_000))],
        )

    def run_once(
        self, config: PoissonSweepConfig, cell: ScenarioCell, trace: Trace
    ) -> PoissonRunResult:
        policy = cell.param("policy")
        with build_testbed(
            config.testbed,
            policy,
            run_name=f"{policy.name}-rho{cell.param('load_factor'):g}",
        ) as testbed:
            if cell.param("sample_load"):
                testbed.attach_load_sampler(interval=config.load_sample_interval)
            duration = testbed.run_trace(trace)
        return PoissonRunResult.of(
            testbed,
            duration,
            acceptance_counts=testbed.acceptance_counts(),
            load_sampler=testbed.load_sampler,
        )

    def aggregate(
        self,
        config: PoissonSweepConfig,
        cells: Sequence[ScenarioCell],
        runs: Sequence[PoissonRunResult],
        trace_for: TraceProvider,
    ) -> PoissonSweepResult:
        result = PoissonSweepResult(
            config=config, saturation_rate=cells[0].param("saturation_rate")
        )
        for cell, run in zip(cells, runs):
            policy_name, load_factor = cell.key
            result.runs.setdefault(policy_name, {})[load_factor] = run
        return result

    def render(self, result: PoissonSweepResult) -> str:
        from repro.experiments import figures

        return figures.render_figure2(result)

    def report(self, result: PoissonSweepResult) -> str:
        """One row per run: a shell-size sweep is a few cells, not a curve."""
        config = result.config
        rows: List[List[object]] = []
        for load_factor in config.load_factors:
            for policy in config.policies:
                run = result.run(policy.name, load_factor)
                summary = run.collector.summary()
                rows.append(
                    [
                        load_factor,
                        policy.name,
                        summary.mean,
                        summary.median,
                        summary.p90,
                        run.counters["server.connections_reset"],
                    ]
                )
        return format_table(
            ["rho", "policy", "mean (s)", "median (s)", "p90 (s)", "resets"],
            rows,
            title=(
                f"Poisson workload, {config.num_queries} queries per run, "
                f"{config.testbed.num_servers} servers"
            ),
        )


#: The registered spec instance (also reachable via ``registry.get``).
POISSON_SCENARIO = registry.register(PoissonScenario())
