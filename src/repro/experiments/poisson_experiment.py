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
sweep.  Its result is a :class:`~repro.experiments.scenario.ScenarioResult`
keyed ``(policy name, load factor)``, with the saturation rate λ₀ the
load factors normalise against in ``meta["saturation_rate"]``.
:class:`PoissonGrid` is the pipeline itself; the heterogeneous-fleet
family runs it on its mixed-speed fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.experiments import registry
from repro.experiments.calibration import analytic_saturation_rate
from repro.experiments.config import PoissonSweepConfig, TestbedConfig
from repro.experiments.platform import build_testbed
from repro.experiments.scenario import (
    RunResult,
    ScenarioCell,
    ScenarioResult,
    ScenarioSpec,
    TraceProvider,
    policy_named,
)
from repro.metrics.collector import ServerLoadSampler
from repro.metrics.reporting import format_table
from repro.workload.poisson import poisson_trace
from repro.workload.trace import Trace

#: Seconds between the busy-thread samples Figure 4 plots.
LOAD_SAMPLE_INTERVAL = 0.5


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


class PoissonGrid(ScenarioSpec):
    """A load-factor × policy grid of Poisson runs on one fleet.

    Not registered: the ``poisson`` and ``heterogeneous-fleet`` families
    subclass it and say which fleet a cell builds, what the queries
    demand and how a run is named.  Every policy replays the same trace
    at a given load factor.
    """

    #: Prefix of every run name.
    run_prefix = ""

    def fleet(self, config: Any) -> TestbedConfig:
        """The testbed every cell builds."""
        return config.testbed

    def service_mean(self, config: Any) -> float:
        """Mean CPU demand per query, seconds."""
        return config.service_mean

    def cells(self, config: Any, sample_load: bool = False) -> List[ScenarioCell]:
        return [
            ScenarioCell((policy.name, load_factor), {"sample_load": sample_load})
            for load_factor in config.load_factors
            for policy in config.policies
        ]

    def trace_key(self, config: Any, cell: ScenarioCell) -> float:
        return cell.key[1]

    def make_trace(self, config: Any, cell: ScenarioCell) -> Trace:
        # Seeded from the workload seed and the load factor only, so the
        # trace is identical across policies and across testbed seeds.
        load_factor = cell.key[1]
        service_mean = self.service_mean(config)
        return poisson_trace(
            load_factor,
            analytic_saturation_rate(self.fleet(config), service_mean),
            config.num_queries,
            service_mean,
            [config.workload_seed, int(round(load_factor * 1_000_000))],
        )

    def run_once(self, config: Any, cell: ScenarioCell, trace: Trace) -> PoissonRunResult:
        name, load_factor = cell.key
        with build_testbed(
            self.fleet(config),
            policy_named(config, name),
            run_name=f"{self.run_prefix}{name}-rho{load_factor:g}",
        ) as testbed:
            if cell.param("sample_load"):
                testbed.attach_load_sampler(interval=LOAD_SAMPLE_INTERVAL)
            duration = testbed.run_trace(trace)
        return PoissonRunResult.of(
            testbed,
            duration,
            acceptance_counts=testbed.acceptance_counts(),
            load_sampler=testbed.load_sampler,
        )

    def meta(self, config: Any, trace_for: TraceProvider) -> Dict[str, Any]:
        return {
            "saturation_rate": analytic_saturation_rate(
                self.fleet(config), self.service_mean(config)
            )
        }


class PoissonScenario(PoissonGrid):
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

    def render(self, result: ScenarioResult) -> str:
        from repro.experiments import figures

        return figures.render_figure2(result)

    def report(self, result: ScenarioResult) -> str:
        """One row per run: a shell-size sweep is a few cells, not a curve."""
        config = result.config
        rows: List[List[object]] = []
        for policy, load_factor in result.keys():
            run = result.run((policy, load_factor))
            summary = run.collector.summary()
            rows.append(
                [
                    load_factor,
                    policy,
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
