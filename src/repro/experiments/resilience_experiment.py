"""Resilience experiments: load-balancer churn under an ECMP tier.

The paper argues (§II-B) that SRLB instances can be added and removed at
will when candidate selection is flow-stable: any instance can re-derive
a flow's candidate chain, so no flow state needs to be synchronised and
in-flight flows survive instance churn.  This experiment family
quantifies that claim on the simulated platform:

* the testbed is fronted by a :class:`~repro.core.lb_tier.LoadBalancerTier`
  (``num_load_balancers`` instances behind a per-packet ECMP edge);
* clients trickle each request upload over a few seconds
  (``request_spread``), so every flow depends on steering state for a
  macroscopic window;
* mid-run, a churn schedule kills (or adds) tier instances;
* the run reports the **broken-flow fraction**: of the queries in flight
  at each churn event, how many never completed.

The same workload is replayed under each candidate-selection scheme, so
the difference between ``random`` (steering state is unrecoverable, the
victim's flows are reset) and ``consistent-hash`` (stateless recovery
re-derives the chain and flows survive) is attributable to the scheme
alone.

The comparison is the ``resilience``
:class:`~repro.experiments.scenario.ScenarioSpec` (one cell per
selection scheme, one shared trace), run through
:func:`~repro.experiments.scenario.run_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Set

from repro.experiments import registry
from repro.experiments.calibration import analytic_saturation_rate
from repro.experiments.config import ChurnEvent, ResilienceConfig, TestbedConfig
from repro.experiments.platform import build_testbed
from repro.experiments.scenario import (
    RunResult,
    ScenarioCell,
    ScenarioResult,
    ScenarioSpec,
    trace_rng,
)
from repro.metrics.reporting import format_table
from repro.workload.poisson import poisson_trace
from repro.workload.trace import Trace


def resilience_saturation_rate(
    testbed: TestbedConfig, service_mean: float
) -> float:
    """Saturation rate of the testbed under spread uploads, queries/s.

    With paced uploads a connection holds an Apache worker for roughly
    ``request_spread + service_mean`` seconds, so the worker pool — not
    the CPU — is usually the binding resource.  The saturation rate is
    the tighter of the two limits.
    """
    cpu_limit = analytic_saturation_rate(testbed, service_mean)
    worker_limit = testbed.total_workers / (testbed.request_spread + service_mean)
    return min(cpu_limit, worker_limit)


@dataclass
class ChurnObservation:
    """What one churn event looked like when it fired."""

    event: ChurnEvent
    at_time: float
    instance: str
    #: Request ids in flight at the instant of the event.
    in_flight_ids: Set[int] = field(default_factory=set)
    #: Flow-table entries the killed instance took down with it.
    flow_entries_lost: int = 0


@dataclass
class ResilienceRunResult(RunResult):
    """One (selection scheme, churn schedule) run, with what churn broke."""

    observations: List[ChurnObservation]
    #: Queries that were in flight at some churn event and never
    #: completed (reset or hung) — the paper's "broken flows".
    broken_flows: int
    in_flight_at_churn: int

    @property
    def broken_fraction(self) -> float:
        """Fraction of churn-exposed in-flight flows that broke."""
        if self.in_flight_at_churn == 0:
            return 0.0
        return self.broken_flows / self.in_flight_at_churn


def _resolve_victim(tier, event: ChurnEvent):
    """The instance a kill event targets.

    When unnamed, the alive instance with the largest flow table is
    chosen — the most steering state at risk.  Flow tables are not
    expired mid-run, so the size counts every flow the instance ever
    owned, an upper bound on (and proxy for) its live flows.
    """
    if event.instance is not None:
        return tier.instance(event.instance)
    return max(tier.alive_instances(), key=lambda lb: len(lb.flow_table))


class ResilienceScenario(ScenarioSpec):
    """The LB-churn comparison as a declarative scenario."""

    name = "resilience"
    grid = "selection_schemes"

    def smoke_config(self) -> ResilienceConfig:
        return ResilienceConfig(
            testbed=TestbedConfig(
                num_servers=6,
                workers_per_server=8,
                num_load_balancers=4,
                request_spread=1.0,
                request_chunks=3,
                request_timeout=3.0,
            ),
            num_queries=400,
            service_mean=0.05,
        )

    def config_from_flags(self, config: ResilienceConfig, flags) -> ResilienceConfig:
        # Free workers pinned by abandoned flows well after a legitimate
        # upload would have finished.
        testbed = replace(
            config.testbed, request_timeout=2 * config.testbed.request_spread + 1.0
        )
        # No churn flag at all keeps the config's one mid-run kill; an
        # explicit --add-at alone means an add-only schedule.
        if flags.kill_at is None and not flags.add_at:
            return replace(config, testbed=testbed)
        churn = [ChurnEvent(fraction, "kill") for fraction in flags.kill_at or ()]
        churn += [ChurnEvent(fraction, "add") for fraction in flags.add_at or ()]
        churn.sort(key=lambda event: event.at_fraction)
        return replace(config, testbed=testbed, churn=tuple(churn))

    # trace_key: the default (one shared trace for every scheme).

    def make_trace(self, config: ResilienceConfig, cell: ScenarioCell) -> Trace:
        return poisson_trace(
            config.load_factor,
            resilience_saturation_rate(config.testbed, config.service_mean),
            config.num_queries,
            config.service_mean,
            trace_rng(config, config.num_queries),
        )

    def run_once(
        self, config: ResilienceConfig, cell: ScenarioCell, trace: Trace
    ) -> ResilienceRunResult:
        """Run the churn schedule under one candidate-selection scheme."""
        scheme = cell.key
        with build_testbed(
            config.testbed, config.policy_for(scheme), run_name=f"resilience-{scheme}"
        ) as testbed:
            tier = testbed.lb_tier
            observations: List[ChurnObservation] = []
            added = [0]

            def apply_churn(event: ChurnEvent) -> None:
                observation = ChurnObservation(
                    event=event,
                    at_time=testbed.simulator.now,
                    instance="",
                    in_flight_ids=set(testbed.client.outstanding_request_ids()),
                )
                if event.action == "kill":
                    victim = _resolve_victim(tier, event)
                    observation.instance = victim.name
                    observation.flow_entries_lost = len(victim.flow_table)
                    tier.kill_instance(victim.name)
                else:
                    added[0] += 1
                    # A fresh address well clear of the construction-time range.
                    instance = tier.add_instance(
                        tier.steering_address + 1_000 + added[0]
                    )
                    observation.instance = instance.name
                observations.append(observation)

            for event in config.churn:
                testbed.simulator.schedule_at(
                    trace.duration * event.at_fraction,
                    lambda event=event: apply_churn(event),
                    label=f"churn-{event.action}",
                )
            duration = testbed.run_trace(trace)

        table = testbed.collector.columns()
        completed_ids = set(table.request_ids[table.succeeded].tolist())
        exposed: Set[int] = set()
        for observation in observations:
            exposed |= observation.in_flight_ids
        broken = sum(1 for request_id in exposed if request_id not in completed_ids)

        return ResilienceRunResult.of(
            testbed,
            duration,
            observations=observations,
            broken_flows=broken,
            in_flight_at_churn=len(exposed),
        )

    def render(self, result: ScenarioResult) -> str:
        """The table, then what each churn event looked like when it fired."""
        lines = [render_resilience_table(result)]
        for scheme in result.keys():
            for observation in result.run(scheme).observations:
                lines.append(
                    f"{scheme}: {observation.event.action} {observation.instance} "
                    f"at t={observation.at_time:.1f}s with "
                    f"{len(observation.in_flight_ids)} queries in flight"
                    + (
                        f", {observation.flow_entries_lost} flow entries lost"
                        if observation.event.action == "kill"
                        else ""
                    )
                )
        return "\n".join(lines)


#: The registered spec instance (also reachable via ``registry.get``).
RESILIENCE_SCENARIO = registry.register(ResilienceScenario())


def render_resilience_table(comparison: ScenarioResult) -> str:
    """Text table of the per-scheme broken-flow fractions."""
    config = comparison.config
    rows: List[List[object]] = []
    for scheme in comparison.keys():
        run = comparison.run(scheme)
        summary = run.collector.summary()
        rows.append(
            [
                scheme,
                run.in_flight_at_churn,
                run.broken_flows,
                f"{100 * run.broken_fraction:.1f}%",
                run.counters["lb.recovery_hunts"],
                # The end-of-run sweep records hung queries as failed
                # outcomes, so the total already covers them.
                run.collector.totals.failed,
                summary.mean,
                summary.p90,
            ]
        )
    kills = sum(1 for event in config.churn if event.action == "kill")
    adds = len(config.churn) - kills
    churn_text = " + ".join(
        part
        for part in (
            f"{kills} kill(s)" if kills else "",
            f"{adds} add(s)" if adds else "",
        )
        if part
    )
    return format_table(
        [
            "scheme",
            "in flight",
            "broken",
            "broken %",
            "recoveries",
            "failed total",
            "mean (s)",
            "p90 (s)",
        ],
        rows,
        title=(
            f"LB-churn resilience: {config.testbed.num_load_balancers} LBs, "
            f"{churn_text} mid-run, rho={config.load_factor:g}, "
            f"{config.num_queries} queries"
        ),
    )
