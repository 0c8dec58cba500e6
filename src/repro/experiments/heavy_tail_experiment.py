"""Heavy-tailed session workload: Pareto/lognormal mix with user affinity.

The paper's Poisson-of-exponentials workload is the kindest possible
input to power-of-two-choices dispatch.  This family replays the
unkind version: a Poisson arrival stream whose queries mix one-shot
bounded-Pareto requests (the classic heavy tail) with keep-alive user
*sessions* — one aggregated request per session, its demand the sum of
a geometric-length series of lognormal per-request demands, so a worker
is pinned for the whole session like an Apache-prefork keep-alive
connection.  Arrivals are attributed to a Zipf-distributed population
of ~10⁵–10⁶ users carried as integer ids only, and the client derives a
stable source port per user (:class:`~repro.workload.hostile.
SessionAffinityClient`), so a returning user's 5-tuple — hence ECMP
bucket and flow-table entry — repeats across sessions.

The same trace is replayed under each Service Hunting policy; the
scenario reports per-kind response times next to the user-concentration
profile of the trace (``meta["users"]`` of its
:class:`~repro.experiments.scenario.ScenarioResult`), so policy
differences can be read against how skewed the offered load actually
was.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments import registry
from repro.experiments.config import HeavyTailConfig, TestbedConfig
from repro.experiments.platform import build_testbed
from repro.experiments.scenario import (
    RunResult,
    ScenarioCell,
    ScenarioResult,
    ScenarioSpec,
    TraceProvider,
    policy_named,
)
from repro.metrics.reporting import format_table
from repro.workload.hostile import (
    HeavyTailWorkload,
    SessionAffinityClient,
    user_concentration,
)
from repro.workload.requests import KIND_HEAVY, KIND_SESSION
from repro.workload.service_models import BoundedParetoServiceTime
from repro.workload.trace import Trace

#: One-shot heavy requests: bounded Pareto (shape, and bounds in seconds).
#: Session requests and response sizes keep the workload's own defaults
#: (lognormal demands of median 40 ms, sizes of median 16 kB).
PARETO_ALPHA, PARETO_LOWER, PARETO_UPPER = 1.5, 0.02, 2.5


def make_heavy_tail_workload(config: HeavyTailConfig) -> HeavyTailWorkload:
    """The mixture workload described by ``config``.

    The arrival rate is normalised against the fleet's total CPU
    capacity using the *mixture* mean demand per arrival, so
    ``load_factor`` keeps its usual meaning (offered demand over
    capacity) even though sessions bundle several requests.
    """
    return HeavyTailWorkload.from_load_factor(
        load_factor=config.load_factor,
        capacity=config.testbed.total_capacity,
        num_arrivals=config.num_arrivals,
        heavy_fraction=config.heavy_fraction,
        heavy_model=BoundedParetoServiceTime(
            alpha=PARETO_ALPHA, lower_seconds=PARETO_LOWER, upper_seconds=PARETO_UPPER
        ),
        mean_session_length=config.mean_session_length,
        num_users=config.num_users,
        user_zipf=config.user_zipf,
    )


def make_heavy_tail_trace(config: HeavyTailConfig) -> Trace:
    """The trace shared by every policy of a comparison."""
    workload = make_heavy_tail_workload(config)
    rng = np.random.default_rng([config.workload_seed, config.num_arrivals])
    return workload.generate(rng)


class HeavyTailScenario(ScenarioSpec):
    """The heavy-tailed session workload as a declarative scenario."""

    name = "heavy-tail"

    def smoke_config(self) -> HeavyTailConfig:
        return HeavyTailConfig(
            testbed=TestbedConfig(
                num_servers=4,
                workers_per_server=8,
                cores_per_server=2,
                backlog_capacity=16,
            ),
            num_arrivals=400,
            num_users=5_000,
        )

    # trace_key: the default (one shared trace for every policy).

    def make_trace(self, config: HeavyTailConfig, cell: ScenarioCell) -> Trace:
        return make_heavy_tail_trace(config)

    def run_once(
        self, config: HeavyTailConfig, cell: ScenarioCell, trace: Trace
    ) -> RunResult:
        """Replay the heavy-tail trace under one policy."""
        policy = policy_named(config, cell.key)
        with build_testbed(
            config.testbed,
            policy,
            run_name=f"heavy-tail-{policy.name}",
            client_factory=SessionAffinityClient,
        ) as testbed:
            duration = testbed.run_trace(trace)
        return RunResult.of(testbed, duration)

    def meta(
        self, config: HeavyTailConfig, trace_for: TraceProvider
    ) -> Dict[str, object]:
        return {"users": user_concentration(trace_for(self.cells(config)[0]))}

    def render(self, result: ScenarioResult) -> str:
        return render_heavy_tail_table(result)


#: The registered spec instance (also reachable via ``registry.get``).
HEAVY_TAIL_SCENARIO = registry.register(HeavyTailScenario())


def render_heavy_tail_table(comparison: ScenarioResult) -> str:
    """Text table of the per-policy heavy-tail comparison."""
    config = comparison.config
    users = comparison.meta["users"]
    rows: List[List[object]] = []
    for policy in comparison.keys():
        run = comparison.run(policy)
        totals = run.collector.totals
        summary = run.collector.summary()
        rows.append(
            [
                policy,
                totals.completed,
                # The end-of-run sweep records hung queries as failed
                # outcomes, so the total already covers them.
                totals.failed,
                summary.mean,
                summary.p99,
                run.collector.summary(KIND_SESSION).p99,
                run.collector.summary(KIND_HEAVY).p99,
                run.counters["client.affinity_hits"],
                run.counters["client.affinity_fallbacks"],
            ]
        )
    return format_table(
        [
            "policy",
            "completed",
            "failed",
            "mean (s)",
            "p99 (s)",
            "p99 sess (s)",
            "p99 heavy (s)",
            "affine",
            "fallback",
        ],
        rows,
        title=(
            f"Heavy-tailed sessions: {config.num_arrivals} arrivals, "
            f"{users.distinct_users} users seen of {config.num_users} "
            f"(top user {100 * users.top_user_share:.1f}%), "
            f"rho={config.load_factor:g}"
        ),
    )
