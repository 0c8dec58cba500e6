"""Heterogeneous-fleet experiments: mixed server service-rate tiers.

The paper's platform is twelve identical servers; real fleets are not.
This family splits the fleet into a *fast* tier and a *slow* tier of
CPU speed multipliers (:attr:`TestbedConfig.server_speed_factors`) and
replays the same Poisson workload — normalised against the fleet's
speed-weighted capacity — under each policy.

What it stresses: Service Hunting's acceptance policies observe the
local busy-*thread* count, not the local service *rate*.  A slow server
with c-1 busy threads looks exactly as acceptable as a fast one, yet
will hold its queries far longer — so queue-length-blind policies pile
work onto the slow tier.  The scenario reports, next to response times,
how each policy's accepted queries split between the tiers relative to
the capacity each tier brings (a share ratio of 1.0 means
capacity-proportional, i.e. perfectly fair), plus Jain's fairness index
over per-capacity acceptance rates.

The family is registered as the ``heterogeneous-fleet`` scenario.  It is
the Poisson pipeline,
:class:`~repro.experiments.poisson_experiment.PoissonScenario`, run on
the config's mixed-speed ``fleet``: cells are (policy, load factor)
pairs, the run result is the Poisson family's (it keeps per-server
acceptance counts), and ``meta["saturation_rate"]`` is the fleet's
speed-weighted λ₀.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments import registry
from repro.experiments.config import HeterogeneousFleetConfig, TestbedConfig
from repro.experiments.poisson_experiment import PoissonScenario
from repro.experiments.scenario import ScenarioResult
from repro.metrics.fairness import jain_fairness_index
from repro.metrics.reporting import format_table


def tier_acceptance_shares(
    config: HeterogeneousFleetConfig, acceptance_counts: Dict[str, int]
) -> Tuple[float, float]:
    """``(fast share ratio, slow share ratio)`` of accepted queries.

    Each ratio is the tier's share of accepted queries divided by its
    share of fleet capacity; 1.0 on both sides means the policy feeds
    each tier exactly in proportion to what it can digest.
    """
    fast_names = set(config.fast_server_names())
    accepted_fast = sum(
        count for name, count in acceptance_counts.items() if name in fast_names
    )
    accepted_total = sum(acceptance_counts.values())
    if accepted_total == 0:
        return (0.0, 0.0)
    capacity_fast = config.num_fast * config.fast_speed
    capacity_total = capacity_fast + config.num_slow * config.slow_speed
    fast_share = (accepted_fast / accepted_total) / (capacity_fast / capacity_total)
    slow_share = ((accepted_total - accepted_fast) / accepted_total) / (
        (capacity_total - capacity_fast) / capacity_total
    )
    return (fast_share, slow_share)


def capacity_fairness_index(
    config: HeterogeneousFleetConfig, acceptance_counts: Dict[str, int]
) -> float:
    """Jain's index over per-server accepted queries per unit capacity."""
    speeds = config.fleet.server_speed_factors
    loads = [
        acceptance_counts.get(f"server-{index}", 0) / speeds[index]
        for index in range(config.num_servers)
    ]
    return jain_fairness_index(loads)


class HeterogeneousFleetScenario(PoissonScenario):
    """The mixed-speed-fleet comparison: the Poisson grid on the config's ``fleet``."""

    name = "heterogeneous-fleet"
    run_prefix = "heterogeneous-"

    def smoke_config(self) -> HeterogeneousFleetConfig:
        from repro.experiments.config import rr_policy, sr_policy

        return HeterogeneousFleetConfig(
            num_fast=2,
            num_slow=3,
            testbed=TestbedConfig(workers_per_server=8, backlog_capacity=16),
            load_factors=(0.7,),
            num_queries=200,
            policies=(rr_policy(), sr_policy(4)),
        )

    def render(self, result: ScenarioResult) -> str:
        return render_heterogeneous_fleet(result)


#: The registered spec instance (also reachable via ``registry.get``).
HETEROGENEOUS_SCENARIO = registry.register(HeterogeneousFleetScenario())


def render_heterogeneous_fleet(result: ScenarioResult) -> str:
    """Response times plus tier shares and fairness, per (policy, ρ)."""
    config: HeterogeneousFleetConfig = result.config
    rows: List[List[object]] = []
    for key in result.keys():
        policy_name, load_factor = key
        run = result.run(key)
        summary = run.collector.summary()
        fast_share, slow_share = tier_acceptance_shares(
            config, run.acceptance_counts
        )
        rows.append(
            [
                load_factor,
                policy_name,
                summary.mean,
                summary.p90,
                f"{fast_share:.2f}",
                f"{slow_share:.2f}",
                f"{capacity_fairness_index(config, run.acceptance_counts):.3f}",
                run.counters["server.connections_reset"],
            ]
        )
    return format_table(
        [
            "rho",
            "policy",
            "mean (s)",
            "p90 (s)",
            "fast share",
            "slow share",
            "fairness",
            "resets",
        ],
        rows,
        title=(
            f"Heterogeneous fleet: {config.num_fast} fast (x{config.fast_speed:g}) "
            f"+ {config.num_slow} slow (x{config.slow_speed:g}) servers, "
            f"{config.num_queries} queries per run"
        ),
    )
