#!/usr/bin/env python3
"""Writing a custom connection-acceptance policy.

SRLB "does not impose any load balancing policy": the acceptance
decision is a plug-in.  This example defines two custom policies,
registers them with the policy registry, and compares them against the
paper's SR4 and the RR baseline on the same workload:

* ``ProbabilisticBackpressurePolicy`` — accepts with a probability that
  decays with the number of busy workers (a smooth version of SRc);
* ``TwoSignalPolicy`` — combines the fine-grained busy-thread count with
  the coarse CPU-load estimate, accepting only when both are healthy
  (the "coarse-grained information" variant the paper mentions in
  §II-C).

Run with::

    python examples/custom_policy.py
"""

from __future__ import annotations

import random

from repro.core.agent import ApplicationAgent
from repro.core.policies import ConnectionAcceptancePolicy, register_policy
from repro.experiments.config import PoissonSweepConfig, PolicySpec, rr_policy, sr_policy
from repro.experiments.scenario import run_scenario
from repro.metrics.reporting import format_table


class ProbabilisticBackpressurePolicy(ConnectionAcceptancePolicy):
    """Accept with probability max(0, 1 - busy/limit)."""

    def __init__(self, limit: int = 8, seed: int = 0) -> None:
        self.name = f"prob<{limit}"
        self.limit = limit
        self._rng = random.Random(seed)

    def should_accept(self, agent: ApplicationAgent) -> bool:
        busy = agent.busy_threads()
        acceptance_probability = max(0.0, 1.0 - busy / self.limit)
        return self._rng.random() < acceptance_probability

    def describe(self) -> str:
        return f"accept with probability 1 - busy/{self.limit}"


class TwoSignalPolicy(ConnectionAcceptancePolicy):
    """Accept only when both the thread pool and the CPU look healthy."""

    def __init__(self, max_busy: int = 6, max_load_per_core: float = 2.5) -> None:
        self.name = f"two-signal<{max_busy},{max_load_per_core:g}"
        self.max_busy = max_busy
        self.max_load_per_core = max_load_per_core

    def should_accept(self, agent: ApplicationAgent) -> bool:
        return (
            agent.busy_threads() < self.max_busy
            and agent.estimated_cpu_load() < self.max_load_per_core
        )

    def describe(self) -> str:
        return (
            f"busy threads < {self.max_busy} and runnable workers per core "
            f"< {self.max_load_per_core:g}"
        )


def main() -> None:
    # Make the custom policies available to the experiment harness by name.
    register_policy("prob-backpressure", lambda: ProbabilisticBackpressurePolicy(limit=8))
    register_policy("two-signal", lambda: TwoSignalPolicy(max_busy=6))

    load_factor = 0.85
    num_queries = 3_000

    specs = [
        rr_policy(),
        sr_policy(4),
        PolicySpec(name="prob<8", acceptance_policy="prob-backpressure", num_candidates=2),
        PolicySpec(name="two-signal", acceptance_policy="two-signal", num_candidates=2),
    ]

    config = PoissonSweepConfig(
        load_factors=(load_factor,), num_queries=num_queries, policies=tuple(specs)
    )
    sweep = run_scenario("poisson", config)

    rows = []
    for spec in specs:
        summary = sweep.run((spec.name, load_factor)).collector.summary()
        rows.append([spec.name, summary.mean, summary.median, summary.p90])

    print(
        format_table(
            ["policy", "mean (s)", "median (s)", "p90 (s)"],
            rows,
            title=f"custom acceptance policies, Poisson workload at ρ = {load_factor}",
        )
    )
    print(
        "\nAny object implementing ConnectionAcceptancePolicy.should_accept() "
        "can be plugged in;\nregister_policy() makes it usable from PolicySpec "
        "by name, one instance per server."
    )


if __name__ == "__main__":
    main()
