"""Heavy-tailed session scenario — policy robustness under unkind load.

Beyond the paper: the workload mixes bounded-Pareto one-shots with
keep-alive user sessions (one aggregated request per session) attributed
to a Zipf user population, and the client pins a returning user's
5-tuple via a stable source port.  The expectation is directional, as in
the stationary case: the power of two choices keeps queues shorter than
blind round-robin even when demands are heavy-tailed, so the SR policies'
mean response stays at or below the RR baseline.

Scale knobs: ``REPRO_BENCH_ARRIVALS`` sets the arrival count (default
1500); ``REPRO_BENCH_JOBS`` fans the per-policy replays out over worker
processes.
"""

from __future__ import annotations

import os

from benchmarks.conftest import run_once, scale_jobs, write_output
from repro.experiments import registry
from repro.experiments.config import HeavyTailConfig
from repro.experiments.scenario import run_scenario


def _arrivals() -> int:
    return int(os.environ.get("REPRO_BENCH_ARRIVALS", 1_500))


def bench_heavy_tail_sessions(benchmark):
    config = HeavyTailConfig().scaled(_arrivals())

    result = run_once(
        benchmark, lambda: run_scenario("heavy-tail", config, jobs=scale_jobs())
    )

    write_output("heavy_tail_sessions", registry.get("heavy-tail").render(result))

    # Reproduction checks (shape, not absolute values): the trace is
    # genuinely skewed, every policy served the whole trace, and two
    # choices do not lose to one under heavy tails.
    users = result.meta["users"]
    assert users.num_requests == config.num_arrivals
    assert users.top_user_share > 1.0 / users.distinct_users
    rr = result.run("RR")
    sr4 = result.run("SR4")
    for name in result.keys():
        run = result.run(name)
        assert run.collector.totals.completed > 0.95 * config.num_arrivals
    assert sr4.collector.summary().mean < rr.collector.summary().mean * 1.05
