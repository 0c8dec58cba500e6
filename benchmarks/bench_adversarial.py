"""Adversarial scenario — legitimate service under attack and gray failure.

Beyond the paper: the same legitimate Poisson workload is replayed while
something hostile happens mid-run — a spoofed-source SYN flood, the same
flood concentrated onto one ECMP bucket by an offline hash-collision
search, or a gray failure (a degraded-but-alive server) handled by the
quarantine watchdog.  The benchmark reports what the legitimate flows
experienced in each mode next to the attack-side counters.

Scale knobs: ``REPRO_BENCH_ADV_QUERIES`` sets the legitimate query count
(default 1500); ``REPRO_BENCH_JOBS`` fans the per-mode replays out over
worker processes.
"""

from __future__ import annotations

import os

from benchmarks.conftest import run_once, scale_jobs, write_output
from repro.experiments import registry
from repro.experiments.config import AdversarialConfig
from repro.experiments.scenario import run_scenario


def _queries() -> int:
    return int(os.environ.get("REPRO_BENCH_ADV_QUERIES", 1_500))


def bench_adversarial_modes(benchmark):
    config = AdversarialConfig().scaled(_queries())

    result = run_once(
        benchmark, lambda: run_scenario("adversarial", config, jobs=scale_jobs())
    )

    write_output("adversarial_modes", registry.get("adversarial").render(result))

    # Reproduction checks (shape, not absolute values).
    baseline = result.run("baseline")
    assert baseline.completion_rate(config.num_queries) == 1.0
    assert baseline.attack_syns_sent == 0
    # The floods really ran and hurt, but did not extinguish service.
    for mode in ("syn-flood", "hash-collision"):
        run = result.run(mode)
        assert run.attack_syns_sent > 0
        assert 0.2 <= run.completion_rate(config.num_queries) <= 1.0
        assert run.counters["server.connections_timed_out"] > 0
    # The collision search concentrated the flood onto one bucket.
    collision = result.run("hash-collision")
    assert collision.attack_bucket_share is not None
    assert collision.attack_bucket_share >= 0.9
    # The gray failure was detected and drained without losing queries.
    gray = result.run("gray-failure")
    assert gray.completion_rate(config.num_queries) == 1.0
    assert gray.quarantined == ("server-0",)
    assert gray.quarantine_delay is not None and gray.quarantine_delay > 0
