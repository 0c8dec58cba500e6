"""Chaos scenario — fault injection is deterministic and recoverable.

The ``chaos`` family replays one workload over the 2-LB ECMP tier under
four impairment recipes (baseline / loss / flap / jitter).  This
benchmark runs the family at smoke scale under **two different seeds**
and pins the three properties the fault plane rests on:

* the per-mode outcome fingerprint is bit-identical between ``jobs=1``
  and a multi-process run — impairments draw from named substreams, so
  process fan-out is a wall-clock knob, never a results knob;
* the two seeds produce *different* fingerprints — the injectors really
  are driven by the seed, not silently inert;
* the unified drop counter always reconciles with the per-reason
  counters, and the loss cell recovers at least 99% of queries through
  client retransmission.

The same check, at the same scale, is the CI ``chaos-smoke`` job
(``make chaos-smoke``).

Scale knobs: ``REPRO_BENCH_CHAOS_QUERIES`` sets the per-cell query count
(default 600); ``REPRO_BENCH_CHAOS_JOBS`` the process count of the
parallel side (default 2).
"""

from __future__ import annotations

import dataclasses
import os

from benchmarks.conftest import run_once, write_output
from repro.experiments.chaos_experiment import CHAOS_SCENARIO, outcome_fingerprint
from repro.experiments.config import ChaosConfig
from repro.experiments.scenario import run_scenario

#: The two workload/simulation seeds compared by the benchmark.
SEEDS = (42, 1337)


def _queries() -> int:
    return int(os.environ.get("REPRO_BENCH_CHAOS_QUERIES", 600))


def _jobs() -> int:
    return int(os.environ.get("REPRO_BENCH_CHAOS_JOBS", 2))


def _config(seed: int) -> ChaosConfig:
    base = CHAOS_SCENARIO.smoke_config()
    return dataclasses.replace(
        base,
        num_queries=_queries(),
        workload_seed=seed,
        testbed=dataclasses.replace(base.testbed, seed=seed),
    )


def bench_chaos_seeded_determinism(benchmark):
    configs = {seed: _config(seed) for seed in SEEDS}
    serial = {
        seed: run_scenario("chaos", config, jobs=1) for seed, config in configs.items()
    }

    first = SEEDS[0]
    parallel = {
        first: run_once(
            benchmark, lambda: run_scenario("chaos", configs[first], jobs=_jobs())
        )
    }
    for seed in SEEDS[1:]:
        parallel[seed] = run_scenario("chaos", configs[seed], jobs=_jobs())

    write_output("chaos_comparison", CHAOS_SCENARIO.render(serial[first]))

    for seed in SEEDS:
        for mode in configs[seed].modes:
            one_job = serial[seed].run(mode)
            many_jobs = parallel[seed].run(mode)
            # jobs=1 vs jobs=N: bit-identical outcomes per mode.
            assert outcome_fingerprint(many_jobs.collector) == outcome_fingerprint(
                one_job.collector
            ), (seed, mode)
            # Every network drop is attributed to exactly one reason.
            counters = many_jobs.counters
            assert counters["fault.packets_dropped"] == sum(
                value
                for name, value in counters.items()
                if name.startswith("fault.packets_dropped_")
            ), (seed, mode)
        # The acceptance property: retransmission recovers the loss cell.
        loss = parallel[seed].run("loss")
        assert loss.counters["fault.packets_dropped"] > 0, seed
        assert loss.completion_rate(configs[seed].num_queries) >= 0.99, seed

    # The seeds genuinely steer the workload and the injectors.
    for mode in configs[first].modes:
        assert outcome_fingerprint(
            parallel[SEEDS[0]].run(mode).collector
        ) != outcome_fingerprint(parallel[SEEDS[1]].run(mode).collector), mode
