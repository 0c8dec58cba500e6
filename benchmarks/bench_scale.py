"""Scale scenario — one partitioned run, bit-identical on any process count.

The ``scale`` family replays one aggregate query stream over ECMP-hashed
pods, each pod its own simulator partition (:mod:`repro.sim.partition`).
This benchmark runs the family at a reduced scale and pins the property
the whole design rests on: the merged result — down to its SHA-256
fingerprint — is identical whether the partitions execute in one process
or several.  The same check is the CI ``scale-smoke`` job
(``make scale-smoke``, at 20 000 queries).

It also keeps both sides lean.  Pods send columns home, so the process
that only merges them may grow by bytes per outcome, not by objects.
The pod workers keep each outcome as one row of the collector's table
and free each pod's testbed when its run ends, so a worker's peak is one
live pod plus its columns.  The partitioned run goes first and
``ru_maxrss`` of this process is read before and after it — the serial
run that follows simulates in-process and would drown the reading.  The
workers are forked from this process, so their growth is read against
the same starting point.

Scale knobs: ``REPRO_BENCH_SCALE_QUERIES`` sets the aggregate query count
(default 2000; the north-star runs use 1e6+ via ``make perf``);
``REPRO_BENCH_SCALE_PARTITIONS`` the process count of the partitioned
side (default 2).
"""

from __future__ import annotations

import os
import resource

from benchmarks.conftest import run_once, write_output
from repro.experiments import registry
from repro.experiments.config import ScaleConfig, TestbedConfig
from repro.experiments.scenario import run_scenario


def _queries() -> int:
    return int(os.environ.get("REPRO_BENCH_SCALE_QUERIES", 2_000))


def _partitions() -> int:
    return int(os.environ.get("REPRO_BENCH_SCALE_PARTITIONS", 2))


def _config() -> ScaleConfig:
    return ScaleConfig(
        testbed=TestbedConfig(
            num_servers=4, workers_per_server=8, backlog_capacity=16
        ),
        pods=4,
        num_queries=_queries(),
    )


#: Coordinator growth over the partitioned run.  Measured on CPython
#: 3.11 / numpy 2.4, 2 workers: 5.5, 6.6 and 8.0 MB at 5 000, 20 000 and
#: 40 000 queries — 75 B per outcome (the received pod columns, the
#: stable sort and the four merged columns) on top of 5.2 MB of
#: multiprocessing and family imports.  The budget adds 28 % to the
#: per-outcome part and 0.05 MB to the fixed one: at 20 000 queries it
#: is 7.1 MB, which a second merged copy (32 B per outcome) or one
#: object per outcome exceeds.
COORDINATOR_BYTES_PER_OUTCOME = 96
COORDINATOR_FIXED_BYTES = 5_500_000

#: Pod-worker peak over the fork point, per outcome of the run.  Measured
#: alongside the coordinator: 1.0, 3.4 and 7.8 MB at 5 000, 20 000 and
#: 40 000 queries, about 200 B per outcome (a live pod's testbed, trace
#: columns and outcome table).  The budget adds 12 % and 1 MiB: at 20 000
#: queries it is 5.3 MB, which one 100 B object per outcome exceeds.
WORKER_BYTES_PER_OUTCOME = 224
WORKER_FIXED_BYTES = 1024 * 1024


def _maxrss_bytes(who: int) -> int:
    return resource.getrusage(who).ru_maxrss * 1024  # Linux reports KiB


def bench_scale_partition_equivalence(benchmark):
    config = _config()

    coordinator_before = _maxrss_bytes(resource.RUSAGE_SELF)
    result = run_once(
        benchmark, lambda: run_scenario("scale", config, partitions=_partitions())
    )
    partitioned = result.run
    coordinator_growth = _maxrss_bytes(resource.RUSAGE_SELF) - coordinator_before
    children = _maxrss_bytes(resource.RUSAGE_CHILDREN)
    worker_growth = children - coordinator_before
    benchmark.extra_info["coordinator_growth_mb"] = coordinator_growth / 2**20
    benchmark.extra_info["children_maxrss_mb"] = children / 2**20
    benchmark.extra_info["worker_growth_mb"] = worker_growth / 2**20

    serial = run_scenario("scale", config, partitions=1).run

    write_output("scale_partitioned", registry.get("scale").render(result))

    # The acceptance property: partitioning is a wall-clock knob, never a
    # results knob.  Bit-identical fingerprints, same pod shares, same
    # aggregate outcome counts.
    assert partitioned.fingerprint() == serial.fingerprint()
    assert partitioned.completed == serial.completed
    assert partitioned.failed == serial.failed
    assert partitioned.completed + partitioned.failed == config.num_queries
    assert sorted(partitioned.pod_summaries) == list(range(config.pods))
    for pod, summary in partitioned.pod_summaries.items():
        assert summary["queries"] > 0, f"pod {pod} received no queries"
        assert summary["events_executed"] > 0

    budget = (
        COORDINATOR_BYTES_PER_OUTCOME * config.num_queries + COORDINATOR_FIXED_BYTES
    )
    assert coordinator_growth <= budget, (
        f"coordinator grew {coordinator_growth / 2**20:.1f} MB over the "
        f"partitioned run, budget {budget / 2**20:.1f} MB "
        f"(children peaked at {children / 2**20:.1f} MB): per-outcome "
        "objects are back in the merging process"
    )
    if _partitions() > 1:
        worker_budget = (
            WORKER_BYTES_PER_OUTCOME * config.num_queries + WORKER_FIXED_BYTES
        )
        assert worker_growth <= worker_budget, (
            f"pod workers peaked {worker_growth / 2**20:.1f} MB over the fork "
            f"point, budget {worker_budget / 2**20:.1f} MB: outcome objects or "
            "finished pods' testbeds are staying resident in the workers"
        )
