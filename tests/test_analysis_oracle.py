"""The simulator against the mean-field model of SRc and RR.

Each cell replays independent Poisson traces on the paper's server shape
(2 cores, 32 workers and a 128-deep backlog, so 160 places) and compares
the mean response time past a warm-up with :func:`sr_mean_field`
evaluated at each trace's realised load.  RR is one uniform draw
(``choices=1``): M/M/c/K, which the FIFO CPU must meet as well as the
processor-sharing one.  Twelve servers is a finite fleet, so the cells
stay at ρ ≤ 0.7, where the model's N → ∞ limit holds within a few per cent.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.queueing import sr_mean_field
from repro.experiments import registry
from repro.experiments.config import PoissonSweepConfig, TestbedConfig, rr_policy, sr_policy
from repro.experiments.platform import build_testbed

SERVICE_MEAN = 0.1
#: Independent traces per cell: the ``poisson`` family's, seeded ``12345 + r``.
REPLICATIONS = 4
QUERIES = 4_000
#: Response times dropped from each run while the fleet fills.
WARM_UP = 500
#: The paper's fleet: 12 servers of 2 cores, 32 workers and 128 backlog places.
FLEET = TestbedConfig()


@functools.lru_cache(maxsize=None)
def _trace(rho, replication):
    spec = registry.get("poisson")
    config = PoissonSweepConfig(
        testbed=FLEET,
        load_factors=(rho,),
        num_queries=QUERIES,
        service_mean=SERVICE_MEAN,
        workload_seed=12_345 + replication,
    )
    return spec.make_trace(config, spec.cells(config)[0])


@pytest.mark.parametrize(
    "policy, threshold, rho, cpu_model",
    [
        (sr_policy(4), 4, 0.5, "processor-sharing"),
        (sr_policy(4), 4, 0.7, "processor-sharing"),
        (sr_policy(8), 8, 0.5, "processor-sharing"),
        (sr_policy(8), 8, 0.7, "processor-sharing"),
        (rr_policy(), 0, 0.5, "processor-sharing"),
        (rr_policy(), 0, 0.5, "fifo"),
    ],
    ids=lambda value: str(getattr(value, "name", value)),
)
def test_the_simulated_mean_response_time_meets_the_model(policy, threshold, rho, cpu_model):
    config = replace(FLEET, cpu_model=cpu_model)
    ratios = []
    for replication in range(REPLICATIONS):
        trace = _trace(rho, replication)
        with build_testbed(config, policy) as testbed:
            testbed.run_trace(trace)
        simulated = np.mean(testbed.collector.response_times()[WARM_UP:])
        summary = trace.summary()
        model = sr_mean_field(
            summary.mean_rate / config.num_servers,
            1.0 / summary.mean_demand,
            config.cores_per_server,
            config.workers_per_server + config.backlog_capacity,
            threshold,
            policy.num_candidates,
        )
        ratios.append(simulated / model)
    assert np.mean(ratios) == pytest.approx(1.0, abs=0.05), ratios
