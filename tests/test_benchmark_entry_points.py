"""What the repository benchmark (``benchmarks/perf``) calls of the program.

The benchmark's files stay fixed while the program changes, so every
entry point they call must keep its name and shape; these tests call
each the way the benchmark does.
"""

import numpy as np

from repro.experiments.config import (
    ScaleConfig,
    TestbedConfig,
    WikipediaReplayConfig,
    sr_policy,
)
from repro.experiments.platform import build_testbed
from repro.experiments.scale_experiment import make_pod_trace
from repro.experiments.wikipedia_experiment import make_wikipedia_trace
from repro.workload.client import RequestOutcome
from repro.workload.poisson import PoissonWorkload
from repro.workload.service_models import ExponentialServiceTime

SMALL_TESTBED = TestbedConfig(num_servers=4, workers_per_server=8, backlog_capacity=16)


def test_make_wikipedia_trace_has_a_length():
    trace = make_wikipedia_trace(WikipediaReplayConfig().compressed(duration=5.0))
    assert len(trace) > 0


def test_make_pod_trace_returns_the_trace_and_the_run_horizon():
    config = ScaleConfig(testbed=SMALL_TESTBED, pods=2, num_queries=200)
    trace, horizon = make_pod_trace(config, 0)
    assert 0 < len(trace) < 200
    assert horizon > trace.duration


def test_run_trace_replays_a_generated_poisson_trace():
    workload = PoissonWorkload.from_load_factor(
        rho=0.5,
        saturation_rate=80.0,
        num_queries=100,
        service_model=ExponentialServiceTime(0.1),
    )
    trace = workload.generate(np.random.default_rng(0))
    with build_testbed(SMALL_TESTBED, sr_policy(4)) as testbed:
        testbed.run_trace(trace)
    totals = testbed.collector.totals
    assert totals.completed + totals.failed == len(trace) == 100


def test_request_outcome_takes_a_url():
    outcome = RequestOutcome(
        request_id=1, kind="wiki", url="", sent_at=0.25, completed_at=0.75
    )
    assert outcome.response_time == 0.5
