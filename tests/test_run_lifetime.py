"""What a finished run leaves behind: its outcome table, not its testbed.

A testbed's fabric and nodes, LB tier and instances, servers and
applications, and telemetry probe point at each other.  ``Testbed.close``
(every ``run_once`` builds its testbed in a ``with`` block) cuts those
cycles, so the testbed is freed by reference counting the moment its run
returns, without waiting for a garbage-collection pass.  These tests pin
that with the collector disabled, and pin what a closed testbed still
offers: its counters, and a clear error for anything that would run it.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.core.flow_table import FlowEntry
from repro.core.loadbalancer import LoadBalancerNode
from repro.errors import ExperimentError
from repro.experiments import registry
from repro.experiments.config import WikipediaReplayConfig, sr_policy
from repro.experiments.platform import build_testbed
from repro.experiments.scenario import run_scenario
from repro.experiments.wikipedia_experiment import make_wikipedia_trace
from repro.net.router import NetworkNode
from repro.workload.poisson import poisson_trace


def _live(cls) -> int:
    return sum(1 for obj in gc.get_objects() if isinstance(obj, cls))


@pytest.fixture
def gc_disabled():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_a_finished_poisson_cell_retains_at_most_128_bytes_per_query(gc_disabled):
    spec = registry.get("poisson")
    config = replace(spec.smoke_config(), num_queries=2_000, policies=(sr_policy(4),))
    (cell,) = spec.cells(config)
    trace = spec.make_trace(config, cell)
    spec.run_once(config, cell, trace)  # imports and per-process memo tables
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run = spec.run_once(config, cell, trace)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(run.collector) == 2_000
    # What must stay is the outcome table: 37 B per query of columns, about
    # 40 B once `array` growth over-allocates.  On top of that come the
    # result object and a few numpy and interpreter allocations whose size
    # moves between numpy and CPython versions (about 59 B per query in
    # all when this bound was set).  The bound leaves that part a wide
    # margin and still fails a testbed left to the cycle collector, which
    # kept about 540 B per query.
    assert retained <= 128 * 2_000


def test_a_generated_wikipedia_day_retains_at_most_64_bytes_per_query():
    # The trace `wikipedia --duration 85` replays (5,485 queries).
    config = replace(WikipediaReplayConfig(), static_per_wiki=0.5).compressed(85.0)
    make_wikipedia_trace(config)  # imports and numpy.random's first use
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = make_wikipedia_trace(config)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == 5_485
    # A trace is its columns: 8 B of id, arrival and demand each and a
    # 1 B kind code, 25 B per query, plus a few hundred bytes of objects.
    # One Python object per query (a row object, or a per-request entry
    # in a dict index) would cost more than the margin left: the rows
    # and catalogue this replaced kept 289 B + 54 B per query.
    assert retained <= 64 * len(trace)


@pytest.mark.parametrize("telemetry", [False, True], ids=["plain", "telemetry"])
@pytest.mark.parametrize("name", registry.names())
def test_no_load_balancer_outlives_its_run(name, telemetry, gc_disabled):
    spec = registry.get(name)
    config = spec.smoke_config()
    config = replace(config, testbed=replace(config.testbed, telemetry=telemetry))
    before = _live(LoadBalancerNode), _live(FlowEntry)
    result = run_scenario(name, config)
    assert result is not None
    assert (_live(LoadBalancerNode), _live(FlowEntry)) == before


# ----------------------------------------------------------------------
# a closed testbed
# ----------------------------------------------------------------------
@pytest.fixture
def closed_testbed(small_testbed_config):
    trace = poisson_trace(0.5, 40.0, 50, 0.05, np.random.default_rng([0, 1]))
    with build_testbed(small_testbed_config, sr_policy(4)) as testbed:
        testbed.run_trace(trace)
    return testbed, trace


def test_a_closed_testbed_keeps_its_counters(closed_testbed):
    testbed, trace = closed_testbed
    assert testbed.closed
    assert len(testbed.collector) == len(trace)
    assert testbed.counters()["server.requests_served"] == len(trace)
    assert testbed.fabric.stats.packets_delivered > 0
    assert testbed.client.fabric is None  # the nodes let go of the fabric
    # ... and the fabric of its nodes: a different node may take the
    # client's name and addresses, which attach refuses while the old
    # client is still registered or bound.
    stand_in = NetworkNode(testbed.simulator, testbed.client.name)
    for address in testbed.client.addresses:
        stand_in.add_address(address)
    stand_in.attach(testbed.fabric)
    testbed.close()  # idempotent


@pytest.mark.parametrize(
    "use",
    [
        lambda testbed, trace: testbed.run_trace(trace),
        lambda testbed, trace: testbed.add_server(),
        lambda testbed, trace: testbed.retire_server(testbed.servers[0]),
        lambda testbed, trace: testbed.attach_load_sampler(),
        lambda testbed, trace: testbed.at_horizon(lambda: None),
    ],
    ids=["run_trace", "add_server", "retire_server", "attach_load_sampler", "at_horizon"],
)
def test_using_a_closed_testbed_is_one_clear_error(closed_testbed, use):
    testbed, trace = closed_testbed
    with pytest.raises(ExperimentError, match="is closed"):
        use(testbed, trace)


def test_the_with_block_closes_on_an_error(small_testbed_config):
    with pytest.raises(RuntimeError):
        with build_testbed(small_testbed_config, sr_policy(4)) as testbed:
            raise RuntimeError("cell failed")
    assert testbed.closed
