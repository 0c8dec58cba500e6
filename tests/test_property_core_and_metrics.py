"""Property-based tests for the SRLB core and the metrics pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent import ApplicationAgent, StaticLoadView
from repro.core.consistent_hash import MaglevTable
from repro.core.policies import DynamicThresholdPolicy, StaticThresholdPolicy
from repro.core.service_hunting import HuntingDecision, ServiceHuntingProcessor
from repro.metrics.fairness import jain_fairness_index
from repro.metrics.stats import deciles, summarize
from repro.net.addressing import IPv6Address
from repro.net.packet import make_syn
from repro.net.srh import SegmentRoutingHeader
from repro.server.cpu import ProcessorSharingCPU
from repro.sim.engine import Simulator


class _SettableLoadView(StaticLoadView):
    """A fixed load view whose busy count a test moves."""

    def set_busy(self, busy: int) -> None:
        self._busy = busy


# ----------------------------------------------------------------------
# policies
# ----------------------------------------------------------------------
@given(
    threshold=st.integers(min_value=0, max_value=33),
    busy=st.integers(min_value=0, max_value=32),
)
def test_static_policy_is_exactly_a_threshold_rule(threshold, busy):
    policy = StaticThresholdPolicy(threshold)
    agent = ApplicationAgent(StaticLoadView(busy=busy, slots=32))
    assert policy.should_accept(agent) == (busy < threshold)


@given(
    busy_sequence=st.lists(st.integers(min_value=0, max_value=32), min_size=1, max_size=400),
    window=st.integers(min_value=5, max_value=50),
)
@settings(max_examples=100, deadline=None)
def test_dynamic_policy_threshold_stays_within_bounds(busy_sequence, window):
    policy = DynamicThresholdPolicy(initial_threshold=1, window_size=window, max_threshold=32)
    view = _SettableLoadView(busy=0, slots=32)
    agent = ApplicationAgent(view)
    for busy in busy_sequence:
        view.set_busy(busy)
        policy.should_accept(agent)
        assert 0 <= policy.threshold <= 32


# ----------------------------------------------------------------------
# service hunting
# ----------------------------------------------------------------------
_vip = IPv6Address.parse("fd00:300::1")
_client = IPv6Address.parse("fd00:200::1")
_servers = [IPv6Address.parse(f"fd00:100::{index:x}") for index in range(1, 9)]


@given(
    num_candidates=st.integers(min_value=1, max_value=6),
    busy=st.integers(min_value=0, max_value=32),
    threshold=st.integers(min_value=0, max_value=33),
)
@settings(max_examples=200, deadline=None)
def test_service_hunting_always_terminates_in_an_accept(num_candidates, busy, threshold):
    """No matter the policy outcome, some candidate accepts the query."""
    packet = make_syn(_client, _vip, 20_000, 80)
    packet.attach_srh(
        SegmentRoutingHeader.from_traversal(list(_servers[:num_candidates]) + [_vip])
    )
    processors = [
        ServiceHuntingProcessor(
            StaticThresholdPolicy(threshold),
            ApplicationAgent(StaticLoadView(busy=busy, slots=32)),
        )
        for _ in range(num_candidates)
    ]
    hops = 0
    for processor in processors:
        decision = processor.process(packet)
        hops += 1
        if decision is HuntingDecision.ACCEPT:
            break
    assert decision is HuntingDecision.ACCEPT
    assert packet.dst == _vip
    assert hops <= num_candidates


# ----------------------------------------------------------------------
# Maglev consistent hashing
# ----------------------------------------------------------------------
@given(
    num_backends=st.integers(min_value=1, max_value=16),
    keys=st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=30),
)
@settings(max_examples=50, deadline=None)
def test_maglev_lookup_is_deterministic_and_valid(num_backends, keys):
    backends = [IPv6Address.parse(f"fd00:100::{index + 1:x}") for index in range(num_backends)]
    table = MaglevTable(backends, table_size=307)
    for key in keys:
        (first,) = table.lookup_chain(key, 1)
        assert [first] == table.lookup_chain(key, 1)
        assert first in backends


# ----------------------------------------------------------------------
# processor-sharing CPU conservation
# ----------------------------------------------------------------------
@given(
    demands=st.lists(
        st.floats(min_value=0.01, max_value=2.0, allow_nan=False), min_size=1, max_size=15
    ),
    cores=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50, deadline=None)
def test_processor_sharing_conserves_work(demands, cores):
    """Total completion time is bounded by work conservation.

    All jobs arrive at t=0; the CPU can do ``cores`` seconds of work per
    second, so the last completion cannot happen before total_demand /
    cores, nor before the largest single demand, and (since the CPU is
    never idle while jobs remain) not after total_demand.
    """
    simulator = Simulator(seed=0)
    cpu = ProcessorSharingCPU(simulator, num_cores=cores)
    completions = {}
    for index, demand in enumerate(demands):
        cpu.add_job(index, demand, lambda i: completions.setdefault(i, simulator.now))
    simulator.run()
    assert len(completions) == len(demands)
    finish = max(completions.values())
    lower_bound = max(max(demands), sum(demands) / cores)
    assert finish >= lower_bound - 1e-9
    assert finish <= sum(demands) + 1e-9


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
positive_samples = st.lists(
    st.floats(min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


@given(values=positive_samples)
def test_summary_statistics_are_internally_consistent(values):
    summary = summarize(values)
    # A one-ulp tolerance absorbs the rounding of numpy's mean/percentile.
    tolerance = 1e-9 * max(values)
    assert summary.minimum <= summary.median <= summary.maximum + tolerance
    assert summary.minimum - tolerance <= summary.mean <= summary.maximum + tolerance
    assert summary.p75 <= summary.p90 <= summary.p99 <= summary.maximum + tolerance
    assert summary.count == len(values)


@given(values=positive_samples)
def test_deciles_are_sorted_and_bounded(values):
    result = deciles(values)
    assert result == sorted(result)
    assert min(values) <= result[0]
    assert result[-1] <= max(values)


@given(
    loads=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=64
    )
)
def test_fairness_index_bounds(loads):
    index = jain_fairness_index(loads)
    assert 1.0 / len(loads) - 1e-12 <= index <= 1.0 + 1e-12


@given(
    loads=st.lists(st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
                   min_size=1, max_size=32),
    scale=st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
)
def test_fairness_index_is_scale_invariant(loads, scale):
    assert jain_fairness_index(loads) == pytest.approx(
        jain_fairness_index([scale * value for value in loads]), rel=1e-6
    )
