"""Property-based tests for the hostile-workload collision search.

The hash-collision generator promises two things: every 5-tuple it
emits verifiably lands on the targeted ECMP bucket under the data
plane's own selector, for every configured hash scheme; and the search
is a pure function of its arguments — no hidden RNG — so repeated runs
(and pool workers) produce identical flow lists.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addressing import CLIENT_PREFIX, VIP_PREFIX
from repro.net.ecmp import HASH_SCHEMES, select_next_hop_name
from repro.net.packet import FlowKey
from repro.workload.hostile import (
    find_colliding_flow_keys,
    spoofed_source_flows,
)

hop_counts = st.integers(min_value=2, max_value=8)
source_counts = st.integers(min_value=1, max_value=12)
flow_counts = st.integers(min_value=1, max_value=24)
schemes = st.sampled_from(HASH_SCHEMES)


def _hops(count: int) -> list:
    return [f"lb-{index}" for index in range(count)]


def _sources(count: int) -> list:
    return [CLIENT_PREFIX.address_at(10_000 + index) for index in range(count)]


_VIP = VIP_PREFIX.address_at(1)


@given(
    num_hops=hop_counts,
    target_index=st.integers(min_value=0, max_value=7),
    num_sources=source_counts,
    count=flow_counts,
    scheme=schemes,
)
@settings(max_examples=60, deadline=None)
def test_every_colliding_flow_lands_on_the_target(
    num_hops, target_index, num_sources, count, scheme
):
    hops = _hops(num_hops)
    target = hops[target_index % num_hops]
    flows = find_colliding_flow_keys(
        hops,
        target,
        _VIP,
        _sources(num_sources),
        count,
        hash_scheme=scheme,
    )
    assert len(flows) == count
    for flow in flows:
        assert select_next_hop_name(hops, flow, scheme) == target


@given(
    num_hops=hop_counts,
    target_index=st.integers(min_value=0, max_value=7),
    num_sources=source_counts,
    count=flow_counts,
    scheme=schemes,
)
@settings(max_examples=40, deadline=None)
def test_collision_search_is_deterministic(
    num_hops, target_index, num_sources, count, scheme
):
    hops = _hops(num_hops)
    target = hops[target_index % num_hops]
    args = (hops, target, _VIP, _sources(num_sources), count)
    first = find_colliding_flow_keys(*args, hash_scheme=scheme)
    second = find_colliding_flow_keys(*args, hash_scheme=scheme)
    assert first == second
    # Hop-name *order* must not matter either: the selector sorts.
    shuffled = list(reversed(hops))
    assert find_colliding_flow_keys(
        shuffled, target, _VIP, _sources(num_sources), count, hash_scheme=scheme
    ) == first


@given(
    num_hops=hop_counts,
    count=flow_counts,
    scheme=schemes,
    src_offset=st.integers(min_value=1, max_value=2**16),
    src_port=st.integers(min_value=1024, max_value=65535),
    dst_offset=st.integers(min_value=1, max_value=2**16),
    dst_port=st.integers(min_value=1, max_value=65535),
)
@settings(max_examples=80, deadline=None)
def test_selector_is_stable_and_in_group(
    num_hops, count, scheme, src_offset, src_port, dst_offset, dst_port
):
    hops = _hops(num_hops)
    flow = FlowKey(
        CLIENT_PREFIX.address_at(src_offset),
        src_port,
        VIP_PREFIX.address_at(dst_offset),
        dst_port,
    )
    chosen = select_next_hop_name(hops, flow, scheme)
    assert chosen in hops
    assert select_next_hop_name(hops, flow, scheme) == chosen
    assert select_next_hop_name(list(reversed(hops)), flow, scheme) == chosen


@given(num_sources=source_counts, count=flow_counts)
@settings(max_examples=60, deadline=None)
def test_spoofed_flows_are_distinct_and_cycle_sources(num_sources, count):
    sources = _sources(num_sources)
    flows = spoofed_source_flows(_VIP, sources, count)
    assert len(flows) == count
    assert len(set(flows)) == count
    for index, flow in enumerate(flows):
        assert flow.src_address == sources[index % num_sources]
        assert flow.dst_address == _VIP


def test_live_router_agrees_with_offline_selector():
    """The offline search uses the data plane's own hash: the router's
    live ``next_hop_for`` must pick the same instance for every flow
    the search emits, for every scheme."""
    from repro.net.ecmp import EcmpEdgeRouter
    from repro.net.router import NetworkNode
    from repro.sim.engine import Simulator

    simulator = Simulator(seed=7)

    class _Sink(NetworkNode):
        def handle_packet(self, packet):  # pragma: no cover - unused
            pass

    hops = []
    for index in range(4):
        node = _Sink(simulator, f"lb-{index}")
        node.add_address(CLIENT_PREFIX.address_at(500 + index))
        hops.append(node)

    sources = _sources(6)
    for index, scheme in enumerate(HASH_SCHEMES):
        router = EcmpEdgeRouter(
            simulator,
            f"edge-{scheme}",
            steering_address=CLIENT_PREFIX.address_at(900 + index),
            hash_scheme=scheme,
        )
        for node in hops:
            router.add_next_hop(node)
        names = [node.name for node in hops]
        for target in names:
            flows = find_colliding_flow_keys(
                names, target, _VIP, sources, 16, hash_scheme=scheme
            )
            for flow in flows:
                assert router.next_hop_for(flow).name == target
