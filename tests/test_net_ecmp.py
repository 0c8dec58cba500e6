"""Tests for the per-packet ECMP edge router (:mod:`repro.net.ecmp`)."""

import pytest

from repro.errors import RoutingError
from repro.net.addressing import IPv6Address
from repro.net.ecmp import EcmpEdgeRouter, five_tuple_key
from repro.net.fabric import LANFabric
from repro.net.packet import FlowKey, Packet, TCPFlag, TCPSegment, make_syn
from repro.net.router import NetworkNode


def _addr(text):
    return IPv6Address.parse(text)


STEERING = _addr("fd00:400::1")
VIP = _addr("fd00:300::1")
CLIENT = _addr("fd00:200::1")


def _flow(port, src=CLIENT, dst=VIP):
    return FlowKey(src, port, dst, 80)


def _reversed(key):
    """The key of the flow's other direction."""
    return FlowKey(key.dst_address, key.dst_port, key.src_address, key.src_port)


class SinkNode(NetworkNode):
    """Next hop that records every packet handed to it."""

    def __init__(self, simulator, name):
        super().__init__(simulator, name)
        self.seen = []

    def handle_packet(self, packet):
        self.seen.append(packet)


def _router(simulator, num_hops=4, scheme="rendezvous"):
    router = EcmpEdgeRouter(simulator, "edge", STEERING, hash_scheme=scheme)
    hops = [SinkNode(simulator, f"hop-{index}") for index in range(num_hops)]
    for hop in hops:
        router.add_next_hop(hop)
    return router, hops


class TestHashingStability:
    def test_same_flow_always_maps_to_the_same_hop(self, simulator):
        router, _ = _router(simulator)
        for port in range(200):
            flow = _flow(port)
            assert router.next_hop_for(flow) is router.next_hop_for(flow)

    def test_flows_spread_over_all_hops(self, simulator):
        router, hops = _router(simulator)
        owners = {router.next_hop_for(_flow(port)).name for port in range(500)}
        assert owners == {hop.name for hop in hops}

    def test_rendezvous_spread_is_roughly_uniform(self, simulator):
        router, hops = _router(simulator)
        counts = {hop.name: 0 for hop in hops}
        for port in range(2_000):
            counts[router.next_hop_for(_flow(port)).name] += 1
        for count in counts.values():
            assert 0.15 < count / 2_000 < 0.35  # 1/4 each, generous slack

    def test_forward_and_reverse_tuples_hash_independently(self, simulator):
        router, _ = _router(simulator)
        differing = sum(
            1
            for port in range(400)
            if router.next_hop_for(_flow(port))
            is not router.next_hop_for(_reversed(_flow(port)))
        )
        # With 4 hops, ~3/4 of reverse tuples land elsewhere.
        assert differing > 200


class TestMembershipDisruption:
    def test_rendezvous_removal_remaps_only_the_victims_flows(self, simulator):
        router, hops = _router(simulator, num_hops=5, scheme="rendezvous")
        flows = [_flow(port) for port in range(2_000)]
        before = {flow: router.next_hop_for(flow).name for flow in flows}
        victim = hops[2].name
        assert router.remove_next_hop(victim)
        after = {flow: router.next_hop_for(flow).name for flow in flows}
        moved_without_reason = [
            flow for flow in flows if before[flow] != victim and before[flow] != after[flow]
        ]
        # HRW property: flows not owned by the victim never move.
        assert moved_without_reason == []
        assert all(after[flow] != victim for flow in flows)

    def test_modulo_removal_remaps_most_flows(self, simulator):
        router, hops = _router(simulator, num_hops=5, scheme="modulo")
        flows = [_flow(port) for port in range(2_000)]
        before = {flow: router.next_hop_for(flow).name for flow in flows}
        router.remove_next_hop(hops[2].name)
        after = {flow: router.next_hop_for(flow).name for flow in flows}
        remapped = sum(1 for flow in flows if before[flow] != after[flow])
        # The naive scheme renumbers the list: ~4/5 of flows move.
        assert remapped / len(flows) > 0.5

    def test_addition_is_counted_and_duplicates_rejected(self, simulator):
        router, hops = _router(simulator, num_hops=2)
        assert router.stats.membership_changes == 2
        with pytest.raises(RoutingError):
            router.add_next_hop(hops[0])
        assert not router.remove_next_hop("nope")

    def test_empty_group_rejected(self, simulator):
        router = EcmpEdgeRouter(simulator, "edge", STEERING)
        with pytest.raises(RoutingError):
            router.next_hop_for(_flow(1))

    def test_unknown_scheme_rejected(self, simulator):
        with pytest.raises(RoutingError):
            EcmpEdgeRouter(simulator, "edge", STEERING, hash_scheme="magic")


class TestForwarding:
    def test_vip_packets_are_spread_and_counted(self, simulator):
        fabric = LANFabric(simulator, latency=1e-6)
        router, hops = _router(simulator)
        router.register_vip(VIP)
        router.attach(fabric)
        for port in range(1024, 1074):
            fabric.send(make_syn(CLIENT, VIP, port, 80))
        simulator.run()
        assert router.stats.forward_packets == 50
        assert sum(len(hop.seen) for hop in hops) == 50
        assert sum(router.stats.per_next_hop.values()) == 50

    def test_steering_packets_use_the_return_tuple(self, simulator):
        fabric = LANFabric(simulator, latency=1e-6)
        router, hops = _router(simulator)
        router.register_vip(VIP)
        router.attach(fabric)
        packet = Packet(
            src=VIP,
            dst=STEERING,
            tcp=TCPSegment(src_port=80, dst_port=2048, flags=TCPFlag.SYN | TCPFlag.ACK),
        )
        expected = router.next_hop_for(packet.flow_key())
        fabric.send(packet)
        simulator.run()
        assert router.stats.return_packets == 1
        assert expected.seen == [packet]

    def test_unknown_destination_is_dropped(self, simulator):
        fabric = LANFabric(simulator, latency=1e-6)
        router, _ = _router(simulator)
        router.attach(fabric)
        router.receive(make_syn(CLIENT, STEERING + 99, 1024, 80))
        assert router.stats.packets_dropped == 1

    def test_five_tuple_key_includes_protocol_and_both_endpoints(self):
        key = five_tuple_key(_flow(1234))
        assert isinstance(key, bytes)
        assert key == f"tcp|{CLIENT}|1234|{VIP}|80".encode()
