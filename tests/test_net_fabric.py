"""Unit tests for the LAN fabric."""

import pytest

from repro.errors import NetworkError, RoutingError
from repro.net.addressing import IPv6Address
from repro.net.fabric import LANFabric
from repro.net.packet import make_syn
from repro.net.router import NetworkNode


class RecordingNode(NetworkNode):
    """Test node that records every packet it receives."""

    def __init__(self, simulator, name):
        super().__init__(simulator, name)
        self.received = []

    def handle_packet(self, packet):
        self.received.append(packet)


def _addr(text):
    return IPv6Address.parse(text)


@pytest.fixture
def fabric_setup(simulator):
    fabric = LANFabric(simulator, latency=0.001)
    a = RecordingNode(simulator, "a")
    a.add_address(_addr("fd00:100::1"))
    b = RecordingNode(simulator, "b")
    b.add_address(_addr("fd00:100::2"))
    a.attach(fabric)
    b.attach(fabric)
    return fabric, a, b


class TestLANFabric:
    def test_delivery_by_exact_address(self, simulator, fabric_setup):
        fabric, a, b = fabric_setup
        packet = make_syn(a.primary_address, b.primary_address, 1000, 80)
        a.send(packet)
        simulator.run()
        assert b.received == [packet]
        assert fabric.stats.packets_delivered == 1

    def test_delivery_takes_latency(self, simulator, fabric_setup):
        fabric, a, b = fabric_setup
        arrival_times = []
        original = b.handle_packet
        b.handle_packet = lambda packet: (arrival_times.append(simulator.now), original(packet))
        a.send(make_syn(a.primary_address, b.primary_address, 1000, 80))
        simulator.run()
        assert arrival_times == [pytest.approx(0.001)]

    def test_unroutable_packet_is_dropped_and_counted(self, simulator, fabric_setup):
        fabric, a, b = fabric_setup
        a.send(make_syn(a.primary_address, _addr("2001:db8::1"), 1000, 80))
        simulator.run()
        assert fabric.stats.packets_dropped_no_route == 1
        assert b.received == []

    def test_strict_fabric_raises_on_unroutable(self, simulator):
        fabric = LANFabric(simulator, strict=True)
        node = RecordingNode(simulator, "only")
        node.add_address(_addr("fd00:100::1"))
        node.attach(fabric)
        with pytest.raises(RoutingError):
            node.send(make_syn(node.primary_address, _addr("2001:db8::1"), 1000, 80))

    def test_duplicate_address_binding_rejected(self, simulator, fabric_setup):
        fabric, a, b = fabric_setup
        with pytest.raises(RoutingError):
            fabric.bind_address(a.primary_address, b)

    def test_duplicate_node_name_rejected(self, simulator, fabric_setup):
        fabric, a, b = fabric_setup
        impostor = RecordingNode(simulator, "a")
        impostor.add_address(_addr("fd00:100::99"))
        with pytest.raises(RoutingError):
            impostor.attach(fabric)

    def test_taps_observe_deliveries(self, simulator, fabric_setup):
        fabric, a, b = fabric_setup
        seen = []
        fabric.add_tap(lambda packet, origin, destination: seen.append((origin, destination)))
        a.send(make_syn(a.primary_address, b.primary_address, 1000, 80))
        simulator.run()
        assert seen == [("a", "b")]

    def test_deliveries_are_counted_over_every_destination(
        self, simulator, fabric_setup
    ):
        fabric, a, b = fabric_setup
        for _ in range(3):
            a.send(make_syn(a.primary_address, b.primary_address, 1000, 80))
        b.send(make_syn(b.primary_address, a.primary_address, 80, 1000))
        simulator.run()
        assert fabric.stats.packets_delivered == 4

    def test_node_lookup_by_name(self, fabric_setup):
        fabric, a, b = fabric_setup
        assert fabric.node("a") is a
        with pytest.raises(RoutingError):
            fabric.node("missing")

    def test_send_unattached_node_raises(self, simulator):
        node = RecordingNode(simulator, "lonely")
        node.add_address(_addr("fd00:100::1"))
        with pytest.raises(RoutingError):
            node.send(make_syn(node.primary_address, _addr("fd00:100::2"), 1000, 80))


class TestDropAccounting:
    """Each drop is counted once, under one reason; the total is their sum."""

    def test_hop_limit_exhausted_is_dropped_and_counted(self, simulator, fabric_setup):
        fabric, a, b = fabric_setup
        packet = make_syn(a.primary_address, b.primary_address, 1000, 80)
        packet.hop_limit = 1
        assert a.send(packet) is False
        simulator.run()
        assert b.received == []
        assert fabric.stats.packets_dropped_hop_limit == 1
        assert fabric.stats.packets_delivered == 0

    def test_strict_fabric_raises_on_hop_limit(self, simulator):
        fabric = LANFabric(simulator, strict=True)
        node = RecordingNode(simulator, "only")
        node.add_address(_addr("fd00:100::1"))
        node.attach(fabric)
        packet = make_syn(node.primary_address, node.primary_address, 1000, 80)
        packet.hop_limit = 1
        with pytest.raises(NetworkError):
            node.send(packet)

    def test_packets_dropped_is_the_unified_total(self, simulator, fabric_setup):
        fabric, a, b = fabric_setup
        a.send(make_syn(a.primary_address, _addr("2001:db8::1"), 1000, 80))
        looping = make_syn(a.primary_address, b.primary_address, 1000, 80)
        looping.hop_limit = 0
        a.send(looping)
        simulator.run()
        assert fabric.stats.packets_dropped == 2
        assert fabric.stats.snapshot() == {
            "packets_delivered": 0,
            "bytes_delivered": 0,
            "packets_dropped": 2,
            "packets_dropped_no_route": 1,
            "packets_dropped_hop_limit": 1,
        }

    def test_a_later_bind_makes_an_unroutable_address_routable(
        self, simulator, fabric_setup
    ):
        fabric, a, b = fabric_setup
        target = _addr("fd00:100::3")
        a.send(make_syn(a.primary_address, target, 1000, 80))
        b.add_address(target)
        a.send(make_syn(a.primary_address, target, 1000, 80))
        simulator.run()
        assert fabric.stats.packets_dropped_no_route == 1
        assert len(b.received) == 1

    def test_bytes_delivered_counts_headers_and_payload(self, simulator, fabric_setup):
        fabric, a, b = fabric_setup
        a.send(make_syn(a.primary_address, b.primary_address, 1000, 80))
        simulator.run()
        # A bare SYN: a 40-byte IPv6 header and a 20-byte TCP header.
        assert fabric.stats.bytes_delivered == 60

    def test_a_send_without_origin_is_external(self, simulator, fabric_setup):
        fabric, a, b = fabric_setup
        seen = []
        fabric.add_tap(lambda packet, origin, destination: seen.append((origin, destination)))
        assert fabric.send(make_syn(a.primary_address, b.primary_address, 1000, 80))
        simulator.run()
        assert seen == [("<external>", "b")]
        assert fabric.stats.packets_delivered == 1

    def test_close_unattaches_every_node_and_keeps_the_counters(
        self, simulator, fabric_setup
    ):
        fabric, a, b = fabric_setup
        a.send(make_syn(a.primary_address, b.primary_address, 1000, 80))
        simulator.run()
        fabric.close()
        assert a.fabric is None and b.fabric is None
        with pytest.raises(RoutingError):
            a.send(make_syn(a.primary_address, b.primary_address, 1000, 80))
        assert fabric.stats.packets_delivered == 1
