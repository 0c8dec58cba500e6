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
        assert a.packets_sent == 1

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

    def test_stats_per_node(self, simulator, fabric_setup):
        fabric, a, b = fabric_setup
        for _ in range(3):
            a.send(make_syn(a.primary_address, b.primary_address, 1000, 80))
        simulator.run()
        assert fabric.stats.delivery_cells["b"] == [3]
        assert fabric.stats.packets_delivered == 3

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


class TestDetachAccounting:
    """The unified drop counters of the ISSUE's accounting satellite."""

    def test_fabric_detach_midflight_counts_sink_detached(
        self, simulator, fabric_setup
    ):
        fabric, a, b = fabric_setup
        a.send(make_syn(a.primary_address, b.primary_address, 1000, 80))
        # The packet is in flight (latency 1 ms); the sink detaches
        # before it lands.
        fabric.detach_node(b)
        simulator.run()
        assert b.received == []
        assert fabric.stats.packets_dropped_sink_detached == 1
        assert fabric.stats.packets_dropped_no_route == 0

    def test_fabric_send_after_detach_is_no_route(self, simulator, fabric_setup):
        fabric, a, b = fabric_setup
        target = b.primary_address
        fabric.detach_node(b)
        a.send(make_syn(a.primary_address, target, 1000, 80))
        simulator.run()
        # The address is unbound at send time, so the drop is a routing
        # miss, not a detached sink (documented in docs/architecture.md).
        assert fabric.stats.packets_dropped_no_route == 1
        assert fabric.stats.packets_dropped_sink_detached == 0

    def test_fabric_packets_dropped_is_the_unified_total(
        self, simulator, fabric_setup
    ):
        fabric, a, b = fabric_setup
        target = b.primary_address
        a.send(make_syn(a.primary_address, b.primary_address, 1000, 80))
        fabric.detach_node(b)
        a.send(make_syn(a.primary_address, target, 1000, 80))
        simulator.run()
        assert fabric.stats.packets_dropped == 2

    def test_fabric_reattach_makes_the_sink_live_again(
        self, simulator, fabric_setup
    ):
        fabric, a, b = fabric_setup
        fabric.detach_node(b)
        b.attach(fabric)
        a.send(make_syn(a.primary_address, b.primary_address, 1000, 80))
        simulator.run()
        assert len(b.received) == 1
        assert fabric.stats.packets_dropped_sink_detached == 0

    def test_fabric_reattach_midflight_delivers_the_packet(
        self, simulator, fabric_setup
    ):
        fabric, a, b = fabric_setup
        packet = make_syn(a.primary_address, b.primary_address, 1000, 80)
        a.send(packet)
        fabric.detach_node(b)
        b.attach(fabric)  # back before the packet lands
        simulator.run()
        assert b.received == [packet]
        assert fabric.stats.packets_dropped_sink_detached == 0

    def test_fabric_detach_through_a_fault_pipeline(self, simulator, fabric_setup):
        from repro.net.faults import FaultConfig, install_fault_channel

        fabric, a, b = fabric_setup
        install_fault_channel(simulator, fabric, FaultConfig(jitter_mean=1e-3))
        a.send(make_syn(a.primary_address, b.primary_address, 1000, 80))
        a.send(make_syn(a.primary_address, a.primary_address, 1000, 80))
        fabric.detach_node(b)
        simulator.run()
        assert b.received == []
        assert len(a.received) == 1  # other sinks are untouched
        assert fabric.stats.packets_dropped_sink_detached == 1

    def test_fabric_detach_unknown_node_rejected(self, simulator, fabric_setup):
        fabric, a, b = fabric_setup
        stranger = RecordingNode(simulator, "stranger")
        with pytest.raises(NetworkError):
            fabric.detach_node(stranger)
