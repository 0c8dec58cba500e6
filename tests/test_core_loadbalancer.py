"""Unit tests for the SRLB load-balancer node.

The load balancer is exercised against a fabric with recording stub
servers, so these tests observe the exact SR headers it emits without
involving the full application-server stack (the end-to-end behaviour is
covered by the integration tests).
"""

import pytest

from repro.core.candidate_selection import RoundRobinCandidateSelector
from repro.core.loadbalancer import LoadBalancerNode
from repro.errors import LoadBalancerError
from repro.net.addressing import IPv6Address
from repro.net.fabric import LANFabric
from repro.net.packet import FlowKey, Packet, TCPFlag, TCPSegment, make_syn
from repro.net.router import NetworkNode
from repro.net.srh import SegmentRoutingHeader


def _addr(text):
    return IPv6Address.parse(text)


CLIENT = _addr("fd00:200::1")
VIP = _addr("fd00:300::1")
LB_ADDRESS = _addr("fd00:400::1")


class StubNode(NetworkNode):
    """Sink node recording everything delivered to it."""

    def __init__(self, simulator, name, address):
        super().__init__(simulator, name)
        self.add_address(address)
        self.received = []

    def handle_packet(self, packet):
        self.received.append(packet)


@pytest.fixture
def lb_setup(simulator):
    fabric = LANFabric(simulator, latency=1e-6)
    servers = [
        StubNode(simulator, f"server-{index}", _addr(f"fd00:100::{index + 1:x}"))
        for index in range(4)
    ]
    client = StubNode(simulator, "client", CLIENT)
    selector = RoundRobinCandidateSelector(num_candidates=2)
    lb = LoadBalancerNode(simulator, "lb", LB_ADDRESS, selector)
    lb.register_vip(VIP, [server.primary_address for server in servers])
    for node in servers + [client]:
        node.attach(fabric)
    lb.attach(fabric)
    return fabric, lb, servers, client


def _client_syn(port=20_000, request_id=1):
    return make_syn(CLIENT, VIP, port, 80, request_id=request_id)


class TestNewFlowDispatch:
    def test_syn_gets_sr_header_with_two_candidates_and_vip(self, simulator, lb_setup):
        fabric, lb, servers, client = lb_setup
        lb.receive(_client_syn())
        simulator.run()
        delivered = [packet for server in servers for packet in server.received]
        assert len(delivered) == 1
        packet = delivered[0]
        assert packet.srh is not None
        traversal = list(packet.srh.traversal_order())
        assert len(traversal) == 3
        assert traversal[-1] == VIP
        assert packet.srh.segments_left == 2
        assert packet.dst == traversal[0]
        assert lb.stats.syn_dispatched == 1

    def test_round_robin_selector_rotates_first_candidate(self, simulator, lb_setup):
        fabric, lb, servers, client = lb_setup
        for port in range(20_000, 20_004):
            lb.receive(_client_syn(port=port))
        simulator.run()
        # With the round-robin selector each server got exactly one SYN.
        assert [len(server.received) for server in servers] == [1, 1, 1, 1]

    def test_snapshot_counts_each_dispatched_syn_once(self, simulator, lb_setup):
        fabric, lb, servers, client = lb_setup
        for port in range(20_000, 20_008):
            lb.receive(_client_syn(port=port))
        simulator.run()
        assert lb.stats.snapshot() == {
            "syn_dispatched": 8,
            "steering_packets": 0,
            "steering_misses": 0,
            "acceptances_learned": 0,
            "resets_sent": 0,
            "unknown_vip_drops": 0,
        }
        assert sum(len(server.received) for server in servers) == 8

    def test_unknown_vip_is_dropped(self, simulator, lb_setup):
        fabric, lb, servers, client = lb_setup
        stray = make_syn(CLIENT, _addr("fd00:300::99"), 20_000, 80)
        lb.receive(stray)
        simulator.run()
        assert lb.stats.unknown_vip_drops == 1
        assert all(not server.received for server in servers)


class TestSteering:
    def _learn_flow(self, simulator, lb, servers, client, port=20_000):
        """Simulate the accepting server's SYN-ACK reaching the LB."""
        server = servers[1]
        srh = SegmentRoutingHeader.from_traversal(
            [server.primary_address, LB_ADDRESS, CLIENT]
        )
        srh.advance()  # the server's own segment is consumed on send
        syn_ack = Packet(
            src=VIP,
            dst=LB_ADDRESS,
            tcp=TCPSegment(src_port=80, dst_port=port, flags=TCPFlag.SYN | TCPFlag.ACK),
            srh=srh,
        )
        lb.receive(syn_ack)
        simulator.run()
        return server

    def test_syn_ack_installs_steering_and_reaches_client(self, simulator, lb_setup):
        fabric, lb, servers, client = lb_setup
        server = self._learn_flow(simulator, lb, servers, client)
        assert lb.stats.acceptances_learned == 1
        assert len(lb.flow_table) == 1
        assert len(client.received) == 1
        forwarded = client.received[0]
        assert forwarded.srh is None
        assert forwarded.dst == CLIENT

    def test_mid_flow_packet_is_steered_to_accepting_server(self, simulator, lb_setup):
        fabric, lb, servers, client = lb_setup
        server = self._learn_flow(simulator, lb, servers, client, port=20_000)
        data = Packet(
            src=CLIENT,
            dst=VIP,
            tcp=TCPSegment(
                src_port=20_000, dst_port=80, flags=TCPFlag.PSH | TCPFlag.ACK, payload_size=100
            ),
        )
        lb.receive(data)
        simulator.run()
        steered = server.received[-1]
        assert steered.srh is not None
        assert list(steered.srh.traversal_order()) == [server.primary_address, VIP]
        assert steered.srh.segments_left == 1
        assert lb.stats.steering_packets == 1

    def test_mid_flow_packet_without_state_gets_reset(self, simulator, lb_setup):
        fabric, lb, servers, client = lb_setup
        orphan = Packet(
            src=CLIENT,
            dst=VIP,
            tcp=TCPSegment(
                src_port=30_000, dst_port=80, flags=TCPFlag.PSH | TCPFlag.ACK, payload_size=100
            ),
        )
        lb.receive(orphan)
        simulator.run()
        assert lb.stats.steering_misses == 1
        assert lb.stats.resets_sent == 1
        assert TCPFlag.RST in client.received[-1].tcp.flags

class TestBackendManagement:
    def test_register_requires_servers(self, simulator):
        lb = LoadBalancerNode(
            simulator, "lb", LB_ADDRESS, RoundRobinCandidateSelector(num_candidates=1)
        )
        with pytest.raises(LoadBalancerError):
            lb.register_vip(VIP, [])

    def test_add_and_remove_backend(self, simulator, lb_setup):
        fabric, lb, servers, client = lb_setup
        extra = _addr("fd00:100::99")
        lb.add_backend(VIP, extra)
        assert extra in lb.backends_for(VIP)
        assert lb.remove_backend(VIP, extra) is True
        assert lb.remove_backend(VIP, extra) is False

    def test_cannot_empty_a_vip_pool(self, simulator):
        lb = LoadBalancerNode(
            simulator, "lb", LB_ADDRESS, RoundRobinCandidateSelector(num_candidates=1)
        )
        only = _addr("fd00:100::1")
        lb.register_vip(VIP, [only])
        with pytest.raises(LoadBalancerError):
            lb.remove_backend(VIP, only)

    def test_unregistered_vip_rejected(self, simulator):
        lb = LoadBalancerNode(
            simulator, "lb", LB_ADDRESS, RoundRobinCandidateSelector(num_candidates=1)
        )
        with pytest.raises(LoadBalancerError):
            lb.backends_for(VIP)


class TestHousekeeping:
    def test_flow_expiry_task_removes_idle_entries(self, simulator, lb_setup):
        fabric, lb, servers, client = lb_setup
        lb.flow_table.learn(
            FlowKey(CLIENT, 20_000, VIP, 80),
            servers[0].primary_address,
            now=simulator.now,
        )
        lb.start_housekeeping(interval=1.0)
        simulator.schedule_at(lb.flow_table.idle_timeout + 5.0, lb.stop_housekeeping)
        simulator.run()
        assert len(lb.flow_table) == 0
