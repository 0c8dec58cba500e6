"""Unit tests for the server-side virtual router (ServerNode)."""

import pytest

from repro.core.policies import NeverAcceptPolicy, StaticThresholdPolicy
from repro.errors import ServerError
from repro.net.addressing import IPv6Address
from repro.net.fabric import LANFabric
from repro.net.packet import Packet, TCPFlag, TCPSegment, make_syn
from repro.net.router import NetworkNode
from repro.net.srh import SegmentRoutingHeader
from repro.server.cpu import ProcessorSharingCPU
from repro.server.http_server import HTTPServerInstance
from repro.server.virtual_router import ServerNode


def _addr(text):
    return IPv6Address.parse(text)


CLIENT = _addr("fd00:200::1")
VIP = _addr("fd00:300::1")
LB_ADDRESS = _addr("fd00:400::1")
SERVER1 = _addr("fd00:100::1")
SERVER2 = _addr("fd00:100::2")


class StubNode(NetworkNode):
    def __init__(self, simulator, name, address):
        super().__init__(simulator, name)
        self.add_address(address)
        self.received = []

    def handle_packet(self, packet):
        self.received.append(packet)


def _make_server_node(simulator, fabric, address, policy, demand=0.05, workers=4):
    cpu = ProcessorSharingCPU(simulator, num_cores=2)
    app = HTTPServerInstance(
        simulator,
        name=f"apache-{address}",
        cpu=cpu,
        num_workers=workers,
        backlog_capacity=8,
        demand_lookup=lambda request_id: demand,
    )
    node = ServerNode(
        simulator,
        name=f"server-{address}",
        address=address,
        app=app,
        policy=policy,
        load_balancer_address=LB_ADDRESS,
    )
    node.bind_vip(VIP)
    node.attach(fabric)
    return node


@pytest.fixture
def router_setup(simulator):
    fabric = LANFabric(simulator, latency=1e-6)
    lb_stub = StubNode(simulator, "lb", LB_ADDRESS)
    client_stub = StubNode(simulator, "client", CLIENT)
    lb_stub.attach(fabric)
    client_stub.attach(fabric)
    return fabric, lb_stub, client_stub


def _hunting_syn(first, second, port=20_000, request_id=1):
    packet = make_syn(CLIENT, VIP, port, 80, request_id=request_id)
    packet.attach_srh(SegmentRoutingHeader.from_traversal([first, second, VIP]))
    return packet


class TestServiceHuntingDataPath:
    def test_accepting_server_answers_with_steering_syn_ack(self, simulator, router_setup):
        fabric, lb_stub, client_stub = router_setup
        node = _make_server_node(simulator, fabric, SERVER1, StaticThresholdPolicy(4))
        node.receive(_hunting_syn(SERVER1, SERVER2))
        simulator.run()
        # The SYN-ACK goes through the load balancer with the steering SRH.
        assert len(lb_stub.received) == 1
        syn_ack = lb_stub.received[0]
        assert TCPFlag.SYN in syn_ack.tcp.flags and TCPFlag.ACK in syn_ack.tcp.flags
        assert syn_ack.src == VIP
        assert list(syn_ack.srh.traversal_order()) == [SERVER1, LB_ADDRESS, CLIENT]
        assert syn_ack.srh.active_segment == LB_ADDRESS
        assert node.hunting.stats.accepted_by_choice == 1

    def test_refusing_server_forwards_to_second_candidate(self, simulator, router_setup):
        fabric, lb_stub, client_stub = router_setup
        refusing = _make_server_node(simulator, fabric, SERVER1, NeverAcceptPolicy())
        accepting = _make_server_node(simulator, fabric, SERVER2, StaticThresholdPolicy(4))
        refusing.receive(_hunting_syn(SERVER1, SERVER2))
        simulator.run()
        # The second server accepted (forced) and answered through the LB.
        assert refusing.hunting.stats.refused == 1
        assert accepting.hunting.stats.accepted_forced == 1
        assert len(lb_stub.received) == 1
        assert list(lb_stub.received[0].srh.traversal_order())[0] == SERVER2

    def test_request_data_is_served_and_response_goes_to_client(self, simulator, router_setup):
        fabric, lb_stub, client_stub = router_setup
        node = _make_server_node(simulator, fabric, SERVER1, StaticThresholdPolicy(4))
        node.receive(_hunting_syn(SERVER1, SERVER2, request_id=42))
        # Steered request data (as the LB would deliver it mid-flow).
        data = Packet(
            src=CLIENT,
            dst=SERVER1,
            tcp=TCPSegment(
                src_port=20_000,
                dst_port=80,
                flags=TCPFlag.PSH | TCPFlag.ACK,
                payload_size=200,
                request_id=42,
            ),
            srh=SegmentRoutingHeader(segments=[VIP, SERVER1], segments_left=1),
        )
        node.receive(data)
        simulator.run()
        responses = [packet for packet in client_stub.received if packet.tcp.payload_size > 0]
        assert len(responses) == 1
        assert responses[0].src == VIP
        assert responses[0].tcp.request_id == 42
        assert node.app.stats.requests_served == 1

    def test_backlog_overflow_sends_rst_directly_to_client(self, simulator, router_setup):
        fabric, lb_stub, client_stub = router_setup
        node = _make_server_node(
            simulator, fabric, SERVER1, StaticThresholdPolicy(100), workers=1, demand=10.0
        )
        node.app.backlog.capacity = 1
        # First SYN takes the worker, second fills the backlog, third overflows.
        for port in (20_000, 20_001, 20_002):
            node.receive(_hunting_syn(SERVER1, SERVER2, port=port, request_id=port))
        simulator.run(until=0.1)
        resets = [packet for packet in client_stub.received if TCPFlag.RST in packet.tcp.flags]
        assert len(resets) == 1
        assert resets[0].dst == CLIENT

    def test_rst_from_client_is_ignored(self, simulator, router_setup):
        fabric, lb_stub, client_stub = router_setup
        node = _make_server_node(simulator, fabric, SERVER1, StaticThresholdPolicy(4))
        rst = Packet(
            src=CLIENT,
            dst=SERVER1,
            tcp=TCPSegment(src_port=20_000, dst_port=80, flags=TCPFlag.RST),
        )
        node.receive(rst)
        simulator.run()
        assert node.app.stats.connections_received == 0

    def test_packet_for_unknown_destination_raises(self, simulator, router_setup):
        fabric, lb_stub, client_stub = router_setup
        node = _make_server_node(simulator, fabric, SERVER1, StaticThresholdPolicy(4))
        stray = make_syn(CLIENT, _addr("fd00:100::77"), 20_000, 80)
        with pytest.raises(ServerError):
            node.receive(stray)

    def test_busy_threads_reflects_application(self, simulator, router_setup):
        fabric, lb_stub, client_stub = router_setup
        node = _make_server_node(
            simulator, fabric, SERVER1, StaticThresholdPolicy(4), demand=5.0
        )
        node.receive(_hunting_syn(SERVER1, SERVER2, request_id=1))
        data = Packet(
            src=CLIENT,
            dst=SERVER1,
            tcp=TCPSegment(
                src_port=20_000, dst_port=80, flags=TCPFlag.PSH | TCPFlag.ACK,
                payload_size=100, request_id=1,
            ),
            srh=SegmentRoutingHeader(segments=[VIP, SERVER1], segments_left=1),
        )
        node.receive(data)
        simulator.run(until=0.5)
        assert node.busy_threads == 1
