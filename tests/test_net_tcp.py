"""Unit tests for the simplified TCP model."""

import pytest

from repro.errors import TCPError
from repro.net.addressing import IPv6Address
from repro.net.packet import FlowKey, TCPFlag
from repro.net.tcp import (
    ConnectionState,
    EphemeralPortAllocator,
    TCPConnection,
    classify_segment,
)


def _flow_key() -> FlowKey:
    return FlowKey(
        IPv6Address.parse("fd00:200::1"), 20_000, IPv6Address.parse("fd00:300::1"), 80
    )


class TestTCPConnection:
    def test_client_handshake_transitions(self):
        connection = TCPConnection(flow_key=_flow_key())
        connection.transition(ConnectionState.SYN_SENT, at=1.0)
        connection.transition(ConnectionState.ESTABLISHED, at=2.0)
        connection.transition(ConnectionState.CLOSED, at=3.0)
        assert connection.opened_at == 1.0
        assert connection.established_at == 2.0
        assert connection.closed_at == 3.0

    def test_server_handshake_transitions(self):
        connection = TCPConnection(flow_key=_flow_key())
        connection.transition(ConnectionState.SYN_RECEIVED)
        connection.transition(ConnectionState.ESTABLISHED)
        connection.transition(ConnectionState.FIN_WAIT)
        connection.transition(ConnectionState.CLOSED)
        assert connection.state is ConnectionState.CLOSED

    def test_reset_path(self):
        connection = TCPConnection(flow_key=_flow_key())
        connection.transition(ConnectionState.SYN_SENT)
        connection.transition(ConnectionState.RESET, at=5.0)
        assert connection.state is ConnectionState.RESET
        assert connection.closed_at == 5.0

    def test_illegal_transition_raises(self):
        connection = TCPConnection(flow_key=_flow_key())
        with pytest.raises(TCPError):
            connection.transition(ConnectionState.ESTABLISHED)

    def test_reset_is_terminal(self):
        connection = TCPConnection(flow_key=_flow_key())
        connection.transition(ConnectionState.SYN_SENT)
        connection.transition(ConnectionState.RESET)
        with pytest.raises(TCPError):
            connection.transition(ConnectionState.CLOSED)

class TestEphemeralPortAllocator:
    def test_sequential_ports(self):
        allocator = EphemeralPortAllocator(base=10_000, count=100)
        assert allocator.allocate() == 10_000
        assert allocator.allocate() == 10_001

    def test_wraps_around(self):
        allocator = EphemeralPortAllocator(base=10_000, count=3)
        ports = [allocator.allocate() for _ in range(5)]
        assert ports == [10_000, 10_001, 10_002, 10_000, 10_001]

    def test_invalid_base_rejected(self):
        with pytest.raises(TCPError):
            EphemeralPortAllocator(base=0)

    def test_range_exceeding_port_space_rejected(self):
        with pytest.raises(TCPError):
            EphemeralPortAllocator(base=60_000, count=10_000)


class TestClassifySegment:
    def test_syn(self):
        assert classify_segment(TCPFlag.SYN) == "syn"

    def test_syn_ack(self):
        assert classify_segment(TCPFlag.SYN | TCPFlag.ACK) == "syn-ack"

    def test_rst_wins_over_everything(self):
        assert classify_segment(TCPFlag.RST | TCPFlag.ACK) == "rst"

    def test_data(self):
        assert classify_segment(TCPFlag.PSH | TCPFlag.ACK) == "data"

    def test_bare_ack(self):
        assert classify_segment(TCPFlag.ACK) == "ack"

    def test_fin(self):
        assert classify_segment(TCPFlag.FIN | TCPFlag.ACK) == "fin"

    def test_none(self):
        assert classify_segment(TCPFlag.NONE) == "other"
