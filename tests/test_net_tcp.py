"""Unit tests for the simplified TCP model."""

import pytest

from repro.errors import TCPError
from repro.net.packet import TCPFlag
from repro.net.tcp import EphemeralPortAllocator, classify_segment


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
