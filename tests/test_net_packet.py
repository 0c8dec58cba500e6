"""Unit tests for the packet and TCP-segment value objects."""

import pytest

from repro.errors import NetworkError
from repro.net.addressing import IPv6Address
from repro.net.packet import FlowKey, Packet, TCPFlag, TCPSegment, make_syn
from repro.net.srh import SegmentRoutingHeader


def _addr(text: str) -> IPv6Address:
    return IPv6Address.parse(text)


class TestTCPSegment:
    def test_invalid_ports_rejected(self):
        with pytest.raises(NetworkError):
            TCPSegment(src_port=0, dst_port=80)
        with pytest.raises(NetworkError):
            TCPSegment(src_port=1000, dst_port=70000)

    def test_negative_payload_rejected(self):
        with pytest.raises(NetworkError):
            TCPSegment(src_port=1000, dst_port=80, payload_size=-1)


class TestFlowKey:
    def test_hashable(self):
        key = FlowKey(_addr("fd00:200::1"), 1234, _addr("fd00:300::1"), 80)
        same = FlowKey(_addr("fd00:200::1"), 1234, _addr("fd00:300::1"), 80)
        assert len({key, same}) == 1


class TestPacket:
    def test_make_syn(self):
        packet = make_syn(_addr("fd00:200::1"), _addr("fd00:300::1"), 1234, 80, request_id=7)
        assert packet.tcp.flags == TCPFlag.SYN
        assert packet.tcp.request_id == 7
        assert packet.dst == _addr("fd00:300::1")

    def test_flow_key_uses_final_destination_with_srh(self):
        packet = make_syn(_addr("fd00:200::1"), _addr("fd00:300::1"), 1234, 80)
        srh = SegmentRoutingHeader.from_traversal(
            [_addr("fd00:100::1"), _addr("fd00:100::2"), _addr("fd00:300::1")]
        )
        packet.attach_srh(srh)
        key = packet.flow_key()
        assert key.dst_address == _addr("fd00:300::1")
        assert packet.dst == _addr("fd00:100::1")

    def test_attach_srh_points_destination_at_active_segment(self):
        packet = make_syn(_addr("fd00:200::1"), _addr("fd00:300::1"), 1234, 80)
        srh = SegmentRoutingHeader.from_traversal(
            [_addr("fd00:100::1"), _addr("fd00:300::1")]
        )
        packet.attach_srh(srh)
        assert packet.dst == _addr("fd00:100::1")

    def test_advance_srh_updates_destination(self):
        packet = make_syn(_addr("fd00:200::1"), _addr("fd00:300::1"), 1234, 80)
        packet.attach_srh(
            SegmentRoutingHeader.from_traversal(
                [_addr("fd00:100::1"), _addr("fd00:100::2"), _addr("fd00:300::1")]
            )
        )
        packet.advance_srh()
        assert packet.dst == _addr("fd00:100::2")

    def test_set_segments_left_updates_destination(self):
        packet = make_syn(_addr("fd00:200::1"), _addr("fd00:300::1"), 1234, 80)
        packet.attach_srh(
            SegmentRoutingHeader.from_traversal(
                [_addr("fd00:100::1"), _addr("fd00:100::2"), _addr("fd00:300::1")]
            )
        )
        packet.set_segments_left(0)
        assert packet.dst == _addr("fd00:300::1")

    def test_advance_without_srh_raises(self):
        packet = make_syn(_addr("fd00:200::1"), _addr("fd00:300::1"), 1234, 80)
        with pytest.raises(NetworkError):
            packet.advance_srh()

    def test_constructor_enforces_active_segment_invariant(self):
        srh = SegmentRoutingHeader.from_traversal(
            [_addr("fd00:100::1"), _addr("fd00:300::1")]
        )
        with pytest.raises(NetworkError):
            Packet(
                src=_addr("fd00:200::1"),
                dst=_addr("fd00:300::1"),  # wrong: active segment is fd00:100::1
                tcp=TCPSegment(src_port=1, dst_port=80),
                srh=srh,
            )

    def test_unique_packet_ids(self):
        first = make_syn(_addr("fd00:200::1"), _addr("fd00:300::1"), 1234, 80)
        second = make_syn(_addr("fd00:200::1"), _addr("fd00:300::1"), 1234, 80)
        assert first.packet_id != second.packet_id

    def test_describe_mentions_flags_and_endpoints(self):
        packet = make_syn(_addr("fd00:200::1"), _addr("fd00:300::1"), 1234, 80)
        text = packet.describe()
        assert "SYN" in text
        assert "fd00:200::1" in text


def _fresh_flow_key(packet: Packet) -> FlowKey:
    """Compute the flow key from first principles, bypassing the cache."""
    return FlowKey(
        src_address=packet.src,
        src_port=packet.tcp.src_port,
        dst_address=packet.srh.segments[0] if packet.srh is not None else packet.dst,
        dst_port=packet.tcp.dst_port,
    )


class TestFlowKeyCache:
    """``Packet.flow_key()`` is cached; every sanctioned mutation must
    leave it equal to a freshly computed key."""

    def _packet(self) -> Packet:
        return make_syn(_addr("fd00:200::1"), _addr("fd00:300::1"), 1234, 80)

    def _srh(self) -> SegmentRoutingHeader:
        return SegmentRoutingHeader.from_traversal(
            [_addr("fd00:100::1"), _addr("fd00:100::2"), _addr("fd00:300::1")]
        )

    def test_repeated_calls_return_the_same_object(self):
        packet = self._packet()
        assert packet.flow_key() is packet.flow_key()

    def test_attach_srh_invalidates(self):
        packet = self._packet()
        before = packet.flow_key()
        packet.attach_srh(
            SegmentRoutingHeader.from_traversal(
                [_addr("fd00:100::1"), _addr("fd00:300::2")]
            )
        )
        assert packet.flow_key() == _fresh_flow_key(packet)
        assert packet.flow_key().dst_address == _addr("fd00:300::2")
        assert packet.flow_key() != before

    def test_advance_and_set_segments_left_preserve_the_key(self):
        packet = self._packet()
        packet.attach_srh(self._srh())
        key = packet.flow_key()
        packet.advance_srh()
        assert packet.flow_key() == _fresh_flow_key(packet) == key
        packet.set_segments_left(0)
        assert packet.flow_key() == _fresh_flow_key(packet) == key

    def test_stripping_the_srh_at_its_final_segment_keeps_the_key(self):
        # The load balancer's strip, as the data path writes it: the
        # header goes and the destination becomes its final segment.
        packet = self._packet()
        packet.attach_srh(self._srh())
        key = packet.flow_key()
        final = packet.srh.segments[0]
        packet.srh = None
        packet._dst = final
        assert packet.flow_key() == _fresh_flow_key(packet) == key
        assert packet.flow_key().dst_address == _addr("fd00:300::1")

