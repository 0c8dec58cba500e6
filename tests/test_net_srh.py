"""Unit tests for the Segment Routing header."""

import pytest

from repro.errors import SegmentRoutingError
from repro.net.addressing import IPv6Address
from repro.net.srh import SegmentRoutingHeader


def _addr(suffix: int) -> IPv6Address:
    return IPv6Address.parse(f"fd00:100::{suffix:x}")


class TestConstruction:
    def test_from_traversal_sets_active_to_first_hop(self):
        srh = SegmentRoutingHeader.from_traversal([_addr(1), _addr(2), _addr(3)])
        assert srh.active_segment == _addr(1)
        assert srh.segments[0] == _addr(3)
        assert srh.segments_left == 2

    def test_from_traversal_preserves_order(self):
        path = [_addr(1), _addr(2), _addr(3)]
        srh = SegmentRoutingHeader.from_traversal(path)
        assert list(srh.traversal_order()) == path

    def test_empty_traversal_rejected(self):
        with pytest.raises(SegmentRoutingError):
            SegmentRoutingHeader.from_traversal([])

    def test_empty_segment_list_rejected(self):
        with pytest.raises(SegmentRoutingError):
            SegmentRoutingHeader(segments=[], segments_left=0)

    def test_segments_left_out_of_range_rejected(self):
        with pytest.raises(SegmentRoutingError):
            SegmentRoutingHeader(segments=[_addr(1)], segments_left=1)

    def test_single_segment_is_immediately_exhausted(self):
        srh = SegmentRoutingHeader.from_traversal([_addr(1)])
        assert srh.segments_left == 0
        assert srh.active_segment == _addr(1)


class TestAdvance:
    def test_advance_walks_the_traversal(self):
        srh = SegmentRoutingHeader.from_traversal([_addr(1), _addr(2), _addr(3)])
        assert srh.advance() == _addr(2)
        assert srh.advance() == _addr(3)
        assert srh.segments_left == 0

    def test_advance_exhausted_raises(self):
        srh = SegmentRoutingHeader.from_traversal([_addr(1)])
        with pytest.raises(SegmentRoutingError):
            srh.advance()

class TestSetSegmentsLeft:
    def test_service_hunting_accept_jumps_to_final_segment(self):
        srh = SegmentRoutingHeader.from_traversal([_addr(1), _addr(2), _addr(9)])
        new_active = srh.set_segments_left(0)
        assert new_active == _addr(9)
        assert srh.segments_left == 0

    def test_segments_left_cannot_increase(self):
        srh = SegmentRoutingHeader.from_traversal([_addr(1), _addr(2), _addr(3)])
        srh.set_segments_left(1)
        with pytest.raises(SegmentRoutingError):
            srh.set_segments_left(2)

    def test_negative_rejected(self):
        srh = SegmentRoutingHeader.from_traversal([_addr(1), _addr(2)])
        with pytest.raises(SegmentRoutingError):
            srh.set_segments_left(-1)


class TestMisc:

    def test_str_shows_traversal_order(self):
        srh = SegmentRoutingHeader.from_traversal([_addr(1), _addr(2)])
        text = str(srh)
        assert text.index("fd00:100::1") < text.index("fd00:100::2")
