"""Property test: a recycled packet is indistinguishable from a fresh one.

The :class:`~repro.net.packet.PacketPool` claims that re-running the
constructor on a carcass resets *every* observable field, no matter what
the packet went through during its previous life.  This test drives a
pooled packet through arbitrary mutation sequences (attach/strip SRH,
destination reassignment, flow-key cache reads, SRH advancement), kills
and recycles it, and then checks the reincarnation field-for-field
against a never-pooled packet built from the same arguments.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addressing import IPv6Address
from repro.net.packet import Packet, PacketPool, TCPFlag, TCPSegment
from repro.net.srh import SegmentRoutingHeader

#: Small address universe; collisions between the lives are the point.
addresses = st.integers(min_value=1, max_value=12).map(
    lambda value: IPv6Address(0x2001_0DB8 << 96 | value)
)
ports = st.integers(min_value=1, max_value=65535)
flags = st.sampled_from(
    [TCPFlag.SYN, TCPFlag.SYN | TCPFlag.ACK, TCPFlag.ACK, TCPFlag.RST,
     TCPFlag.PSH | TCPFlag.ACK]
)

#: One mutation step of a packet's first life.
operations = st.one_of(
    st.tuples(st.just("attach_srh"), st.lists(addresses, min_size=2, max_size=4)),
    st.tuples(st.just("strip_srh"), st.none()),
    st.tuples(st.just("set_dst"), addresses),
    st.tuples(st.just("read_flow_key"), st.none()),
    st.tuples(st.just("advance_srh"), st.none()),
)


def _packet_args(src, dst, src_port, dst_port, flag, payload, created_at):
    return dict(
        src=src,
        dst=dst,
        tcp=TCPSegment(
            src_port=src_port, dst_port=dst_port, flags=flag, payload_size=payload
        ),
        created_at=created_at,
    )


def _apply(packet, ops):
    """Run one mutation sequence; invalid steps are skipped, not errors."""
    for name, arg in ops:
        if name == "attach_srh":
            packet.attach_srh(SegmentRoutingHeader.from_traversal(arg))
        elif name == "strip_srh" and packet.srh is not None:
            # The load balancer's strip, written as data: the header goes
            # and the destination becomes its final segment.
            final = packet.srh.segments[0]
            packet.srh = None
            packet._dst = final
        elif name == "set_dst":
            packet.dst = arg
        elif name == "read_flow_key":
            packet.flow_key()
        elif name == "advance_srh" and packet.srh is not None:
            if packet.srh.segments_left > 0:
                packet.advance_srh()


def _assert_field_for_field(pooled, fresh):
    assert pooled.src == fresh.src
    assert pooled.dst == fresh.dst
    assert pooled.srh == fresh.srh
    assert pooled.hop_limit == fresh.hop_limit
    assert pooled.created_at == fresh.created_at
    assert pooled.tcp == fresh.tcp
    assert pooled.flow_key() == fresh.flow_key()
    # The cached key must describe the *current* life, not the previous
    # one: recompute from scratch and compare.
    rebuilt = Packet(
        src=pooled.src,
        dst=pooled.dst,
        tcp=pooled.tcp,
        created_at=pooled.created_at,
        packet_id=pooled.packet_id,
    )
    assert pooled.flow_key() == rebuilt.flow_key()


@given(
    first_life=st.tuples(addresses, addresses, ports, ports, flags,
                         st.integers(min_value=0, max_value=4000)),
    ops=st.lists(operations, max_size=8),
    second_life=st.tuples(addresses, addresses, ports, ports, flags,
                          st.integers(min_value=0, max_value=4000)),
)
@settings(max_examples=120, deadline=None)
def test_recycled_packet_equals_fresh_packet(first_life, ops, second_life):
    pool = PacketPool()

    src, dst, sport, dport, flag, payload = first_life
    packet = pool.acquire(**_packet_args(src, dst, sport, dport, flag, payload, 1.0))
    _apply(packet, ops)
    pool.release(packet)

    src, dst, sport, dport, flag, payload = second_life
    args = _packet_args(src, dst, sport, dport, flag, payload, 2.5)
    pooled = pool.acquire(**args)
    assert pooled is packet  # the carcass really was recycled
    fresh = Packet(**args)
    _assert_field_for_field(pooled, fresh)
    # Ids keep drawing from the same global counter: consecutive draws.
    assert fresh.packet_id == pooled.packet_id + 1


@given(
    life=st.tuples(addresses, addresses, ports, ports, flags,
                   st.integers(min_value=0, max_value=4000)),
    ops=st.lists(operations, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_released_carcass_holds_no_references(life, ops):
    pool = PacketPool()
    src, dst, sport, dport, flag, payload = life
    packet = pool.acquire(**_packet_args(src, dst, sport, dport, flag, payload, 0.0))
    _apply(packet, ops)
    pool.release(packet)
    assert packet.tcp is None
    assert packet.srh is None
    assert packet._flow_key is None
