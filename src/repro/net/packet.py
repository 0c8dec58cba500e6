"""Packet and TCP-segment models.

The reproduction simulates traffic at packet grain: each HTTP query is a
short TCP conversation (SYN, SYN-ACK, request, response, reset on
overload), and the Service Hunting logic manipulates the Segment Routing
header carried by individual packets.  The classes here are deliberately
small value objects; behaviour lives in the nodes that send and receive
them.

The packet and segment classes are slotted and hand-written: the
simulator creates a handful of packets per query and reads their flow
identity at every hop, so the dataclass machinery this replaced
(generated ``__init__``/``__eq__`` plus per-call flow-key construction)
was measurable across a full replay.

A packet's flow key is data: the constructor builds it, and the
per-hop handlers read ``packet._flow_key`` (what :meth:`Packet.flow_key`
returns) without a call.  It is rebuilt by the one mutation that can
change the flow identity, attaching an SRH, while SRH *advancement*
(``advance_srh``/``set_segments_left``) keeps it, because it can only
move the active segment along a fixed segment list whose final segment
(the flow's true destination) never changes.  The data path also edits
headers as data — it writes ``srh``, ``_dst`` and ``segments_left``
directly — and only in ways that keep the key: the load balancer
attaches headers whose final segment is the packet's current
destination (the VIP) and strips a header (``srh = None``) while
pointing the destination at its final segment, and the servers only
move ``segments_left`` down.
"""

from __future__ import annotations

import enum
import itertools
from typing import NamedTuple, Optional

from repro.errors import NetworkError
from repro.net.addressing import IPv6Address
from repro.net.srh import SegmentRoutingHeader

#: Fixed IPv6 header size in bytes.
IPV6_HEADER_SIZE = 40
#: Simplified TCP header size in bytes (no options).
TCP_HEADER_SIZE = 20
#: Default hop limit for newly created packets.
DEFAULT_HOP_LIMIT = 64

_packet_ids = itertools.count(1)


class TCPFlag(enum.Flag):
    """TCP control flags used by the simplified TCP model."""

    NONE = 0
    SYN = enum.auto()
    ACK = enum.auto()
    FIN = enum.auto()
    RST = enum.auto()
    PSH = enum.auto()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self is TCPFlag.NONE:
            return "-"
        return "|".join(flag.name for flag in TCPFlag if flag and flag in self)


#: Flag bits as plain integers, for the ``segment.bits & MASK`` tests the
#: per-packet handlers make (``enum.Flag`` arithmetic builds a member per
#: operation), and the two flag combinations the data path sends.
SYN_BIT = TCPFlag.SYN.value
ACK_BIT = TCPFlag.ACK.value
RST_BIT = TCPFlag.RST.value
PSH_BIT = TCPFlag.PSH.value
SYN_ACK_BITS = SYN_BIT | ACK_BIT
SYN = TCPFlag.SYN  # a module global: ``TCPFlag.SYN`` is an enum class lookup
SYN_ACK = TCPFlag.SYN | TCPFlag.ACK
PSH_ACK = TCPFlag.PSH | TCPFlag.ACK


class FlowKey(NamedTuple):
    """The 4-tuple identifying a TCP flow towards a VIP.

    The protocol is implicitly TCP, so only source/destination address
    and port are carried.  The load balancer's flow table, the servers'
    connection index and the consistent-hashing selection scheme are
    keyed by this value; as a tuple of ``int``s its hash and equality
    run in C on every lookup.
    """

    src_address: IPv6Address
    src_port: int
    dst_address: IPv6Address
    dst_port: int

    def __reduce__(self):
        return (FlowKey, tuple(self))

    def __str__(self) -> str:
        return f"{self[0]}:{self[1]} -> {self[2]}:{self[3]}"


#: ``new_flow_key(FlowKey, fields)``: a key without ``__new__``'s frame
#: (the per-packet sites build and reverse keys with it).
new_flow_key = tuple.__new__


class TCPSegment:
    """A (simplified) TCP segment.

    ``request_id`` threads the workload's request identity through the
    network so the metrics collector can match responses to requests
    without deep-packet inspection; real systems achieve the same with
    the flow 5-tuple, which is also available via :class:`FlowKey`.
    """

    __slots__ = ("src_port", "dst_port", "flags", "bits", "payload_size", "request_id")

    def __init__(
        self,
        src_port: int,
        dst_port: int,
        flags: TCPFlag = TCPFlag.NONE,
        payload_size: int = 0,
        request_id: Optional[int] = None,
    ) -> None:
        if not (0 < src_port <= 0xFFFF and 0 < dst_port <= 0xFFFF):
            bad = dst_port if 0 < src_port <= 0xFFFF else src_port
            raise NetworkError(f"invalid TCP port {bad!r}")
        if payload_size < 0:
            raise NetworkError(f"negative TCP payload size {payload_size!r}")
        self.src_port = src_port
        self.dst_port = dst_port
        self.flags = flags
        #: ``flags`` as an integer bit mask (see ``SYN_BIT`` and friends).
        self.bits = flags._value_
        self.payload_size = payload_size
        self.request_id = request_id

    def __eq__(self, other: object) -> bool:
        if other.__class__ is TCPSegment:
            return (
                self.src_port == other.src_port
                and self.dst_port == other.dst_port
                and self.flags == other.flags
                and self.payload_size == other.payload_size
                and self.request_id == other.request_id
            )
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"TCPSegment(src_port={self.src_port!r}, dst_port={self.dst_port!r}, "
            f"flags={self.flags!r}, payload_size={self.payload_size!r}, "
            f"request_id={self.request_id!r})"
        )


class Packet:
    """An IPv6 packet, optionally carrying a Segment Routing header.

    The IPv6 destination address always equals the SRH's active segment
    while an SRH is present — maintaining that invariant is the
    responsibility of whoever inserts or advances the SRH (see
    :meth:`attach_srh` and :meth:`advance_srh`).
    """

    __slots__ = (
        "src",
        "_dst",
        "tcp",
        "srh",
        "hop_limit",
        "packet_id",
        "created_at",
        "_flow_key",
    )

    def __init__(
        self,
        src: IPv6Address,
        dst: IPv6Address,
        tcp: TCPSegment,
        srh: Optional[SegmentRoutingHeader] = None,
        hop_limit: int = DEFAULT_HOP_LIMIT,
        packet_id: Optional[int] = None,
        created_at: float = 0.0,
    ) -> None:
        if hop_limit <= 0:
            raise NetworkError(f"invalid hop limit {hop_limit!r}")
        if srh is not None and srh.segments[srh.segments_left] != dst:
            raise NetworkError(
                "packet destination must equal the SRH active segment "
                f"(dst={dst}, active={srh.active_segment})"
            )
        self.src = src
        self._dst = dst
        self.tcp = tcp
        self.srh = srh
        self.hop_limit = hop_limit
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id
        self.created_at = created_at
        self._flow_key: FlowKey = new_flow_key(FlowKey, (
            src, tcp.src_port, dst if srh is None else srh.segments[0], tcp.dst_port
        ))  # fmt: skip

    @property
    def dst(self) -> IPv6Address:
        """Current IPv6 destination address."""
        return self._dst

    # ------------------------------------------------------------------
    # flow identity
    # ------------------------------------------------------------------
    def flow_key(self) -> FlowKey:
        """Forward-direction flow key of this packet (``_flow_key``)."""
        return self._flow_key

    # ------------------------------------------------------------------
    # segment routing helpers
    # ------------------------------------------------------------------
    def attach_srh(self, srh: SegmentRoutingHeader) -> None:
        """Attach an SRH and point the destination at its active segment.

        The flow's destination becomes the header's final segment, so the
        flow key is rebuilt.
        """
        self.srh = srh
        self._dst = srh.segments[srh.segments_left]
        tcp = self.tcp
        self._flow_key = new_flow_key(FlowKey, (
            self.src, tcp.src_port, srh.segments[0], tcp.dst_port
        ))  # fmt: skip

    def advance_srh(self) -> IPv6Address:
        """Advance the SRH by one segment and update the destination.

        The flow key survives: advancing only decrements
        ``SegmentsLeft``, and the flow key is built from the *final*
        segment, which never moves.
        """
        if self.srh is None:
            raise NetworkError("packet has no SRH to advance")
        self._dst = self.srh.advance()
        return self._dst

    def set_segments_left(self, value: int) -> IPv6Address:
        """Set SegmentsLeft (Service Hunting semantics) and update dst.

        Keeps the cached flow key, for the same reason as
        :meth:`advance_srh`.
        """
        srh = self.srh
        if srh is None:
            raise NetworkError("packet has no SRH")
        if not 0 <= value <= srh.segments_left:
            srh.set_segments_left(value)  # raises; otherwise inlined below
        srh.segments_left = value
        self._dst = srh.segments[value]
        return self._dst

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Packet:
            return (
                self.packet_id == other.packet_id
                and self.src == other.src
                and self._dst == other._dst
                and self.tcp == other.tcp
                and self.srh == other.srh
                and self.hop_limit == other.hop_limit
                and self.created_at == other.created_at
            )
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"Packet(src={self.src!r}, dst={self._dst!r}, tcp={self.tcp!r}, "
            f"srh={self.srh!r}, hop_limit={self.hop_limit!r}, "
            f"packet_id={self.packet_id!r}, created_at={self.created_at!r})"
        )

    def describe(self) -> str:
        """Readable one-line description, used by logging and tests."""
        srh_text = f" {self.srh}" if self.srh is not None else ""
        return (
            f"pkt#{self.packet_id} [{self.tcp.flags}] "
            f"{self.src}:{self.tcp.src_port} -> {self._dst}:{self.tcp.dst_port}"
            f"{srh_text}"
        )


class PacketPool:
    """Free lists of :class:`Packet` and :class:`TCPSegment` objects.

    Nothing in ``src/`` draws from one any more — every node constructs
    its packets plainly.  The class and :func:`make_syn`'s ``pool``
    argument stay because the repository benchmark's
    ``net.packet_build_pooled_ns`` microbenchmark
    (``benchmarks/perf/micro.py``, frozen) still times them; the
    benchmark change that retires that metric deletes both.

    Reuse can never leak state because :meth:`acquire` *re-runs the
    ordinary constructor* on the recycled object: every slot — the
    flow-key cache, SRH, destination, flags, the lot — is reassigned
    through ``__init__`` with full validation, and a fresh ``packet_id``
    is drawn from the same global counter a new object would use.  A
    pooled packet is therefore field-for-field identical to a freshly
    constructed one (pinned by a hypothesis property test).
    """

    __slots__ = ("max_size", "_packets", "_segments", "reused", "released")

    def __init__(self, max_size: int = 4096) -> None:
        if max_size < 0:
            raise NetworkError(f"negative pool size {max_size!r}")
        self.max_size = max_size
        self._packets: list = []
        self._segments: list = []
        #: Acquisitions served from the free list (diagnostics).
        self.reused = 0
        #: Objects returned to the free lists (diagnostics).
        self.released = 0

    def __len__(self) -> int:
        return len(self._packets)

    def acquire(
        self,
        src: IPv6Address,
        dst: IPv6Address,
        tcp: TCPSegment,
        srh: Optional[SegmentRoutingHeader] = None,
        hop_limit: int = DEFAULT_HOP_LIMIT,
        packet_id: Optional[int] = None,
        created_at: float = 0.0,
    ) -> Packet:
        """A packet, recycled when possible; same contract as ``Packet(...)``."""
        packets = self._packets
        if packets:
            packet = packets.pop()
            self.reused += 1
            packet.__init__(src, dst, tcp, srh, hop_limit, packet_id, created_at)
            return packet
        return Packet(src, dst, tcp, srh, hop_limit, packet_id, created_at)

    def acquire_segment(
        self,
        src_port: int,
        dst_port: int,
        flags: TCPFlag = TCPFlag.NONE,
        payload_size: int = 0,
        request_id: Optional[int] = None,
    ) -> TCPSegment:
        """A TCP segment, recycled when possible; same contract as ``TCPSegment(...)``."""
        segments = self._segments
        if segments:
            segment = segments.pop()
            self.reused += 1
            segment.__init__(src_port, dst_port, flags, payload_size, request_id)
            return segment
        return TCPSegment(src_port, dst_port, flags, payload_size, request_id)

    def release(self, packet: Packet) -> None:
        """Return a dead packet (and its segment) to the free lists.

        The caller asserts nothing references the packet any more.  All
        object references are dropped here so a parked carcass cannot
        pin an SRH or a segment; the remaining scalar slots are
        reassigned by the constructor on reuse.
        """
        segment = packet.tcp
        if segment is not None and len(self._segments) < self.max_size:
            self._segments.append(segment)
            self.released += 1
        packet.tcp = None
        packet.srh = None
        packet._flow_key = None
        if len(self._packets) < self.max_size:
            self._packets.append(packet)
            self.released += 1


def make_syn(
    src: IPv6Address,
    dst: IPv6Address,
    src_port: int,
    dst_port: int,
    request_id: Optional[int] = None,
    created_at: float = 0.0,
    pool: Optional[PacketPool] = None,
) -> Packet:
    """Convenience constructor for a connection-request (SYN) packet."""
    if pool is not None:  # read only by benchmarks/perf/micro.py (frozen)
        return pool.acquire(
            src=src,
            dst=dst,
            tcp=pool.acquire_segment(
                src_port=src_port,
                dst_port=dst_port,
                flags=TCPFlag.SYN,
                request_id=request_id,
            ),
            created_at=created_at,
        )
    return Packet(
        src=src,
        dst=dst,
        tcp=TCPSegment(
            src_port=src_port,
            dst_port=dst_port,
            flags=TCPFlag.SYN,
            request_id=request_id,
        ),
        created_at=created_at,
    )


def make_reset(
    flow_key: FlowKey,
    request_id: Optional[int] = None,
    created_at: float = 0.0,
) -> Packet:
    """RST addressed to the initiator of ``flow_key``.

    ``flow_key`` is the client-to-service direction; the reset travels
    the other way, from the flow's destination (the VIP or server) back
    to its source.  Used by the load balancer (steering miss), the
    server application (backlog overflow, request timeout) and the
    virtual router (data for a non-existent connection).  Built
    positionally, like every per-packet construction: a class call with
    keyword arguments allocates a dict.
    """
    return Packet(
        flow_key.dst_address,
        flow_key.src_address,
        TCPSegment(flow_key.dst_port, flow_key.src_port, TCPFlag.RST, 0, request_id),
        None, DEFAULT_HOP_LIMIT, None,  # no SRH, default hop limit, fresh id
        created_at,
    )
