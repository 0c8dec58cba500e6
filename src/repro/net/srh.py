"""IPv6 Segment Routing extension header (SRH).

The SRH carries an ordered list of *segments* — IPv6 addresses naming
intermediaries and the instruction they should apply to the packet — plus
a ``SegmentsLeft`` counter indicating how many segments remain to be
processed (RFC 8754 semantics).

Following the RFC, the segment list is stored in **reverse traversal
order**: ``segments[0]`` is the final segment and
``segments[len-1]`` is the first one visited.  The *active* segment is
``segments[SegmentsLeft]`` and is also copied into the packet's IPv6
destination address by whoever advances the header.  Because that
convention is easy to get backwards, constructors and accessors that
speak "traversal order" are provided and used throughout the library.

Service Hunting (paper §II) uses the SRH in two places:

* the load balancer inserts ``[candidate₁, candidate₂, VIP]`` (traversal
  order) into the first packet of a new flow, and
* the accepting server inserts ``[load-balancer, client]`` into the
  connection-acceptance packet (SYN-ACK), with its own address recorded
  so the load balancer can steer the rest of the flow.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import SegmentRoutingError
from repro.net.addressing import IPv6Address

#: Size in bytes of the fixed part of the SRH (RFC 8754 §2).
SRH_FIXED_SIZE = 8
#: Size in bytes of each segment entry (an IPv6 address).
SRH_SEGMENT_SIZE = 16


class SegmentRoutingHeader:
    """IPv6 Segment Routing extension header.

    Slotted and hand-written: one header is built per hop decision on
    the packet hot path, and the generated dataclass machinery showed up
    in replay profiles.

    Attributes
    ----------
    segments:
        Segment list in RFC (reverse traversal) order.
    segments_left:
        Index of the active segment; ``0`` means the last segment is
        active and the source route is exhausted once it is consumed.
    """

    __slots__ = ("segments", "segments_left")

    def __init__(
        self,
        segments: Optional[List[IPv6Address]] = None,
        segments_left: int = 0,
    ) -> None:
        if not segments:
            raise SegmentRoutingError("an SRH must contain at least one segment")
        if not 0 <= segments_left < len(segments):
            raise SegmentRoutingError(
                f"SegmentsLeft={segments_left} out of range for "
                f"{len(segments)} segments"
            )
        self.segments = segments
        self.segments_left = segments_left

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_traversal(cls, path: Sequence[IPv6Address]) -> "SegmentRoutingHeader":
        """Build an SRH from segments given in the order they are visited.

        The first element of ``path`` becomes the active segment.
        """
        if not path:
            raise SegmentRoutingError("cannot build an SRH from an empty path")
        segments = list(path)
        segments.reverse()
        srh = cls.__new__(cls)
        srh.segments = segments
        srh.segments_left = len(segments) - 1
        return srh

    def copy(self) -> "SegmentRoutingHeader":
        """Independent copy (packets are duplicated when retransmitted).

        Internal fast path: the source header is already valid, so the
        constructor checks are skipped.
        """
        clone = SegmentRoutingHeader.__new__(SegmentRoutingHeader)
        clone.segments = list(self.segments)
        clone.segments_left = self.segments_left
        return clone

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def active_segment(self) -> IPv6Address:
        """The segment currently being processed (the IPv6 destination)."""
        return self.segments[self.segments_left]

    def traversal_order(self) -> Tuple[IPv6Address, ...]:
        """The full segment list, in the order segments are visited."""
        return tuple(reversed(self.segments))

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def advance(self) -> IPv6Address:
        """Consume the active segment and return the new active segment."""
        if self.segments_left == 0:
            raise SegmentRoutingError("cannot advance an exhausted SRH")
        self.segments_left -= 1
        return self.segments[self.segments_left]

    def set_segments_left(self, value: int) -> IPv6Address:
        """Set ``SegmentsLeft`` directly (as Algorithms 1 and 2 do).

        Returns the new active segment.  Values may only decrease:
        segments are never re-activated.
        """
        if not 0 <= value <= self.segments_left:
            raise SegmentRoutingError(
                f"invalid SegmentsLeft transition {self.segments_left} -> {value}"
            )
        self.segments_left = value
        return self.segments[value]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is SegmentRoutingHeader:
            return (
                self.segments == other.segments
                and self.segments_left == other.segments_left
            )
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"SegmentRoutingHeader(segments={self.segments!r}, "
            f"segments_left={self.segments_left!r})"
        )

    def __str__(self) -> str:
        path = " -> ".join(str(segment) for segment in self.traversal_order())
        return f"SRH[{path}; left={self.segments_left}]"
