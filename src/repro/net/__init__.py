"""IPv6 + Segment Routing network substrate.

This package models the data-center network the paper's testbed runs on:
IPv6 addressing (VIPs, server addresses, SIDs), the Segment Routing
extension header with ``SegmentsLeft`` semantics, a simplified TCP
handshake with listen-backlog overflow, the shared LAN fabric connecting
the load balancer to the application servers, and the fault plane that
impairs its hops.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "addressing": (
            "AddressAllocator",
            "CLIENT_PREFIX",
            "IPv6Address",
            "IPv6Prefix",
            "LB_PREFIX",
            "SERVER_PREFIX",
            "VIP_PREFIX",
            "default_allocators",
            "describe",
        ),
        "fabric": ("FabricStats", "LANFabric"),
        "faults": ("LinkStats",),
        "packet": (
            "DEFAULT_HOP_LIMIT",
            "FlowKey",
            "Packet",
            "TCPFlag",
            "TCPSegment",
            "make_reset",
            "make_syn",
        ),
        "router": ("NetworkNode",),
        "srh": ("SegmentRoutingHeader",),
        "ecmp": ("EcmpEdgeRouter", "EcmpEdgeStats", "five_tuple_key"),
        "tcp": ("EphemeralPortAllocator", "HTTP_PORT", "classify_segment"),
    },
)
