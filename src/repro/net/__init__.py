"""IPv6 + Segment Routing network substrate.

This package models the data-center network the paper's testbed runs on:
IPv6 addressing (VIPs, server addresses, SIDs), the Segment Routing
extension header with ``SegmentsLeft`` semantics, a simplified TCP
handshake with listen-backlog overflow, point-to-point links and the
shared LAN fabric connecting the load balancer to the application
servers.
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
            "is_virtual_ip",
        ),
        "fabric": ("FabricStats", "LANFabric"),
        "link": ("Link", "LinkStats"),
        "packet": (
            "DEFAULT_HOP_LIMIT",
            "FlowKey",
            "Packet",
            "TCPFlag",
            "TCPSegment",
            "make_reset",
            "make_syn",
            "reply_ports",
        ),
        "router": ("LocalSIDTable", "NetworkNode"),
        "srh": ("SegmentRoutingHeader",),
        "ecmp": ("EcmpEdgeRouter", "EcmpEdgeStats", "five_tuple_key"),
        "tcp": (
            "ConnectionState",
            "EphemeralPortAllocator",
            "HTTP_PORT",
            "TCPConnection",
            "classify_segment",
        ),
    },
)
