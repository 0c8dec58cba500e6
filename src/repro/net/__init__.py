"""IPv6 + Segment Routing network substrate.

This package models the data-center network the paper's testbed runs on:
IPv6 addressing (VIPs, server addresses, SIDs), the Segment Routing
extension header with ``SegmentsLeft`` semantics, a simplified TCP
handshake with listen-backlog overflow, the shared LAN fabric connecting
the load balancer to the application servers, and the fault plane that
impairs its hops.
"""
