"""Simplified TCP for the client and server endpoints.

The reproduction does not need byte-accurate TCP (no sequence numbers,
congestion control or retransmission timers), but it does need the parts
of TCP that shape the paper's measurements:

* the three-way handshake (SYN / SYN-ACK / ACK), because Service Hunting
  rides on the SYN and the steering signal rides on the SYN-ACK;
* the listen backlog with ``tcp_abort_on_overflow`` semantics (a RST is
  sent instead of silently dropping the SYN), because that is how the
  paper defines the saturation rate λ₀ and keeps SYN-retransmit delays
  out of the response-time measurements.

This module holds the pieces the endpoints share: the HTTP port, the
client's ephemeral-port allocator and a readable name for a segment's
flags.  The endpoints themselves live in :mod:`repro.workload.client`
and :mod:`repro.server.http_server`.
"""

from __future__ import annotations

from repro.errors import TCPError
from repro.net.packet import TCPFlag

#: Well-known HTTP port used by the simulated application instances.
HTTP_PORT = 80
#: First ephemeral port handed out to client connections.
EPHEMERAL_PORT_BASE = 10_000
#: Number of ephemeral ports before wrapping (per client address).
EPHEMERAL_PORT_RANGE = 50_000


class EphemeralPortAllocator:
    """Round-robin ephemeral source-port allocator for a client node."""

    def __init__(
        self,
        base: int = EPHEMERAL_PORT_BASE,
        count: int = EPHEMERAL_PORT_RANGE,
    ) -> None:
        if not 0 < base <= 0xFFFF:
            raise TCPError(f"invalid ephemeral port base {base!r}")
        if count <= 0 or base + count - 1 > 0xFFFF:
            raise TCPError(f"invalid ephemeral port range {base}+{count}")
        self._base = base
        self._count = count
        self._next = 0

    def allocate(self) -> int:
        """Next source port (wraps around when the range is exhausted)."""
        port = self._base + (self._next % self._count)
        self._next += 1
        return port


def classify_segment(flags: TCPFlag) -> str:
    """Human-readable classification of a TCP segment by its flags.

    Used by packet taps and tests to assert on the handshake sequence
    without pattern-matching flag combinations everywhere.
    """
    if flags & TCPFlag.RST:
        return "rst"
    if flags & TCPFlag.SYN and flags & TCPFlag.ACK:
        return "syn-ack"
    if flags & TCPFlag.SYN:
        return "syn"
    if flags & TCPFlag.FIN:
        return "fin"
    if flags & TCPFlag.PSH:
        return "data"
    if flags & TCPFlag.ACK:
        return "ack"
    return "other"
