"""Simplified TCP connection model.

The reproduction does not need byte-accurate TCP (no sequence numbers,
congestion control or retransmission timers), but it does need the parts
of TCP that shape the paper's measurements:

* the three-way handshake (SYN / SYN-ACK / ACK), because Service Hunting
  rides on the SYN and the steering signal rides on the SYN-ACK;
* the listen backlog with ``tcp_abort_on_overflow`` semantics (a RST is
  sent instead of silently dropping the SYN), because that is how the
  paper defines the saturation rate λ₀ and keeps SYN-retransmit delays
  out of the response-time measurements;
* a notion of connection state so clients and servers can detect
  protocol violations in tests.

This module provides the connection state machine shared by the client
and server endpoints; the endpoints themselves live in
:mod:`repro.workload.client` and :mod:`repro.server.http_server`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import TCPError
from repro.net.packet import FlowKey, TCPFlag

#: Well-known HTTP port used by the simulated application instances.
HTTP_PORT = 80
#: First ephemeral port handed out to client connections.
EPHEMERAL_PORT_BASE = 10_000
#: Number of ephemeral ports before wrapping (per client address).
EPHEMERAL_PORT_RANGE = 50_000


class ConnectionState(enum.Enum):
    """States of the simplified TCP state machine."""

    CLOSED = "closed"
    SYN_SENT = "syn_sent"
    SYN_RECEIVED = "syn_received"
    ESTABLISHED = "established"
    FIN_WAIT = "fin_wait"
    RESET = "reset"


#: Transitions allowed by :meth:`TCPConnection.transition`.
_ALLOWED_TRANSITIONS = {
    ConnectionState.CLOSED: {
        ConnectionState.SYN_SENT,
        ConnectionState.SYN_RECEIVED,
    },
    ConnectionState.SYN_SENT: {
        ConnectionState.ESTABLISHED,
        ConnectionState.RESET,
        ConnectionState.CLOSED,
    },
    ConnectionState.SYN_RECEIVED: {
        ConnectionState.ESTABLISHED,
        ConnectionState.RESET,
        ConnectionState.CLOSED,
    },
    ConnectionState.ESTABLISHED: {
        ConnectionState.FIN_WAIT,
        ConnectionState.RESET,
        ConnectionState.CLOSED,
    },
    ConnectionState.FIN_WAIT: {
        ConnectionState.CLOSED,
        ConnectionState.RESET,
    },
    ConnectionState.RESET: set(),
}


@dataclass
class TCPConnection:
    """One endpoint's view of a TCP connection.

    The connection is identified by its forward-direction
    :class:`~repro.net.packet.FlowKey` and tracks the timestamps that the
    metrics pipeline cares about (when the connection was initiated, when
    it became established, and when it was closed or reset).
    """

    flow_key: FlowKey
    request_id: Optional[int] = None
    state: ConnectionState = ConnectionState.CLOSED
    opened_at: Optional[float] = None
    established_at: Optional[float] = None
    closed_at: Optional[float] = None

    def transition(self, new_state: ConnectionState, at: Optional[float] = None) -> None:
        """Move to ``new_state``, enforcing the simplified state machine."""
        allowed = _ALLOWED_TRANSITIONS[self.state]
        if new_state not in allowed:
            raise TCPError(
                f"illegal TCP transition {self.state.value} -> {new_state.value} "
                f"for flow {self.flow_key}"
            )
        self.state = new_state
        if new_state is ConnectionState.SYN_SENT and at is not None:
            self.opened_at = at
        if new_state is ConnectionState.ESTABLISHED and at is not None:
            self.established_at = at
        if new_state in (ConnectionState.CLOSED, ConnectionState.RESET) and at is not None:
            self.closed_at = at


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
