"""Service Hunting: the in-network service-selection function.

Service Hunting (paper §II) is the SR behaviour a server's virtual
router applies to packets whose active segment is the server's SID:

* If two or more segments remain (``SegmentsLeft >= 2``), the router asks
  the local connection-acceptance policy whether the application instance
  wants the connection.  Accepting sets ``SegmentsLeft`` to 0 (the VIP,
  always the final segment, becomes active) and delivers the packet to
  the local application; refusing advances the SR list so the packet
  continues to the next candidate.
* If exactly one segment remains (``SegmentsLeft == 1``), the router
  *must* accept — the penultimate candidate guarantees satisfiability.

The :class:`ServiceHuntingProcessor` implements that decision table.  It
is deliberately independent of the packet-forwarding machinery so that
the algorithmic behaviour (Algorithms 1 and 2) can be unit-tested and
reasoned about in isolation; the server's virtual router calls it and
then forwards or delivers the packet according to the returned decision.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.core.agent import ApplicationAgent
from repro.core.policies import ConnectionAcceptancePolicy
from repro.net.packet import Packet


class HuntingDecision(enum.Enum):
    """Outcome of processing a Service Hunting packet."""

    #: Deliver the packet to the local application instance.
    ACCEPT = "accept"
    #: Forward the packet to the next candidate in the SR list.
    FORWARD = "forward"
    #: The packet is not a Service Hunting packet for this node.
    NOT_APPLICABLE = "not-applicable"


@dataclass
class ServiceHuntingStats:
    """Counters kept by one Service Hunting processor (one server)."""

    accepted_by_choice: int = 0
    accepted_forced: int = 0
    refused: int = 0
    #: Optional offers refused because the server was draining (the
    #: control plane's graceful scale-down), not because the acceptance
    #: policy said no.
    refused_draining: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Flat numeric counters (the uniform telemetry-sampler API)."""
        return {
            "accepted_by_choice": self.accepted_by_choice,
            "accepted_forced": self.accepted_forced,
            "refused": self.refused,
            "refused_draining": self.refused_draining,
        }

    @property
    def offers_received(self) -> int:
        """Offers decided here: every one is accepted or refused."""
        return self.accepted_by_choice + self.accepted_forced + self.refused

    @property
    def accepted_total(self) -> int:
        """Connections this server ended up accepting."""
        return self.accepted_by_choice + self.accepted_forced


class ServiceHuntingProcessor:
    """Per-server accept-or-forward decision engine.

    Parameters
    ----------
    policy:
        The local connection-acceptance policy (one instance per server).
    agent:
        The application agent exposing the instance's load state.
    """

    def __init__(
        self, policy: ConnectionAcceptancePolicy, agent: ApplicationAgent
    ) -> None:
        self.policy = policy
        self.agent = agent
        #: Graceful-drain switch (set by the control plane): a draining
        #: server refuses every *optional* offer without consulting the
        #: acceptance policy, so in-flight SYNs that still carry it in
        #: their candidate list pass it by.  Forced accepts (last
        #: candidate) still land — satisfiability beats the drain.
        self.draining = False
        self.stats = ServiceHuntingStats()

    def process(self, packet: Packet) -> HuntingDecision:
        """Apply the Service Hunting decision table to ``packet``.

        On ``ACCEPT`` the packet's ``SegmentsLeft`` is set to 0 (the VIP
        becomes the destination) so the caller can hand it to the local
        application.  On ``FORWARD`` the SR list is advanced so the
        packet's destination is the next candidate.
        """
        srh = packet.srh
        if srh is None or srh.segments_left == 0:
            return HuntingDecision.NOT_APPLICABLE

        if srh.segments_left == 1:
            # Penultimate segment: the connection must be accepted to
            # guarantee satisfiability (paper §II-A).
            packet.set_segments_left(0)
            self.stats.accepted_forced += 1
            self.policy.notify_forced_accept(self.agent)
            return HuntingDecision.ACCEPT

        # Two or more candidates remain: the decision is optional and
        # strictly local.
        if self.draining:
            self.stats.refused_draining += 1
        elif self.policy.should_accept(self.agent):
            packet.set_segments_left(0)
            self.stats.accepted_by_choice += 1
            return HuntingDecision.ACCEPT
        # advance_srh() written as data: two or more segments are left, so
        # it cannot fail, and the flow key stays (see repro.net.packet).
        left = srh.segments_left - 1
        srh.segments_left = left
        packet._dst = srh.segments[left]
        self.stats.refused += 1
        return HuntingDecision.FORWARD

    def reset(self) -> None:
        """Clear counters and policy state (between experiment runs)."""
        self.stats = ServiceHuntingStats()
        self.policy.reset()

    def __repr__(self) -> str:
        return (
            f"ServiceHuntingProcessor(policy={self.policy.name!r}, "
            f"accepted={self.stats.accepted_total}, refused={self.stats.refused})"
        )
