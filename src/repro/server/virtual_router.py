"""Server-side virtual router (the VPP role on each application server).

On the paper's testbed every application server runs VPP, which
"dispatches packets between physical NICs and application-bound virtual
interfaces" and hosts both the Service Hunting SR behaviour and the
Apache server agent.  :class:`ServerNode` plays that role here:

* packets whose active segment is the server's address go through the
  :class:`~repro.core.service_hunting.ServiceHuntingProcessor`, which
  consults the local connection-acceptance policy through the
  application agent and either delivers the packet to the local
  application instance or forwards it to the next candidate;
* packets delivered to the application are translated into calls on the
  :class:`~repro.server.http_server.HTTPServerInstance`;
* the application's outbound messages (SYN-ACK with the steering SR
  header, RST on backlog overflow, HTTP responses) are turned back into
  packets and sent into the fabric.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

from repro.core.agent import ApplicationAgent
from repro.core.policies import ConnectionAcceptancePolicy
from repro.core.service_hunting import HuntingDecision, ServiceHuntingProcessor
from repro.errors import SegmentRoutingError, ServerError
from repro.net.addressing import IPv6Address
from repro.net.packet import (
    DEFAULT_HOP_LIMIT,
    PSH_ACK,
    PSH_BIT,
    RST_BIT,
    SYN_ACK,
    SYN_ACK_BITS,
    SYN_BIT,
    Packet,
    TCPSegment,
    make_reset,
)
from repro.net.router import NetworkNode
from repro.net.srh import SegmentRoutingHeader
from repro.server.http_server import HTTPServerInstance, ServerConnection
from repro.sim.engine import Simulator


class ServerNode(NetworkNode):
    """One application server: virtual router + local application instance.

    Parameters
    ----------
    simulator:
        Shared simulation engine.
    name:
        Node name (diagnostics).
    address:
        The server's physical IPv6 address, used as its SR segment.
    app:
        The local application instance (Apache model).
    policy:
        The connection-acceptance policy for this server.  Must be a
        dedicated instance; policy state is strictly local.
    load_balancer_address:
        Address of the load balancer the steering SYN-ACK is routed
        through.
    cpu_cores:
        Core count reported to the application agent (coarse metrics).
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        address: IPv6Address,
        app: HTTPServerInstance,
        policy: ConnectionAcceptancePolicy,
        load_balancer_address: IPv6Address,
        cpu_cores: int = 2,
    ) -> None:
        super().__init__(simulator, name)
        self.add_address(address)
        self.app = app
        self.policy = policy
        self.load_balancer_address = load_balancer_address
        self.agent = ApplicationAgent(app.scoreboard, cpu_cores)
        self.hunting = ServiceHuntingProcessor(policy, self.agent)
        self._bound_vips: Set[IPv6Address] = set()
        #: RSTs sent for data packets that matched no local connection
        #: (e.g. a recovery hunt that ended on the wrong server).
        self.stray_data_resets = 0
        app.bind_transport(self)

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def bind_vip(self, vip: IPv6Address) -> None:
        """Bind the local application instance to a virtual IP address."""
        self._bound_vips.add(vip)

    # ------------------------------------------------------------------
    # graceful drain (driven by the control plane)
    # ------------------------------------------------------------------
    def start_draining(self) -> None:
        """Stop accepting new flows; in-flight flows keep being served.

        The refusal happens at the Service Hunting layer: optional offers
        are forwarded to the next candidate without consulting the
        acceptance policy.  Mid-flow steering, recovery hunts for flows
        this server already holds, and response delivery are unaffected,
        so draining never resets an established connection.
        """
        self.hunting.draining = True

    @property
    def draining(self) -> bool:
        """Whether the server is refusing new flows for a graceful drain."""
        return self.hunting.draining

    @property
    def quiescent(self) -> bool:
        """Whether no connection is open or queued on the local instance.

        The drain's completion condition: once a draining server is
        quiescent it can be detached without breaking any flow.
        """
        return self.app.open_connections == 0 and self.app.busy_threads == 0

    # ------------------------------------------------------------------
    # packet processing
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        """Hunt, steer or deliver one packet.

        A packet whose active segment is this server and which has
        segments left is either a connection request (a plain SYN:
        Service Hunting proper, accept or forward) or a mid-flow packet
        (see below); a packet for a bound VIP or this server's address
        is delivered; anything else is an error.  Delivery translates
        the packet into application-instance calls, in line.

        Ordinary steering uses a two-segment ``[server, VIP]`` header, so
        a mid-flow packet is consumed and delivered locally.  A longer
        remaining list is a *recovery hunt*: a load balancer that lost
        its steering state re-sent the packet through the flow's
        (stable) candidate chain, and the connection lives on exactly
        one of the candidates — deliver if it is here, else pass the
        packet down the chain.  The final candidate consumes the packet
        unconditionally, like the forced accept of connection-request
        hunting.
        """
        srh = packet.srh
        dst = packet._dst
        tcp = packet.tcp
        bits = tcp.bits
        if srh is not None and srh.segments_left and dst in self._addresses:
            if bits & SYN_ACK_BITS == SYN_BIT:
                # Service Hunting proper: the accept-or-forward choice only
                # applies to the first packet of a flow (a plain SYN).
                decision = self.hunting.process(packet)
                if decision is HuntingDecision.FORWARD:
                    self.send(packet)
                    return
                if decision is not HuntingDecision.ACCEPT:  # pragma: no cover - defensive
                    raise ServerError(
                        f"unexpected hunting decision {decision!r} on {self.name!r}"
                    )
            elif (
                srh.segments_left <= 1
                or self.app.connection_for_flow(packet._flow_key) is not None
            ):
                # set_segments_left(0) as data (the flow key stays).
                srh.segments_left = 0
                packet._dst = srh.segments[0]
            else:
                packet.advance_srh()
                self.send(packet)
                return
        elif not (dst in self._bound_vips or dst in self._addresses):
            # Not for us: in a bridged LAN this should not happen.
            raise ServerError(
                f"server {self.name!r} received a packet it does not own: "
                f"{packet.describe()}"
            )

        # Delivered to the application.
        if bits & RST_BIT:
            # Client aborted; nothing to do in the simplified model.
            return
        if bits & SYN_ACK_BITS == SYN_BIT:
            self.app.handle_connection_request(packet._flow_key, tcp.request_id)
            return
        if tcp.payload_size > 0 or bits & PSH_BIT:
            if not self.app.handle_request_data(packet._flow_key, tcp.request_id):
                # No such connection here: answer with a RST, as a real
                # kernel would.  Clients that already saw a RST for this
                # query ignore the duplicate; clients mid-recovery learn
                # that their flow is broken instead of waiting forever.
                self.stray_data_resets += 1
                self.send(
                    make_reset(
                        packet._flow_key,
                        request_id=tcp.request_id,
                        created_at=self.simulator.clock._now,
                    )
                )
            return
        # Bare ACKs (handshake completion) carry no new information here.

    # ------------------------------------------------------------------
    # ServerTransport protocol (called by the application instance)
    # ------------------------------------------------------------------
    def send_syn_ack(self, connection: ServerConnection) -> None:
        """Send the connection-acceptance packet through the load balancer."""
        flow_key = connection.flow_key
        client = flow_key.src_address
        load_balancer = self.load_balancer_address
        if load_balancer == client:
            raise SegmentRoutingError(
                "load balancer and client addresses must differ in the reply path"
            )
        # Traversal server -> load balancer -> client, stored in RFC
        # (reverse) order; the server's own segment is already
        # "traversed", so the load balancer is the active one.
        srh = SegmentRoutingHeader([client, load_balancer, self._addresses[0]], 1)
        # Built positionally: a class call with keywords allocates a dict.
        packet = Packet(
            flow_key.dst_address,  # the VIP: clients talk to the service
            load_balancer,
            TCPSegment(flow_key.dst_port, flow_key.src_port, SYN_ACK, 0, connection.request_id),
            srh, DEFAULT_HOP_LIMIT, None,  # default hop limit, fresh id
            self.simulator.clock._now,
        )
        self.send(packet)

    def send_reset(self, connection: ServerConnection) -> None:
        """Send a RST directly to the client (backlog overflow, timeout)."""
        self.send(
            make_reset(
                connection.flow_key,
                request_id=connection.request_id,
                created_at=self.simulator.clock._now,
            )
        )

    def send_response(self, connection: ServerConnection, payload_size: int) -> None:
        """Send the HTTP response directly to the client (direct return)."""
        flow_key = connection.flow_key
        packet = Packet(
            flow_key.dst_address,
            flow_key.src_address,
            TCPSegment(
                flow_key.dst_port, flow_key.src_port, PSH_ACK, payload_size, connection.request_id
            ),
            None, DEFAULT_HOP_LIMIT, None,  # no SRH, default hop limit, fresh id
            self.simulator.clock._now,
        )
        self.send(packet)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def busy_threads(self) -> int:
        """Busy worker count of the local application instance."""
        return self.app.busy_threads

    def __repr__(self) -> str:
        return (
            f"ServerNode(name={self.name!r}, policy={self.policy.name!r}, "
            f"busy={self.busy_threads})"
        )


def fleet_load(servers: Iterable[ServerNode]) -> Tuple[int, int, int]:
    """``(busy workers, worker slots, backlog depth)`` summed over ``servers``.

    The scoreboard and listen-backlog reads of the paper's agent (§III),
    fleet-wide: what the telemetry probe streams over every server and
    the elastic control plane's monitor reads over the serving ones.
    """
    busy = slots = backlog = 0
    for server in servers:
        app = server.app
        busy += app.scoreboard.busy_count
        slots += app.scoreboard.num_slots
        backlog += app.backlog.depth
    return busy, slots, backlog
