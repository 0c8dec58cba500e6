"""The SRLB load balancer.

The load balancer sits at the edge of the data center and advertises the
virtual IP addresses (VIPs) of the applications it fronts.  Its job is
deliberately small (paper §I-A):

* for the **first packet of a new flow** (a TCP SYN addressed to a VIP),
  pick a list of candidate servers with the configured selection scheme
  and insert a Segment Routing header offering the connection to each of
  them in turn, with the VIP as the final segment;
* for the **connection-acceptance packet** (the SYN-ACK coming back from
  the accepting server, carrying an SR header that names that server),
  record the flow-to-server binding in the flow table and forward the
  packet to the client;
* for **every subsequent packet of the flow**, steer it to the recorded
  server with a two-segment SR header (server, VIP).

Everything else — whether a server accepts, and on what basis — happens
on the servers, which is the point of the design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.candidate_selection import CandidateSelector
from repro.core.flow_table import FlowTable
from repro.errors import LoadBalancerError
from repro.net.addressing import IPv6Address
from repro.net.packet import (
    SYN_ACK_BITS,
    SYN_BIT,
    FlowKey,
    Packet,
    make_reset,
    new_flow_key,
)
from repro.net.router import NetworkNode
from repro.net.srh import SegmentRoutingHeader
from repro.sim.engine import PeriodicTask, Simulator


@dataclass
class LoadBalancerStats:
    """Aggregate counters kept by one load-balancer instance.

    Tier deployments (see :mod:`repro.core.lb_tier`) aggregate these
    across instances; each counter is strictly local to the instance
    that incremented it.
    """

    #: New-flow SYNs dispatched with an SR candidate list.
    syn_dispatched: int = 0
    #: Mid-flow packets steered to their recorded server (flow-table hits).
    steering_packets: int = 0
    #: Mid-flow packets with no flow-table entry (expired, never learned,
    #: or learned by another instance that is now gone).
    steering_misses: int = 0
    #: Flow-to-server bindings learned from steering SYN-ACKs.
    acceptances_learned: int = 0
    #: RSTs sent to clients on unrecoverable steering misses.
    resets_sent: int = 0
    #: Packets addressed to an unregistered VIP, or steering-address
    #: packets carrying no SR header; both are dropped.
    unknown_vip_drops: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Flat numeric counters (the uniform telemetry-sampler API)."""
        return {
            "syn_dispatched": self.syn_dispatched,
            "steering_packets": self.steering_packets,
            "steering_misses": self.steering_misses,
            "acceptances_learned": self.acceptances_learned,
            "resets_sent": self.resets_sent,
            "unknown_vip_drops": self.unknown_vip_drops,
        }


class LoadBalancerNode(NetworkNode):
    """SRLB edge load balancer (one instance).

    Parameters
    ----------
    simulator:
        Shared simulation engine.
    name:
        Node name (diagnostics).
    address:
        The load balancer's own IPv6 address — the segment the accepting
        server routes the SYN-ACK through.
    selector:
        Candidate-selection scheme producing the SR candidate list for
        new flows.
    flow_idle_timeout:
        Idle timeout of flow-table entries, in seconds.
    flow_table_capacity:
        Optional cap on the number of tracked flows.
    advertise_vips:
        When ``True`` (the default, single-instance deployment) the node
        binds its VIPs on the fabric so client traffic reaches it
        directly.  Fleet deployments set this to ``False``: the ECMP
        router owns the VIPs and hands packets to the instances.
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        address: IPv6Address,
        selector: CandidateSelector,
        flow_idle_timeout: float = 60.0,
        flow_table_capacity: Optional[int] = None,
        advertise_vips: bool = True,
    ) -> None:
        super().__init__(simulator, name)
        self.add_address(address)
        self.selector = selector
        self.advertise_vips = advertise_vips
        self.flow_table = FlowTable(
            idle_timeout=flow_idle_timeout, capacity=flow_table_capacity
        )
        self.stats = LoadBalancerStats()
        self._backends: Dict[IPv6Address, List[IPv6Address]] = {}
        self._steering_aliases: set = set()
        self._housekeeping: Optional[PeriodicTask] = None

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def register_vip(
        self, vip: IPv6Address, servers: Sequence[IPv6Address]
    ) -> None:
        """Front ``vip`` with the given pool of application servers."""
        if not servers:
            raise LoadBalancerError(f"VIP {vip} needs at least one server")
        self._backends[vip] = list(servers)
        # Let the selector build pool-derived state (the Maglev table)
        # now, at configuration time, instead of on the first flow.
        self.selector.prepare(self._backends[vip])
        if self.fabric is not None and self.advertise_vips:
            self.fabric.bind_address(vip, self)

    def add_backend(self, vip: IPv6Address, server: IPv6Address) -> None:
        """Add a server to an existing VIP pool."""
        pool = self._backends.get(vip)
        if pool is None:
            raise LoadBalancerError(f"VIP {vip} is not registered")
        if server not in pool:
            pool.append(server)
            self.selector.prepare(pool)

    def remove_backend(self, vip: IPv6Address, server: IPv6Address) -> bool:
        """Remove a server from a VIP pool; existing flows keep steering.

        Refusing to empty a pool happens *before* any mutation, so a
        rejected removal leaves the pool exactly as it was.
        """
        pool = self._backends.get(vip)
        if pool is None:
            raise LoadBalancerError(f"VIP {vip} is not registered")
        if server not in pool:
            return False
        if len(pool) == 1:
            raise LoadBalancerError(
                f"removing {server} would leave VIP {vip} with no servers"
            )
        pool.remove(server)
        self.selector.prepare(pool)
        return True

    def add_steering_alias(self, address: IPv6Address) -> None:
        """Accept steering signals addressed to ``address`` as well.

        Fleet deployments use a shared anycast address as the "load
        balancer" segment of the servers' steering replies; the ECMP
        router owns that address on the fabric and hands the packets to
        the owning instance, which must then recognise them as steering
        signals even though the address is not locally bound.
        """
        self._steering_aliases.add(address)

    def backends_for(self, vip: IPv6Address) -> List[IPv6Address]:
        """The current server pool for a VIP (copy)."""
        pool = self._backends.get(vip)
        if pool is None:
            raise LoadBalancerError(f"VIP {vip} is not registered")
        return list(pool)

    def attach(self, fabric) -> None:
        """Attach to the fabric and claim the registered VIPs (if advertising)."""
        super().attach(fabric)
        if self.advertise_vips:
            for vip in self._backends:
                fabric.bind_address(vip, self)

    def start_housekeeping(self, interval: Optional[float] = None) -> None:
        """Start periodic flow-table expiry (idle-timeout enforcement)."""
        if self._housekeeping is not None:
            return
        period = interval if interval is not None else self.flow_table.idle_timeout
        self._housekeeping = PeriodicTask(
            simulator=self.simulator,
            interval=period,
            callback=self._expire_idle_flows,
            label=f"{self.name}-flow-expiry",
        )
        self._housekeeping.start()

    def _expire_idle_flows(self) -> None:
        """One housekeeping tick: reclaim idle flow-table entries.

        A bound method rather than a per-``start_housekeeping`` lambda,
        so restarting housekeeping (tier recovery re-attaches instances)
        never stacks up fresh closures.
        """
        self.flow_table.expire_idle(self.simulator.now)

    def stop_housekeeping(self) -> None:
        """Stop the periodic flow-table expiry task."""
        if self._housekeeping is not None:
            self._housekeeping.stop()
            # The task's callback is this node's method: keeping the
            # stopped task would be a cycle holding the flow table.
            self._housekeeping = None

    # ------------------------------------------------------------------
    # packet processing
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        dst = packet._dst
        if dst in self._backends:
            # Client -> VIP direction: a plain SYN opens a new flow,
            # everything else is steered to the flow's recorded server.
            if packet.tcp.bits & SYN_ACK_BITS == SYN_BIT:
                self._dispatch_new_flow(packet, dst)
            else:
                self._steer_existing_flow(packet, dst)
        elif dst in self._addresses or dst in self._steering_aliases:
            self._handle_steering_signal(packet)
        else:
            # A VIP in the advertised prefix that no application registered.
            self.stats.unknown_vip_drops += 1

    # -- client -> VIP direction ----------------------------------------

    def _dispatch_new_flow(self, packet: Packet, vip: IPv6Address) -> None:
        """Offer a new connection to the selected candidate servers."""
        candidates = self.selector.select(packet._flow_key, self._backends[vip])
        if not candidates:
            raise LoadBalancerError("candidate selector returned an empty list")
        # RFC order: the VIP is the final segment, the first candidate
        # active.  attach_srh() as data: the final segment is the
        # packet's destination, so its flow key stands.
        segments = [vip, *reversed(candidates)]
        packet.srh = SegmentRoutingHeader(segments, len(segments) - 1)
        packet._dst = candidates[0]
        self.stats.syn_dispatched += 1
        self.send(packet)

    def _steer_existing_flow(self, packet: Packet, vip: IPv6Address) -> None:
        """Pin a mid-flow packet to the server that accepted the flow."""
        server = self.flow_table.steer(packet._flow_key, self.simulator.clock._now)
        if server is None:
            self.stats.steering_misses += 1
            self._handle_steering_miss(packet, vip)
            return
        # attach_srh() as data, keeping the flow key (the VIP stays final).
        packet.srh = SegmentRoutingHeader([vip, server], 1)
        packet._dst = server
        self.stats.steering_packets += 1
        self.send(packet)

    def _handle_steering_miss(self, packet: Packet, vip: IPv6Address) -> None:
        """React to a mid-flow packet with no steering state.

        A single instance can only fail fast: it sends a RST so the
        client does not wait forever.  Tier deployments override this
        with the stateless recovery path (re-deriving the candidate
        chain when the selector is flow-stable).
        """
        self._send_reset(packet, vip)

    def _send_reset(self, packet: Packet, vip: IPv6Address) -> None:
        self.stats.resets_sent += 1
        self.send(
            make_reset(
                packet._flow_key,
                request_id=packet.tcp.request_id,
                created_at=self.simulator.clock._now,
            )
        )

    # -- server -> client direction (connection acceptance) --------------
    def _handle_steering_signal(self, packet: Packet) -> None:
        """Learn which server accepted a flow from the SYN-ACK's SR header.

        The accepting server's address is the first traversed segment of
        the SR header, so *any* instance that sees the packet can learn
        the binding without shared state — the property the ECMP tier's
        cross-instance relay relies on.
        """
        srh = packet.srh
        stats = self.stats
        if srh is None:
            # Not a Service Hunting signal; nothing for us to do.
            stats.unknown_vip_drops += 1
            return
        segments = srh.segments
        # The first traversed segment is the last of the RFC-ordered
        # list; indexing it directly avoids materialising the full
        # traversal tuple on every acceptance.
        accepting_server = segments[-1]
        # The SYN-ACK travels in the server->client direction; the flow
        # table is keyed by the client->VIP direction (the key reversed,
        # written out).
        key = packet._flow_key
        self.flow_table.learn(
            new_flow_key(FlowKey, (key[2], key[3], key[0], key[1])),
            accepting_server,
            self.simulator.clock._now,
        )
        stats.acceptances_learned += 1
        # Hand the packet on to the client, stripping the SR header: the
        # client sees a plain SYN-ACK from the VIP (paper, figure 1).
        # The strip is written as data: the final segment was already the
        # flow key's destination, so the key stands.
        packet.srh = None
        packet._dst = segments[0]
        self.send(packet)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"LoadBalancerNode(name={self.name!r}, vips={len(self._backends)}, "
            f"flows={len(self.flow_table)}, selector={self.selector.name!r})"
        )
