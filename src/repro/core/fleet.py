"""Scaling out the load balancer: ECMP fleet of SRLB instances.

The paper's related-work section discusses Maglev and Ananta, which
"aim at being able to scale the number of load-balancer instances at
will, and make use of ECMP to distribute flows between those instances"
together with consistent hashing so that any instance maps a flow to the
same server.  SRLB composes naturally with that design: the Service
Hunting decision is made by the *servers*, so load-balancer instances
need no shared state beyond their (identical) candidate-selection
function.

This module provides that scale-out path:

* :class:`ECMPRouterNode` — the data-center edge router that owns the
  VIPs, hashes each flow's 4-tuple onto one of the SRLB instances
  (using a Maglev table, so instance changes remap a minimal fraction of
  flows), and forwards packets to the chosen instance.  Steering
  signals (SYN-ACKs) sent by servers to the fleet's shared *anycast*
  address are routed to the same instance as the flow's forward
  direction, so each instance sees both directions of the flows it owns.
* :class:`LoadBalancerFleet` — a convenience wrapper that builds N
  :class:`~repro.core.loadbalancer.LoadBalancerNode` instances with a
  shared VIP/backend configuration and wires them behind one ECMP
  router.

Using :class:`~repro.core.candidate_selection.ConsistentHashCandidateSelector`
for every instance makes candidate lists flow-stable across the fleet,
which is the property Maglev-style deployments rely on; the ablation
test suite verifies both the per-flow consistency and the bounded
disruption when an instance is added or removed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.candidate_selection import CandidateSelector
from repro.core.consistent_hash import MaglevTable, flow_hash_key
from repro.core.loadbalancer import LoadBalancerNode
from repro.errors import LoadBalancerError
from repro.net.addressing import IPv6Address
from repro.net.channel import DeliveryChannel, InProcessChannel
from repro.net.packet import FlowKey, Packet
from repro.net.router import NetworkNode
from repro.sim.engine import Simulator


@dataclass
class ECMPStats:
    """Counters kept by the ECMP router."""

    packets_forwarded: int = 0
    steering_signals_forwarded: int = 0
    packets_dropped_no_instance: int = 0
    per_instance: Dict[str, int] = field(default_factory=dict)


class ECMPRouterNode(NetworkNode):
    """Edge router spreading flows over a fleet of SRLB instances.

    Parameters
    ----------
    simulator:
        Shared simulation engine.
    name:
        Node name.
    anycast_address:
        The fleet's shared address.  Servers send their steering SYN-ACKs
        to this address; the router forwards each to the instance owning
        the flow.
    table_size:
        Size of the Maglev table used for the flow-to-instance mapping.
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        anycast_address: IPv6Address,
        table_size: int = 65_537,
    ) -> None:
        super().__init__(simulator, name)
        self.add_address(anycast_address)
        self.anycast_address = anycast_address
        self._table_size = table_size
        self._instances: List[LoadBalancerNode] = []
        self._vips: List[IPv6Address] = []
        self._table: Optional[MaglevTable[str]] = None
        #: Interned per-instance event labels (one f-string per member,
        #: not per forwarded packet).
        self._forward_labels: Dict[str, str] = {}
        #: The delivery channel the fleet hop goes through (defaults to
        #: in-process scheduling, bit-identical to direct ``receive``).
        self.channel: DeliveryChannel = InProcessChannel(simulator)
        self.stats = ECMPStats()

    # ------------------------------------------------------------------
    # fleet management
    # ------------------------------------------------------------------
    def add_instance(self, instance: LoadBalancerNode) -> None:
        """Add an SRLB instance to the ECMP group."""
        if any(existing.name == instance.name for existing in self._instances):
            raise LoadBalancerError(f"instance {instance.name!r} is already in the fleet")
        self._instances.append(instance)
        self._rebuild_table()

    def remove_instance(self, name: str) -> bool:
        """Remove an instance (e.g. failure or drain); flows are remapped."""
        before = len(self._instances)
        self._instances = [
            instance for instance in self._instances if instance.name != name
        ]
        if not self._instances:
            raise LoadBalancerError("cannot remove the last load-balancer instance")
        if len(self._instances) != before:
            self._rebuild_table()
            return True
        return False

    def register_vip(self, vip: IPv6Address) -> None:
        """Advertise a VIP at the edge (exact binding on this router)."""
        if vip not in self._vips:
            self._vips.append(vip)
            if self.fabric is not None:
                self.fabric.bind_address(vip, self)

    def attach(self, fabric) -> None:
        """Attach to the fabric, claiming the registered VIPs."""
        super().attach(fabric)
        for vip in self._vips:
            fabric.bind_address(vip, self)

    @property
    def instances(self) -> List[LoadBalancerNode]:
        """The current fleet members (copy)."""
        return list(self._instances)

    def _rebuild_table(self) -> None:
        self._table = MaglevTable(
            [instance.name for instance in self._instances],
            table_size=self._table_size,
        )

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------
    def instance_for(self, flow_key: FlowKey) -> LoadBalancerNode:
        """The fleet member owning ``flow_key`` (forward direction)."""
        if self._table is None or not self._instances:
            raise LoadBalancerError("the ECMP fleet has no instances")
        name = self._table.lookup(flow_hash_key(flow_key))
        for instance in self._instances:
            if instance.name == name:
                return instance
        raise LoadBalancerError(f"instance {name!r} disappeared from the fleet")

    def handle_packet(self, packet: Packet) -> None:
        if packet.dst in self._vips:
            # Client-to-VIP traffic: hash the forward flow key.
            forward_key = packet.flow_key()
            self._forward(packet, forward_key, steering=False)
            return
        if packet.dst == self.anycast_address:
            # Steering signal from a server (SYN-ACK travelling
            # server -> fleet -> client): the owning instance is the one
            # the *forward* direction hashes to.
            forward_key = packet.flow_key().reversed()
            self._forward(packet, forward_key, steering=True)
            return
        self.stats.packets_dropped_no_instance += 1

    def _forward(self, packet: Packet, flow_key: FlowKey, steering: bool) -> None:
        try:
            instance = self.instance_for(flow_key)
        except LoadBalancerError:
            self.stats.packets_dropped_no_instance += 1
            return
        if steering:
            self.stats.steering_signals_forwarded += 1
        else:
            self.stats.packets_forwarded += 1
        name = instance.name
        self.stats.per_instance[name] = self.stats.per_instance.get(name, 0) + 1
        label = self._forward_labels.get(name)
        if label is None:
            label = self._forward_labels[name] = f"ecmp->{name}"
        # Hand the packet to the chosen instance after one switching hop.
        latency = self.fabric.latency if self.fabric is not None else 0.0
        self.channel.send(instance.receive, packet, latency, label)

    def instance_share(self) -> Dict[str, float]:
        """Fraction of forwarded packets handled by each instance."""
        total = sum(self.stats.per_instance.values())
        if total == 0:
            return {}
        return {
            name: count / total for name, count in self.stats.per_instance.items()
        }


class LoadBalancerFleet:
    """N SRLB instances sharing a VIP/backend configuration behind ECMP.

    The fleet owns the anycast address that servers use as the "load
    balancer" segment of their steering replies, so the whole fleet is a
    drop-in replacement for a single :class:`LoadBalancerNode` from the
    servers' point of view.

    Parameters
    ----------
    simulator:
        Shared simulation engine.
    anycast_address:
        Shared fleet address (what servers are configured with).
    instance_addresses:
        One address per SRLB instance.
    selector_factory:
        Builds a fresh candidate selector per instance.  Use a
        consistent-hashing selector to get flow-stable candidates across
        the fleet.
    """

    def __init__(
        self,
        simulator: Simulator,
        anycast_address: IPv6Address,
        instance_addresses: Sequence[IPv6Address],
        selector_factory,
        flow_idle_timeout: float = 60.0,
    ) -> None:
        if not instance_addresses:
            raise LoadBalancerError("a fleet needs at least one instance address")
        self.simulator = simulator
        self.router = ECMPRouterNode(simulator, "ecmp-router", anycast_address)
        self.instances: List[LoadBalancerNode] = []
        for index, address in enumerate(instance_addresses):
            selector: CandidateSelector = selector_factory()
            instance = LoadBalancerNode(
                simulator=simulator,
                name=f"lb-{index}",
                address=address,
                selector=selector,
                flow_idle_timeout=flow_idle_timeout,
                advertise_vips=False,
            )
            instance.add_steering_alias(anycast_address)
            self.instances.append(instance)
            self.router.add_instance(instance)

    @property
    def anycast_address(self) -> IPv6Address:
        """The address servers route their steering replies to."""
        return self.router.anycast_address

    def register_vip(self, vip: IPv6Address, servers: Sequence[IPv6Address]) -> None:
        """Register a VIP and its server pool on every instance."""
        self.router.register_vip(vip)
        for instance in self.instances:
            instance.register_vip(vip, servers)

    def add_backend(self, vip: IPv6Address, server: IPv6Address) -> None:
        """Add a server to a VIP pool fleet-wide (elastic scale-up)."""
        for instance in self.instances:
            instance.add_backend(vip, server)

    def remove_backend(self, vip: IPv6Address, server: IPv6Address) -> bool:
        """Remove a server from a VIP pool fleet-wide (graceful drain).

        Instances keep steering existing flows to the server through
        their flow tables; only *new* candidate lists stop naming it.
        """
        removed = False
        for instance in self.instances:
            removed = instance.remove_backend(vip, server) or removed
        return removed

    def attach(self, fabric) -> None:
        """Attach the router and every instance to the fabric.

        The instances do **not** bind the VIPs (the ECMP router owns
        them); they are reached only through the router.
        """
        self.router.attach(fabric)
        for instance in self.instances:
            instance.attach(fabric)

    def remove_instance(self, name: str) -> bool:
        """Take an instance out of rotation (its flow state is lost)."""
        return self.router.remove_instance(name)

    def total_flows(self) -> int:
        """Live flow-table entries across the fleet."""
        return sum(len(instance.flow_table) for instance in self.instances)

    def acceptances_per_server(self) -> Dict[IPv6Address, int]:
        """Aggregated per-server acceptance counts across the fleet."""
        totals: Dict[IPv6Address, int] = {}
        for instance in self.instances:
            for server, count in instance.stats.acceptances_per_server.items():
                totals[server] = totals.get(server, 0) + count
        return totals
