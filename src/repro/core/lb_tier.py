"""Multi-instance SRLB tier behind a real (per-packet) ECMP edge.

The paper's resiliency argument (§I-A, §II-B) is that SRLB instances
need no shared flow state: candidate selection can be made flow-stable
(consistent hashing), and the connection-acceptance SYN-ACK carries the
accepting server *in-band*, in its SR header.  Several instances can
therefore serve the same VIPs behind an ECMP edge, and the tier survives
instance churn without any state-synchronisation protocol.

This module models that tier, built on
:class:`repro.net.ecmp.EcmpEdgeRouter` — a plain edge router that hashes
every packet independently, so the two directions of a flow generally
reach different instances — and shows the two mechanisms that make SRLB
work anyway:

* **Cross-instance SYN-ACK learning.**  The SYN-ACK hashes on the
  reverse 5-tuple, so it generally reaches a *different* instance than
  the SYN did.  The receiving instance recovers the flow binding from
  the SR header (no state needed) and relays the packet one hop to the
  instance that owns the flow's forward direction, which installs the
  steering entry and forwards the SYN-ACK to the client.
* **Stateless steering recovery.**  When an instance receives mid-flow
  packets for a flow it has no state for (its owner crashed, or the
  ECMP mapping moved the flow), a flow-stable selector lets it re-derive
  the candidate chain and re-send the packet *hunting* through the
  candidates; the server actually holding the connection consumes it.
  With random selection there is nothing to re-derive and the flow is
  reset — which is exactly the difference the resilience experiment
  (:mod:`repro.experiments.resilience_experiment`) measures.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.candidate_selection import CandidateSelector
from repro.core.loadbalancer import LoadBalancerNode
from repro.errors import LoadBalancerError
from repro.net.addressing import IPv6Address
from repro.net.ecmp import EcmpEdgeRouter
from repro.net.packet import FlowKey, Packet, new_flow_key
from repro.net.srh import SegmentRoutingHeader
from repro.sim.engine import Simulator

#: Builds one candidate selector per tier instance.
SelectorFactory = Callable[[], CandidateSelector]


@dataclass
class TierInstanceStats:
    """Tier-specific counters kept by one instance (besides its
    :class:`~repro.core.loadbalancer.LoadBalancerStats`)."""

    #: Steering SYN-ACKs that arrived here but belonged to another
    #: instance's forward direction, and were relayed to it.
    signals_relayed_out: int = 0
    #: Steering SYN-ACKs handled locally (this instance owns the flow).
    signals_handled_locally: int = 0
    #: Steering misses answered with a candidate-chain recovery hunt
    #: instead of a RST (flow-stable selector only).
    recovery_hunts: int = 0
    #: Packets that arrived after this instance was killed (dropped).
    dropped_while_dead: int = 0


class TierLoadBalancer(LoadBalancerNode):
    """One SRLB instance inside a :class:`LoadBalancerTier`.

    Behaves exactly like a stand-alone
    :class:`~repro.core.loadbalancer.LoadBalancerNode` except for the two
    tier mechanisms described in the module docstring, plus a hard
    ``alive`` switch used to simulate instance failure.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, advertise_vips=False, **kwargs)
        self.tier: Optional["LoadBalancerTier"] = None
        self.alive = True
        self.tier_stats = TierInstanceStats()

    # ------------------------------------------------------------------
    # failure model
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        if not self.alive:
            # A crashed instance silently eats whatever was in flight to
            # it; there is no software left to answer.
            self.tier_stats.dropped_while_dead += 1
            return
        super().handle_packet(packet)

    # ------------------------------------------------------------------
    # cross-instance SYN-ACK learning
    # ------------------------------------------------------------------
    def _handle_steering_signal(self, packet: Packet) -> None:
        srh = packet.srh
        dst = packet._dst
        if (
            srh is not None
            and self.tier is not None
            and dst in self._steering_aliases
            and dst not in self._addresses
        ):
            # The packet reached us through the shared steering address:
            # the ECMP edge hashed the *reverse* tuple, so we may not be
            # the instance that will see the flow's forward packets.
            key = packet._flow_key  # reversed below, written out
            owner = self.tier.owner_of(
                new_flow_key(FlowKey, (key[2], key[3], key[0], key[1]))
            )
            if owner is not None and owner is not self:
                # Relay one hop to the owner: rewrite the active segment
                # from the shared steering address to the owner's own
                # address (preserving the dst == active-segment packet
                # invariant); the rest of the SR header still carries
                # everything the owner needs to learn the binding.
                # The dst assignment is written as data: with the SR header
                # on, the flow key's destination is its final segment.
                self.tier_stats.signals_relayed_out += 1
                owner_address = owner.primary_address
                srh.segments[srh.segments_left] = owner_address
                packet._dst = owner_address
                self.send(packet)
                return
        if srh is not None:
            self.tier_stats.signals_handled_locally += 1
        super()._handle_steering_signal(packet)

    # ------------------------------------------------------------------
    # stateless steering recovery
    # ------------------------------------------------------------------
    def _handle_steering_miss(self, packet: Packet, vip: IPv6Address) -> None:
        if self.selector.flow_stable:
            # Re-derive the flow's (stable) candidate chain and hunt for
            # the server holding the connection: the accepting server was
            # chosen from this same chain, so the packet finds it without
            # any instance having kept state.
            candidates = self.selector.select(packet.flow_key(), self._backends[vip])
            srh = SegmentRoutingHeader.from_traversal(list(candidates) + [vip])
            packet.attach_srh(srh)
            self.tier_stats.recovery_hunts += 1
            self.send(packet)
            return
        super()._handle_steering_miss(packet, vip)


@dataclass
class TierStats:
    """Aggregate churn bookkeeping kept by the tier."""

    instances_killed: int = 0
    instances_added: int = 0
    #: Flow-table entries lost to instance kills (steering state that
    #: must be recovered in-band or results in broken flows).
    flow_entries_lost: int = 0


class LoadBalancerTier:
    """N SRLB instances sharing VIPs behind a per-packet ECMP edge.

    The tier is a drop-in replacement for a single
    :class:`~repro.core.loadbalancer.LoadBalancerNode` from both sides:
    clients address the VIPs (advertised by the edge router), and servers
    address their steering SYN-ACKs to the shared steering address.

    Parameters
    ----------
    simulator:
        Shared simulation engine.
    steering_address:
        The tier's shared address: what servers are configured with, and
        what the edge router owns on the fabric.
    instance_addresses:
        One address per initial SRLB instance.
    selector_factory:
        Builds a fresh candidate selector per instance.  Flow-stable
        selectors (consistent hashing) enable stateless steering
        recovery; random selectors leave remapped flows to be reset.
    flow_idle_timeout:
        Idle timeout of each instance's flow table, in seconds.
    hash_scheme:
        ECMP mapping scheme of the edge router (``"rendezvous"`` or
        ``"modulo"``), see :class:`repro.net.ecmp.EcmpEdgeRouter`.
    """

    def __init__(
        self,
        simulator: Simulator,
        steering_address: IPv6Address,
        instance_addresses: Sequence[IPv6Address],
        selector_factory: SelectorFactory,
        flow_idle_timeout: float = 60.0,
        hash_scheme: str = "rendezvous",
        name_prefix: str = "lb",
    ) -> None:
        if not instance_addresses:
            raise LoadBalancerError("a tier needs at least one instance address")
        self.simulator = simulator
        self.selector_factory = selector_factory
        self.flow_idle_timeout = flow_idle_timeout
        self.name_prefix = name_prefix
        self.router = EcmpEdgeRouter(
            simulator, f"{name_prefix}-ecmp-edge", steering_address, hash_scheme
        )
        self.instances: List[TierLoadBalancer] = []
        self.stats = TierStats()
        self._vips: Dict[IPv6Address, List[IPv6Address]] = {}
        self._next_index = 0
        self._fabric = None
        for address in instance_addresses:
            self.add_instance(address)

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    @property
    def steering_address(self) -> IPv6Address:
        """The shared address servers route their steering replies to."""
        return self.router.steering_address

    def register_vip(self, vip: IPv6Address, servers: Sequence[IPv6Address]) -> None:
        """Register a VIP and its server pool tier-wide."""
        self._vips[vip] = list(servers)
        self.router.register_vip(vip)
        for instance in self.instances:
            instance.register_vip(vip, servers)

    def add_backend(self, vip: IPv6Address, server: IPv6Address) -> None:
        """Add a server to a VIP pool on every instance (elastic scale-up).

        Flow-stable selectors rebuild their Maglev tables from the new
        pool on the next selection, and the edge router's memoized
        flow-to-instance decisions are dropped — the control plane's
        "reprogram the data plane" step, applied tier-wide.
        """
        pool = self._vips.get(vip)
        if pool is None:
            raise LoadBalancerError(f"VIP {vip} is not registered on the tier")
        if server not in pool:
            pool.append(server)
        for instance in self.instances:
            instance.add_backend(vip, server)
        self.router.invalidate_next_hop_cache()

    def remove_backend(self, vip: IPv6Address, server: IPv6Address) -> bool:
        """Remove a server from a VIP pool on every instance (drain).

        Existing flow-table entries keep steering to the server — a
        graceful drain relies on exactly that — but no new candidate
        list (or stateless recovery hunt) will name it.
        """
        pool = self._vips.get(vip)
        if pool is None:
            raise LoadBalancerError(f"VIP {vip} is not registered on the tier")
        if server not in pool:
            return False
        if len(pool) == 1:
            # Validate before touching any pool: a rejected removal must
            # leave the tier, every instance and the edge cache intact.
            raise LoadBalancerError(
                f"removing {server} would leave VIP {vip} with no servers"
            )
        for instance in self.instances:
            # Same pre-flight check against each instance's own pool:
            # they normally mirror the tier's, but the per-instance API
            # is public, and a mid-loop refusal from a diverged instance
            # must not leave the tier half-mutated.
            instance_pool = instance.backends_for(vip)
            if server in instance_pool and len(instance_pool) == 1:
                raise LoadBalancerError(
                    f"removing {server} would leave VIP {vip} with no "
                    f"servers on instance {instance.name!r}"
                )
        pool.remove(server)
        removed = False
        for instance in self.instances:
            removed = instance.remove_backend(vip, server) or removed
        self.router.invalidate_next_hop_cache()
        return removed

    def attach(self, fabric) -> None:
        """Attach the edge router and every instance to the fabric.

        Only the edge router binds the VIPs and the steering address;
        instances are reached through it (or directly, by address, for
        the cross-instance relay).
        """
        self._fabric = fabric
        self.router.attach(fabric)
        for instance in self.instances:
            instance.attach(fabric)

    # ------------------------------------------------------------------
    # membership / churn
    # ------------------------------------------------------------------
    def add_instance(self, address: IPv6Address) -> TierLoadBalancer:
        """Bring a new SRLB instance into rotation (also used mid-run)."""
        instance = TierLoadBalancer(
            simulator=self.simulator,
            name=f"{self.name_prefix}-{self._next_index}",
            address=address,
            selector=self.selector_factory(),
            flow_idle_timeout=self.flow_idle_timeout,
        )
        self._next_index += 1
        instance.tier = self
        instance.add_steering_alias(self.steering_address)
        for vip, servers in self._vips.items():
            instance.register_vip(vip, servers)
        if self._fabric is not None:
            instance.attach(self._fabric)
        self.instances.append(instance)
        self.router.add_next_hop(instance)
        if self._fabric is not None:
            # Only post-attach additions count as churn; the initial
            # instances are part of the tier's construction.
            self.stats.instances_added += 1
        return instance

    def kill_instance(self, name: str) -> TierLoadBalancer:
        """Crash an instance: its flow state is lost, the edge remaps.

        The instance stops processing packets immediately (in-flight
        packets addressed to it are eaten) and the ECMP edge stops
        hashing new packets to it.
        """
        instance = self.instance(name)
        if not instance.alive:
            raise LoadBalancerError(f"instance {name!r} is already dead")
        alive_after = [lb for lb in self.alive_instances() if lb.name != name]
        if not alive_after:
            raise LoadBalancerError("cannot kill the last alive instance")
        instance.alive = False
        instance.stop_housekeeping()
        self.stats.instances_killed += 1
        self.stats.flow_entries_lost += len(instance.flow_table)
        self.router.remove_next_hop(name)
        return instance

    def close(self) -> None:
        """Cut each instance's link back to the tier (the run is over)."""
        for instance in self.instances:
            instance.tier = None

    def instance(self, name: str) -> TierLoadBalancer:
        """Look up an instance (alive or dead) by name."""
        for instance in self.instances:
            if instance.name == name:
                return instance
        raise LoadBalancerError(f"unknown tier instance {name!r}")

    def alive_instances(self) -> List[TierLoadBalancer]:
        """Instances currently in rotation."""
        return [instance for instance in self.instances if instance.alive]

    def owner_of(self, forward_key: FlowKey) -> Optional[TierLoadBalancer]:
        """The instance the flow's forward direction currently hashes to."""
        owner = self.router.owner_of_forward_flow(forward_key)
        if owner is None:
            return None
        assert isinstance(owner, TierLoadBalancer)
        return owner

    # ------------------------------------------------------------------
    # tier-wide introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        """The tier's churn counters plus every instance's (dead ones
        included) recovery and relay counters, summed, by name."""
        totals = asdict(self.stats)
        for instance in self.instances:
            for name, value in asdict(instance.tier_stats).items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def __repr__(self) -> str:
        return (
            f"LoadBalancerTier(instances={len(self.instances)}, "
            f"alive={len(self.alive_instances())}, "
            f"scheme={self.router.hash_scheme!r}, vips={len(self._vips)})"
        )
