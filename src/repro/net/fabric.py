"""Shared-LAN fabric connecting every node of the testbed.

The paper's experimental platform bridges the load balancer and the
twelve application servers "on the same link, with routing tables
statically configured".  The :class:`LANFabric` models exactly that: a
switched Layer-2/3 segment where every node's addresses (the VIP
included, bound by the load balancer) are directly reachable, and packet
delivery costs a small fixed latency.

The fabric is the single place packets transit through, which makes it
a convenient observation point: delivery and byte totals, drops for
unroutable packets and optional packet taps (used by tests and by the
debugging examples) all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush as _heappush
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.errors import NetworkError, RoutingError, SchedulingError
from repro.net.addressing import IPv6Address
from repro.net.channel import DeliveryChannel, InProcessChannel
from repro.net.packet import IPV6_HEADER_SIZE, TCP_HEADER_SIZE, Packet
from repro.net.srh import SRH_FIXED_SIZE, SRH_SEGMENT_SIZE
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.router import NetworkNode

_INFINITY = float("inf")
#: IPv6 + TCP header bytes, on every packet.
_HEADERS_SIZE = IPV6_HEADER_SIZE + TCP_HEADER_SIZE

#: A packet tap receives (packet, origin_node_name, destination_node_name).
PacketTap = Callable[[Packet, str, str], None]


@dataclass
class FabricStats:
    """Aggregate fabric counters.

    Drops are counted once each, in exactly one of the
    ``packets_dropped_*`` counters (see docs/architecture.md):

    * ``no_route`` — the destination address resolved to nothing at send
      time;
    * ``hop_limit`` — the hop limit hit zero at send time.
    """

    packets_delivered: int = 0
    packets_dropped_no_route: int = 0
    packets_dropped_hop_limit: int = 0
    bytes_delivered: int = 0

    @property
    def packets_dropped(self) -> int:
        """Unified drop total across every drop reason."""
        return self.packets_dropped_no_route + self.packets_dropped_hop_limit

    def snapshot(self) -> Dict[str, int]:
        """Flat numeric counters (the uniform telemetry-sampler API)."""
        return {
            "packets_delivered": self.packets_delivered,
            "bytes_delivered": self.bytes_delivered,
            "packets_dropped": self.packets_dropped,
            "packets_dropped_no_route": self.packets_dropped_no_route,
            "packets_dropped_hop_limit": self.packets_dropped_hop_limit,
        }


class LANFabric:
    """Single-segment data-center fabric with static routing.

    Parameters
    ----------
    simulator:
        Engine used to schedule packet deliveries.
    latency:
        One-way delivery latency between any two nodes, in seconds.  The
        default (50 µs) approximates one switch hop in a data center.
    strict:
        When ``True`` an unroutable packet raises
        :class:`~repro.errors.RoutingError`; when ``False`` it is counted
        and silently dropped (closer to real network behaviour, and the
        default for experiments).

    A hop is one engine event whose callback is the destination's
    ``handle_packet`` and whose argument is the packet.  On the
    fabric's own in-process channel, :meth:`send_from` pushes that heap
    entry itself — the ``[time, sequence, callback, arg, label]`` list
    and sequence draw ``Simulator._schedule_raw`` would make, behind the
    same delay check.  When a fault pipeline
    (:func:`~repro.net.faults.install_fault_channel`) wraps that
    in-process channel, :meth:`send_from` runs the pipeline's injectors
    in line as :meth:`FaultInjectionChannel.send
    <repro.net.faults.FaultInjectionChannel.send>` does — same counters,
    same draws in the same order, same ``delay + extra`` — and pushes the
    entry itself too.  Any other channel gets the hop through its
    ``send``.
    """

    def __init__(
        self,
        simulator: Simulator,
        latency: float = 50e-6,
        strict: bool = False,
    ) -> None:
        if latency < 0:
            raise RoutingError(f"fabric latency must be non-negative, got {latency!r}")
        self.simulator = simulator
        self.latency = latency
        self.strict = strict
        #: The delivery channel of the fabric's hops.  While it is the
        #: fabric's own in-process channel, or a fault pipeline wrapping
        #: it, the hop is pushed in line (see the class docstring).
        self.channel: DeliveryChannel = InProcessChannel(simulator)
        self._in_process = self.channel
        # What the in-line push touches: the clock and the heap list are
        # never rebound; the sequence counter is (by schedule_series).
        self._clock = simulator.clock
        self._heap = simulator._heap
        self._nodes: Dict[str, "NetworkNode"] = {}
        self._address_map: Dict[IPv6Address, "NetworkNode"] = {}
        self._taps: List[PacketTap] = []
        #: Memoized send routes: destination address -> ``(node name,
        #: event label, the node's handle_packet)``.  This folds the
        #: address resolution, the interned per-destination label and
        #: the callback into one dict hit per packet.  Every topology
        #: mutation (address bind or node registration) clears the memo
        #: wholesale, so a cached entry is always exactly what resolve()
        #: would return.
        self._send_routes: Dict[IPv6Address, tuple] = {}
        self._external = SimpleNamespace(name="<external>")
        self.stats = FabricStats()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_node(self, node: "NetworkNode") -> None:
        """Register a node (called from :meth:`NetworkNode.attach`)."""
        existing = self._nodes.get(node.name)
        if existing is not None and existing is not node:
            raise RoutingError(f"a different node named {node.name!r} already exists")
        self._nodes[node.name] = node
        self._send_routes.clear()

    def bind_address(self, address: IPv6Address, node: "NetworkNode") -> None:
        """Bind an exact address to a node."""
        owner = self._address_map.get(address)
        if owner is not None and owner is not node:
            raise RoutingError(
                f"address {address} already bound to node {owner.name!r}"
            )
        self._address_map[address] = node
        self._send_routes.clear()

    def close(self) -> None:
        """Unregister every node at once: the end of the fabric's run.

        Each attached node holds the fabric (its ``send``), and the
        fabric holds each node (registration, address bindings, memoized
        routes).  Closing cuts both sides, so a finished testbed is freed
        by reference counting instead of waiting for a garbage-collection
        pass.  The nodes are unattached afterwards (``send`` raises), and
        :attr:`stats` stays readable.
        """
        for node in self._nodes.values():
            node.forget_fabric()
        self._nodes.clear()
        self._address_map.clear()
        self._send_routes.clear()
        self._taps.clear()

    def add_tap(self, tap: PacketTap) -> None:
        """Register an observer called for every delivered packet."""
        self._taps.append(tap)

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------
    def resolve(self, address: IPv6Address) -> Optional["NetworkNode"]:
        """The node that should receive packets addressed to ``address``."""
        return self._address_map.get(address)

    def send(self, packet: Packet, origin: Optional["NetworkNode"] = None) -> bool:
        """Deliver ``packet`` to the owner of its destination address.

        Returns ``True`` if the packet was scheduled for delivery,
        ``False`` if it was dropped (no route or hop limit exhausted) and
        the fabric is not strict.
        """
        return self.send_from(self._external if origin is None else origin, packet)

    def send_from(self, origin: "NetworkNode", packet: Packet) -> bool:
        """:meth:`send` from ``origin``: each attached node's ``send``."""
        # The resolution, event label and callback for a destination
        # address are all memoized in one dict hit (see
        # ``_send_routes``); the miss path below performs the same
        # resolve() an uncached send would, and the memo is cleared on
        # every topology mutation, so hits and misses are
        # indistinguishable.  The hop-limit check, the wire-size
        # arithmetic (IPv6 + TCP + SRH headers) and the heap push are
        # inlined for the same once-per-packet-hop reason.
        dst = packet._dst
        route = self._send_routes.get(dst)
        if route is None:
            destination = self._address_map.get(dst)
            if destination is None:
                # Unroutable sends are not cached: a later bind can make
                # the same address routable.
                self.stats.packets_dropped_no_route += 1
                if self.strict:
                    raise RoutingError(
                        f"no route to {packet.dst} for {packet.describe()}"
                    )
                return False
            name = destination.name
            route = self._send_routes[dst] = (
                name, f"deliver->{name}", destination.handle_packet
            )  # fmt: skip

        hop_limit = packet.hop_limit
        if hop_limit <= 1:
            self.stats.packets_dropped_hop_limit += 1
            if self.strict:
                raise NetworkError(
                    f"hop limit exhausted for packet {packet.packet_id}"
                )
            return False
        packet.hop_limit = hop_limit - 1

        name, label, handle = route

        if self._taps:
            for tap in self._taps:
                tap(packet, origin.name, name)

        stats = self.stats
        stats.packets_delivered += 1
        srh = packet.srh
        size = _HEADERS_SIZE + packet.tcp.payload_size
        if srh is not None:
            size += SRH_FIXED_SIZE + SRH_SEGMENT_SIZE * len(srh.segments)
        stats.bytes_delivered += size

        channel = self.channel
        if channel is self._in_process:
            # Simulator._schedule_raw, inlined: same check, same entry.
            latency = self.latency
            time = self._clock._now + latency
            if not (latency >= 0.0 and time < _INFINITY):
                raise SchedulingError(
                    f"cannot schedule event {label!r} with delay {latency!r}"
                )
            _heappush(
                self._heap,
                [time, next(self.simulator._sequence), handle, packet, label],
            )
        elif getattr(channel, "inner", None) is self._in_process:
            # A fault pipeline on the in-process channel:
            # FaultInjectionChannel.send, then the push above, in line.
            link = channel.stats
            link.packets_sent += 1
            now = self._clock._now
            extra = 0.0
            for injector in channel.injectors:
                verdict = injector.assess(now, link)
                if verdict is None:
                    return True
                extra += verdict
            delay = self.latency
            if extra > 0.0:
                delay = delay + extra
            time = now + delay
            if not (delay >= 0.0 and time < _INFINITY):
                raise SchedulingError(
                    f"cannot schedule event {label!r} with delay {delay!r}"
                )
            _heappush(
                self._heap,
                [time, next(self.simulator._sequence), handle, packet, label],
            )
        else:
            channel.send(handle, packet, self.latency, label)
        return True
