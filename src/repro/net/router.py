"""Routing-table and network-node abstractions.

Two pieces live here:

* :class:`RoutingTable` — a longest-prefix-match IPv6 routing table,
  mirroring the "routing tables statically configured" of the paper's
  testbed.  Both the LAN fabric and the per-server virtual routers use
  it.
* :class:`NetworkNode` — the base class of every addressable entity in
  the simulated data center (clients, the load balancer, server virtual
  routers).  A node owns a set of addresses, is attached to a fabric,
  and handles packets delivered to it in :meth:`NetworkNode.receive`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generic,
    Iterable,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.errors import RoutingError
from repro.net.addressing import IPv6Address, IPv6Prefix
from repro.net.packet import Packet
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.fabric import LANFabric

NextHopT = TypeVar("NextHopT")


@dataclass(frozen=True)
class Route(Generic[NextHopT]):
    """A single routing-table entry."""

    prefix: IPv6Prefix
    next_hop: NextHopT
    metric: int = 0


class RoutingTable(Generic[NextHopT]):
    """Longest-prefix-match routing table.

    The next-hop type is generic: the LAN fabric stores node objects,
    while stand-alone router examples may store interface names.  With a
    handful of prefixes per table (the testbed has four roles), a sorted
    linear scan is both simple and fast enough; entries are kept sorted
    by decreasing prefix length so the first match is the longest one.
    """

    def __init__(self) -> None:
        self._routes: List[Route[NextHopT]] = []

    def add_route(
        self, prefix: IPv6Prefix, next_hop: NextHopT, metric: int = 0
    ) -> None:
        """Install a route; replaces an existing route for the same prefix."""
        self._routes = [
            route for route in self._routes if route.prefix != prefix
        ]
        self._routes.append(Route(prefix=prefix, next_hop=next_hop, metric=metric))
        self._routes.sort(key=lambda route: (-route.prefix.length, route.metric))

    def remove_route(self, prefix: IPv6Prefix) -> bool:
        """Remove the route for ``prefix``; returns whether one existed."""
        before = len(self._routes)
        self._routes = [route for route in self._routes if route.prefix != prefix]
        return len(self._routes) != before

    def lookup(self, address: IPv6Address) -> NextHopT:
        """Longest-prefix-match lookup; raises ``RoutingError`` on miss."""
        match = self.lookup_or_none(address)
        if match is None:
            raise RoutingError(f"no route to {address}")
        return match

    def lookup_or_none(self, address: IPv6Address) -> Optional[NextHopT]:
        """Like :meth:`lookup` but returns ``None`` on miss."""
        for route in self._routes:
            if route.prefix.contains(address):
                return route.next_hop
        return None

    def routes(self) -> Tuple[Route[NextHopT], ...]:
        """All installed routes, most-specific first."""
        return tuple(self._routes)

    def __len__(self) -> int:
        return len(self._routes)


#: A local SID behaviour: called with the packet; returns ``True`` if the
#: packet was consumed locally, ``False`` if normal forwarding should
#: continue.
LocalSIDBehavior = Callable[[Packet], bool]


class LocalSIDTable:
    """Table of locally instantiated segment identifiers.

    In SRv6 terms this is the "My Local SID table": when a packet's
    destination matches one of these addresses, the associated behaviour
    runs (e.g. the Service Hunting accept-or-forward function of the
    server virtual router).
    """

    def __init__(self) -> None:
        self._behaviors: Dict[IPv6Address, LocalSIDBehavior] = {}

    def register(self, sid: IPv6Address, behavior: LocalSIDBehavior) -> None:
        """Bind ``behavior`` to ``sid``; re-registration overwrites."""
        self._behaviors[sid] = behavior

    def unregister(self, sid: IPv6Address) -> None:
        """Remove a SID binding if present."""
        self._behaviors.pop(sid, None)

    def lookup(self, address: IPv6Address) -> Optional[LocalSIDBehavior]:
        """The behaviour bound to ``address``, or ``None``."""
        return self._behaviors.get(address)

    def sids(self) -> Iterable[IPv6Address]:
        """All registered SIDs."""
        return tuple(self._behaviors)

    def __contains__(self, address: IPv6Address) -> bool:
        return address in self._behaviors

    def __len__(self) -> int:
        return len(self._behaviors)


class NetworkNode:
    """Base class for every addressable node in the simulated network.

    Subclasses override :meth:`handle_packet`; the base class takes care
    of address ownership bookkeeping and of sending packets through the
    attached fabric.
    """

    def __init__(self, simulator: Simulator, name: str) -> None:
        self.simulator = simulator
        self.name = name
        self._addresses: List[IPv6Address] = []
        self._fabric = None  # type: Optional["LANFabric"]
        self.packets_received = 0
        self.packets_sent = 0

    # ------------------------------------------------------------------
    # address / fabric management
    # ------------------------------------------------------------------
    @property
    def addresses(self) -> Tuple[IPv6Address, ...]:
        """Addresses owned by this node."""
        return tuple(self._addresses)

    @property
    def primary_address(self) -> IPv6Address:
        """The node's first (canonical) address."""
        if not self._addresses:
            raise RoutingError(f"node {self.name!r} has no address")
        return self._addresses[0]

    def add_address(self, address: IPv6Address) -> None:
        """Attach an additional address to this node."""
        if address not in self._addresses:
            self._addresses.append(address)
            if self._fabric is not None:
                self._fabric.bind_address(address, self)

    def owns(self, address: IPv6Address) -> bool:
        """Whether the node owns ``address``."""
        return address in self._addresses

    def attach(self, fabric: "LANFabric") -> None:
        """Attach the node to a fabric, binding all its addresses and ``send``."""
        self._fabric = fabric
        fabric.register_node(self)
        for address in self._addresses:
            fabric.bind_address(address, self)
        self.send = partial(fabric.send_from, self)

    @property
    def fabric(self):
        """The fabric the node is attached to (``None`` if detached)."""
        return self._fabric

    # ------------------------------------------------------------------
    # packet I/O
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Send a packet into the attached fabric (bound by :meth:`attach`)."""
        raise RoutingError(f"node {self.name!r} is not attached to a fabric")

    def receive(self, packet: Packet) -> None:
        """Entry point for a packet arriving over a link or an ECMP hop.

        The fabric's per-destination arrival (``LANFabric.send``) inlines
        these two lines to save a frame per hop; keep them in step.
        """
        self.packets_received += 1
        self.handle_packet(packet)

    def handle_packet(self, packet: Packet) -> None:
        """Process an incoming packet (to be overridden by subclasses)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, addresses={self.addresses!r})"
