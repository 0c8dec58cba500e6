"""The network node: base class of every addressable entity.

Clients, the load balancer and the server virtual routers are
:class:`NetworkNode` subclasses.  A node owns a set of addresses, is
attached to a fabric, and handles packets delivered to it in
:meth:`NetworkNode.receive`.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import RoutingError
from repro.net.addressing import IPv6Address
from repro.net.packet import Packet
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.fabric import LANFabric

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

    def attach(self, fabric: "LANFabric") -> None:
        """Attach the node to a fabric, binding all its addresses and ``send``."""
        self._fabric = fabric
        fabric.register_node(self)
        for address in self._addresses:
            fabric.bind_address(address, self)
        self.send = partial(fabric.send_from, self)

    def forget_fabric(self) -> None:
        """Drop the links :meth:`attach` made: the fabric is being closed."""
        self._fabric = None
        vars(self).pop("send", None)

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
        """Hand a packet to the node (the fabric and ECMP hops call
        :meth:`handle_packet` directly)."""
        self.handle_packet(packet)

    def handle_packet(self, packet: Packet) -> None:
        """Process an incoming packet (to be overridden by subclasses)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, addresses={self.addresses!r})"
