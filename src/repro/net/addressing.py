"""IPv6 addressing for the simulated data center.

SRLB is built on IPv6 Segment Routing: applications are identified by
virtual IP addresses (VIPs), servers by their physical addresses, and SR
segments are themselves IPv6 addresses (segment identifiers, SIDs).  This
module provides a small, dependency-free IPv6 address type plus prefix
matching and an allocator used by the topology builder to hand out
addresses from data-center prefixes.

An address *is* a 128-bit integer (an ``int`` subclass), which keeps
comparisons, hashing and longest-prefix matching in C — the simulator
forwards hundreds of thousands of packets per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.errors import AddressError

_MAX_IPV6 = (1 << 128) - 1


def _parse_ipv6(text: str) -> int:
    """Parse an IPv6 address in (possibly compressed) hex notation."""
    if not isinstance(text, str) or not text:
        raise AddressError(f"invalid IPv6 address: {text!r}")
    if "::" in text:
        if text.count("::") > 1:
            raise AddressError(f"invalid IPv6 address (multiple '::'): {text!r}")
        head, tail = text.split("::")
        head_groups = head.split(":") if head else []
        tail_groups = tail.split(":") if tail else []
        missing = 8 - (len(head_groups) + len(tail_groups))
        if missing < 0:
            raise AddressError(f"invalid IPv6 address (too many groups): {text!r}")
        groups = head_groups + ["0"] * missing + tail_groups
    else:
        groups = text.split(":")
    if len(groups) != 8:
        raise AddressError(f"invalid IPv6 address (expected 8 groups): {text!r}")
    value = 0
    for group in groups:
        if not group or len(group) > 4:
            raise AddressError(f"invalid IPv6 group {group!r} in {text!r}")
        try:
            part = int(group, 16)
        except ValueError as exc:
            raise AddressError(f"invalid IPv6 group {group!r} in {text!r}") from exc
        value = (value << 16) | part
    return value


def _format_ipv6(value: int) -> str:
    """Format a 128-bit integer as a compressed IPv6 address string."""
    groups = [(value >> (16 * (7 - i))) & 0xFFFF for i in range(8)]
    # Find the longest run of zero groups to compress with '::'.
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for i, group in enumerate(groups):
        if group == 0:
            if run_start < 0:
                run_start, run_len = i, 1
            else:
                run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0
    if best_len < 2:
        return ":".join(f"{g:x}" for g in groups)
    head = ":".join(f"{g:x}" for g in groups[:best_start])
    tail = ":".join(f"{g:x}" for g in groups[best_start + best_len:])
    return f"{head}::{tail}"


#: Memo of :meth:`IPv6Address.__str__`: the simulator formats the same
#: few hundred topology addresses over and over (ECMP 5-tuple keys,
#: consistent-hash flow keys), so the memo is small and permanently hot.
#: The universe of keys is bounded by the testbed's address plan, not by
#: traffic volume.
_TEXT_FORMS: Dict[int, str] = {}


class IPv6Address(int):
    """Immutable IPv6 address: an ``int`` carrying the 128-bit value.

    Addresses key the fabric's address map, the load balancer's backend
    pools and every flow key, so they are hashed and compared on every
    packet hop.  As an ``int`` subclass with empty ``__slots__`` the
    hash, equality and ordering all run in C, and there is no instance
    dictionary to assign into — the value cannot change under a dict
    that holds it.  Like any ``int``, the all-zero address ``::`` is
    falsy: test optional addresses with ``is None``.
    """

    __slots__ = ()

    def __new__(cls, value: int) -> "IPv6Address":
        if not isinstance(value, int) or not 0 <= value <= _MAX_IPV6:
            raise AddressError(f"IPv6 address value out of range: {value!r}")
        return int.__new__(cls, value)

    @property
    def value(self) -> int:
        """The address as a plain 128-bit integer."""
        return int(self)

    @classmethod
    def parse(cls, text: str) -> "IPv6Address":
        """Parse from textual notation, e.g. ``"2001:db8::1"``."""
        return cls(_parse_ipv6(text))

    def __str__(self) -> str:
        text = _TEXT_FORMS.get(self)
        if text is None:
            text = _TEXT_FORMS[self] = _format_ipv6(self)
        return text

    def __repr__(self) -> str:
        return f"IPv6Address('{self}')"

    def __reduce__(self):
        return (IPv6Address, (int(self),))

    def __add__(self, offset: int) -> "IPv6Address":
        result = int(self) + offset
        if not 0 <= result <= _MAX_IPV6:
            raise AddressError(f"address arithmetic overflow: {self} + {offset}")
        return IPv6Address(result)


@dataclass(frozen=True)
class IPv6Prefix:
    """An IPv6 prefix (network address + prefix length)."""

    network: IPv6Address
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 128:
            raise AddressError(f"prefix length out of range: {self.length!r}")
        if self.network & ~self.mask_value():
            raise AddressError(
                f"prefix {self.network}/{self.length} has host bits set"
            )

    @classmethod
    def parse(cls, text: str) -> "IPv6Prefix":
        """Parse from ``"<address>/<length>"`` notation."""
        if "/" not in text:
            raise AddressError(f"prefix must contain '/': {text!r}")
        address_text, _, length_text = text.partition("/")
        try:
            length = int(length_text)
        except ValueError as exc:
            raise AddressError(f"invalid prefix length in {text!r}") from exc
        return cls(IPv6Address.parse(address_text), length)

    def mask_value(self) -> int:
        """The prefix mask as a 128-bit integer."""
        if self.length == 0:
            return 0
        return (_MAX_IPV6 >> (128 - self.length)) << (128 - self.length)

    def contains(self, address: IPv6Address) -> bool:
        """Whether ``address`` falls inside this prefix."""
        return (address & self.mask_value()) == self.network

    def address_at(self, offset: int) -> IPv6Address:
        """The ``offset``-th address inside the prefix (0 is the network address)."""
        size = 1 << (128 - self.length)
        if not 0 <= offset < size:
            raise AddressError(
                f"offset {offset} out of range for prefix {self} (size {size})"
            )
        return self.network + offset

    def __str__(self) -> str:
        return f"{self.network}/{self.length}"

    def __repr__(self) -> str:
        return f"IPv6Prefix('{self}')"


class AddressAllocator:
    """Sequential allocator of addresses from a prefix.

    The topology builder uses one allocator per role (servers, clients,
    VIPs, SIDs) so that addresses are predictable and easy to read in
    traces and test failures.
    """

    def __init__(self, prefix: IPv6Prefix, first_offset: int = 1) -> None:
        self._prefix = prefix
        self._next_offset = first_offset

    def allocate(self) -> IPv6Address:
        """Return the next free address in the prefix."""
        address = self._prefix.address_at(self._next_offset)
        self._next_offset += 1
        return address

    def allocate_many(self, count: int) -> Iterator[IPv6Address]:
        """Allocate ``count`` consecutive addresses."""
        for _ in range(count):
            yield self.allocate()


# Well-known prefixes used by the default testbed topology.  These mirror
# a typical SRv6 data-center addressing plan: one prefix for server/node
# locators (from which SIDs are carved), one for client-facing space and
# one for the anycast VIPs advertised by the load balancer.
SERVER_PREFIX = IPv6Prefix.parse("fd00:100::/32")
CLIENT_PREFIX = IPv6Prefix.parse("fd00:200::/32")
VIP_PREFIX = IPv6Prefix.parse("fd00:300::/32")
LB_PREFIX = IPv6Prefix.parse("fd00:400::/32")


def default_allocators() -> dict:
    """Fresh allocators for the well-known prefixes (one per role)."""
    return {
        "server": AddressAllocator(SERVER_PREFIX),
        "client": AddressAllocator(CLIENT_PREFIX),
        "vip": AddressAllocator(VIP_PREFIX),
        "lb": AddressAllocator(LB_PREFIX),
    }


def describe(address: Optional[IPv6Address]) -> str:
    """Short human-readable role tag for an address (used in logs/tests)."""
    if address is None:
        return "<none>"
    if SERVER_PREFIX.contains(address):
        return f"server:{address}"
    if CLIENT_PREFIX.contains(address):
        return f"client:{address}"
    if VIP_PREFIX.contains(address):
        return f"vip:{address}"
    if LB_PREFIX.contains(address):
        return f"lb:{address}"
    return str(address)
