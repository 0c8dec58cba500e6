"""Unit tests for IPv6 addressing, prefixes and allocators."""

import pytest

from repro.errors import AddressError
from repro.net.addressing import (
    AddressAllocator,
    CLIENT_PREFIX,
    IPv6Address,
    IPv6Prefix,
    SERVER_PREFIX,
    VIP_PREFIX,
    default_allocators,
    describe,
)


class TestIPv6Address:
    def test_parse_full_form(self):
        address = IPv6Address.parse("2001:0db8:0000:0000:0000:0000:0000:0001")
        assert str(address) == "2001:db8::1"

    def test_parse_compressed_form(self):
        assert IPv6Address.parse("2001:db8::1").value == 0x20010DB8000000000000000000000001

    def test_parse_all_zero(self):
        assert IPv6Address.parse("::").value == 0

    def test_parse_loopback(self):
        assert str(IPv6Address.parse("::1")) == "::1"

    def test_parse_trailing_compression(self):
        assert IPv6Address.parse("fd00::").value == 0xFD00 << 112

    def test_roundtrip_formatting(self):
        for text in ("fd00:100::1", "::1", "2001:db8::", "fe80::1:2:3:4"):
            assert str(IPv6Address.parse(text)) == text

    def test_parse_rejects_double_compression(self):
        with pytest.raises(AddressError):
            IPv6Address.parse("2001::db8::1")

    def test_parse_rejects_too_many_groups(self):
        with pytest.raises(AddressError):
            IPv6Address.parse("1:2:3:4:5:6:7:8:9")

    def test_parse_rejects_bad_group(self):
        with pytest.raises(AddressError):
            IPv6Address.parse("2001:db8::zzzz")

    def test_parse_rejects_empty(self):
        with pytest.raises(AddressError):
            IPv6Address.parse("")

    def test_value_out_of_range_rejected(self):
        with pytest.raises(AddressError):
            IPv6Address(1 << 128)
        with pytest.raises(AddressError):
            IPv6Address(-1)

    def test_addresses_are_ordered_and_hashable(self):
        a = IPv6Address.parse("fd00::1")
        b = IPv6Address.parse("fd00::2")
        assert a < b
        assert len({a, b, IPv6Address.parse("fd00::1")}) == 2

    def test_addition(self):
        assert IPv6Address.parse("fd00::1") + 4 == IPv6Address.parse("fd00::5")

    def test_addition_overflow_rejected(self):
        with pytest.raises(AddressError):
            IPv6Address((1 << 128) - 1) + 1

class TestIPv6Prefix:
    def test_parse(self):
        prefix = IPv6Prefix.parse("fd00:100::/32")
        assert prefix.length == 32
        assert str(prefix) == "fd00:100::/32"

    def test_contains(self):
        prefix = IPv6Prefix.parse("fd00:100::/32")
        assert prefix.contains(IPv6Address.parse("fd00:100::1"))
        assert prefix.contains(IPv6Address.parse("fd00:100:ffff::1"))
        assert not prefix.contains(IPv6Address.parse("fd00:101::1"))

    def test_zero_length_prefix_contains_everything(self):
        prefix = IPv6Prefix.parse("::/0")
        assert prefix.contains(IPv6Address.parse("2001:db8::1"))

    def test_host_bits_rejected(self):
        with pytest.raises(AddressError):
            IPv6Prefix(IPv6Address.parse("fd00:100::1"), 32)

    def test_invalid_length_rejected(self):
        with pytest.raises(AddressError):
            IPv6Prefix(IPv6Address.parse("fd00::"), 129)

    def test_missing_slash_rejected(self):
        with pytest.raises(AddressError):
            IPv6Prefix.parse("fd00:100::")

    def test_address_at(self):
        prefix = IPv6Prefix.parse("fd00:100::/32")
        assert prefix.address_at(5) == IPv6Address.parse("fd00:100::5")

    def test_address_at_out_of_range(self):
        prefix = IPv6Prefix.parse("fd00:100::/127")
        with pytest.raises(AddressError):
            prefix.address_at(2)


class TestAllocator:
    def test_sequential_allocation(self):
        allocator = AddressAllocator(IPv6Prefix.parse("fd00:100::/32"))
        first = allocator.allocate()
        second = allocator.allocate()
        assert first == IPv6Address.parse("fd00:100::1")
        assert second == IPv6Address.parse("fd00:100::2")

    def test_allocate_many(self):
        allocator = AddressAllocator(IPv6Prefix.parse("fd00:100::/32"))
        addresses = list(allocator.allocate_many(12))
        assert len(set(addresses)) == 12
        assert all(SERVER_PREFIX.contains(address) for address in addresses)

    def test_default_allocators_cover_all_roles(self):
        allocators = default_allocators()
        assert set(allocators) == {"server", "client", "vip", "lb"}
        assert VIP_PREFIX.contains(allocators["vip"].allocate())
        assert CLIENT_PREFIX.contains(allocators["client"].allocate())


class TestRoleHelpers:
    def test_describe_labels_roles(self):
        assert describe(IPv6Address.parse("fd00:100::1")).startswith("server:")
        assert describe(IPv6Address.parse("fd00:300::1")).startswith("vip:")
        assert describe(None) == "<none>"
        assert describe(IPv6Address.parse("2001:db8::1")) == "2001:db8::1"
