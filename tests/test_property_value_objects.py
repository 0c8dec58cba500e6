"""Value-object contract of :class:`IPv6Address` and :class:`FlowKey`.

Both types key every hot dictionary of a replay (the fabric's address
map, backend pools, flow tables, the servers' connection index), so
their hashing and equality run in C — an ``int`` and a ``tuple``
subclass.  These properties pin what the rest of the tree relies on,
independent of that representation: equal values hash alike, instances
cannot be mutated under a dict that holds them, they survive both
pickle paths the pools and partitions use with their type intact, and
their text forms stay what logs, goldens and ECMP hash keys were built
on.
"""

import pickle
from multiprocessing.reduction import ForkingPickler

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.net.addressing import IPv6Address
from repro.net.packet import FlowKey

MAX_IPV6 = (1 << 128) - 1

values = st.integers(min_value=0, max_value=MAX_IPV6)
addresses = st.builds(IPv6Address, values)
ports = st.integers(min_value=1, max_value=0xFFFF)
flow_keys = st.builds(FlowKey, addresses, ports, addresses, ports)


def _round_trips(obj):
    yield pickle.loads(pickle.dumps(obj))
    yield pickle.loads(pickle.dumps(obj, protocol=2))
    yield ForkingPickler.loads(bytes(ForkingPickler.dumps(obj)))


# ----------------------------------------------------------------------
# IPv6Address
# ----------------------------------------------------------------------
@given(a=values, b=values)
@settings(max_examples=200, deadline=None)
def test_addresses_are_equal_iff_values_are_and_then_hash_alike(a, b):
    first, second = IPv6Address(a), IPv6Address(b)
    assert (first == second) == (a == b)
    assert (first != second) == (a != b)
    if a == b:
        assert hash(first) == hash(second)


@given(value=values, other=values)
@settings(max_examples=200, deadline=None)
def test_address_is_a_stable_dict_and_set_key(value, other):
    address = IPv6Address(value)
    table = {address: "node"}
    assert table[IPv6Address(value)] == "node"
    assert IPv6Address(value) in {address}
    assert (IPv6Address(other) in table) == (other == value)


@given(address=addresses)
@settings(max_examples=50, deadline=None)
def test_address_rejects_attribute_assignment(address):
    with pytest.raises(AttributeError):
        address.value = 1
    with pytest.raises(AttributeError):
        address.note = "mutable after all"
    assert not hasattr(address, "__dict__")


@given(address=addresses)
@settings(max_examples=100, deadline=None)
def test_address_pickle_round_trips_preserve_type_and_equality(address):
    for clone in _round_trips(address):
        assert type(clone) is IPv6Address
        assert clone == address
        assert hash(clone) == hash(address)
        assert clone.value == address.value


@given(a=values, b=values)
@settings(max_examples=200, deadline=None)
def test_address_ordering_follows_the_value(a, b):
    first, second = IPv6Address(a), IPv6Address(b)
    assert (first < second) == (a < b)
    assert (first <= second) == (a <= b)
    assert (first > second) == (a > b)
    assert (first >= second) == (a >= b)
    assert sorted([first, second]) == [IPv6Address(min(a, b)), IPv6Address(max(a, b))]


@given(value=st.integers(min_value=0, max_value=MAX_IPV6 - 1))
@settings(max_examples=100, deadline=None)
def test_address_plus_offset_is_an_address(value):
    successor = IPv6Address(value) + 1
    assert type(successor) is IPv6Address
    assert successor.value == value + 1


def test_address_arithmetic_and_construction_stay_in_range():
    with pytest.raises(AddressError):
        IPv6Address(MAX_IPV6) + 1
    with pytest.raises(AddressError):
        IPv6Address(0) + (-1)
    for bad in (-1, MAX_IPV6 + 1, 1.0, "1", None):
        with pytest.raises(AddressError):
            IPv6Address(bad)


@given(address=addresses)
@settings(max_examples=200, deadline=None)
def test_address_text_forms_round_trip(address):
    text = str(address)
    assert IPv6Address.parse(text) == address
    assert repr(address) == f"IPv6Address('{text}')"
    assert f"{address}" == text


def test_address_text_forms_are_the_compressed_notation():
    address = IPv6Address.parse("fd00:100:0:0:0:0:0:1")
    assert str(address) == "fd00:100::1"
    assert repr(address) == "IPv6Address('fd00:100::1')"
    assert str(IPv6Address(0)) == "::"


# ----------------------------------------------------------------------
# FlowKey
# ----------------------------------------------------------------------
@given(first=flow_keys, second=flow_keys)
@settings(max_examples=200, deadline=None)
def test_flow_keys_are_equal_iff_fields_are_and_then_hash_alike(first, second):
    same = (
        first.src_address == second.src_address
        and first.src_port == second.src_port
        and first.dst_address == second.dst_address
        and first.dst_port == second.dst_port
    )
    assert (first == second) == same
    rebuilt = FlowKey(
        IPv6Address(first.src_address.value),
        first.src_port,
        IPv6Address(first.dst_address.value),
        first.dst_port,
    )
    assert rebuilt == first
    assert hash(rebuilt) == hash(first)


@given(key=flow_keys)
@settings(max_examples=200, deadline=None)
def test_flow_key_is_a_stable_dict_and_set_key(key):
    rebuilt = FlowKey(key.src_address, key.src_port, key.dst_address, key.dst_port)
    assert {key: "server"}[rebuilt] == "server"
    assert rebuilt in {key}


@given(key=flow_keys)
@settings(max_examples=50, deadline=None)
def test_flow_key_rejects_attribute_assignment(key):
    for name in ("src_address", "src_port", "dst_address", "dst_port", "note"):
        with pytest.raises(AttributeError):
            setattr(key, name, 1)
    assert not hasattr(key, "__dict__")


@given(key=flow_keys)
@settings(max_examples=100, deadline=None)
def test_flow_key_pickle_round_trips_preserve_type_and_equality(key):
    for clone in _round_trips(key):
        assert type(clone) is FlowKey
        assert clone == key
        assert hash(clone) == hash(key)
        assert type(clone.src_address) is IPv6Address
        assert type(clone.dst_address) is IPv6Address


@given(key=flow_keys)
@settings(max_examples=100, deadline=None)
def test_flow_key_text_forms(key):
    assert str(key) == (
        f"{key.src_address}:{key.src_port} -> {key.dst_address}:{key.dst_port}"
    )
    assert repr(key) == (
        f"FlowKey(src_address={key.src_address!r}, src_port={key.src_port!r}, "
        f"dst_address={key.dst_address!r}, dst_port={key.dst_port!r})"
    )
