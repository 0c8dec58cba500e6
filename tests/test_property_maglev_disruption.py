"""Property tests for Maglev table disruption (autoscaler churn guarantees).

The elastic control plane adds and removes backends continuously, and
its churn guarantees rest on the table disruption (the fraction of slots
whose owner differs between two tables) behaving like a metric over
backend sets: symmetric, zero for identical
sets, and bounded by the fraction of the table the changed backends
actually own (plus Maglev's small reshuffle slack among survivors —
Maglev is near-minimal, not minimal; at table size 2003 the measured
reshuffle stays under ~3%, and the paper's production size of 65537
shrinks it further).

The lower bound is exact: every slot owned by a removed backend *must*
change owner, so the disruption can never undercut the removed share.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consistent_hash import MaglevTable
from repro.net.addressing import IPv6Address

#: A prime comfortably above the backend counts exercised here; large
#: enough that the survivor reshuffle stays small, small enough that
#: table population keeps the test fast.
TABLE_SIZE = 2003

#: Empirical ceiling on Maglev's survivor reshuffle at TABLE_SIZE (the
#: slack the change-fraction bound allows on top of the minimal churn).
RESHUFFLE_SLACK = 0.06

_backend_universe = [f"backend-{index}" for index in range(12)]

backend_sets = st.sets(
    st.sampled_from(_backend_universe), min_size=2, max_size=10
)


def _table(backends):
    return MaglevTable(sorted(backends), table_size=TABLE_SIZE)


def _slot_owners(table):
    """The backend owning each slot of ``table``, in slot order."""
    return [table._backends[index] for index in table._table]


def _slot_shares(table):
    """Fraction of the slots each backend owns."""
    owners = _slot_owners(table)
    return {backend: owners.count(backend) / len(owners) for backend in set(owners)}


def _disruption(first, second):
    """Fraction of slots mapping to a different backend in ``second``."""
    assert len(first._table) == len(second._table)
    pairs = zip(_slot_owners(first), _slot_owners(second))
    return sum(str(mine) != str(theirs) for mine, theirs in pairs) / len(first._table)


def _owned_share(table, backends):
    """Fraction of slots owned by ``backends`` in ``table``."""
    return sum(
        share for backend, share in _slot_shares(table).items() if backend in backends
    )


def _servers(count):
    return [IPv6Address.parse(f"fd00:100::{index + 1:x}") for index in range(count)]


def test_every_slot_is_assigned():
    shares = _slot_shares(MaglevTable(_servers(5), table_size=127))
    assert sum(shares.values()) == pytest.approx(1.0)
    assert len(shares) == 5


def test_shares_are_roughly_uniform():
    for share in _slot_shares(MaglevTable(_servers(8), table_size=1021)).values():
        assert share == pytest.approx(1 / 8, rel=0.25)


def test_minimal_disruption_on_backend_removal():
    servers = _servers(10)
    before = MaglevTable(servers, table_size=2039)
    after = MaglevTable(servers[:-1], table_size=2039)
    # Roughly 10 % of the slots move, far from a full reshuffle.
    assert _disruption(before, after) < 0.30


@given(backends=backend_sets, other=backend_sets)
@settings(max_examples=60, deadline=None)
def test_disruption_is_symmetric(backends, other):
    first, second = _table(backends), _table(other)
    assert _disruption(first, second) == _disruption(second, first)


@given(backends=backend_sets)
@settings(max_examples=30, deadline=None)
def test_identical_backend_sets_have_zero_disruption(backends):
    assert _disruption(_table(backends), _table(backends)) == 0.0


@given(backends=backend_sets, other=backend_sets)
@settings(max_examples=60, deadline=None)
def test_disruption_is_bounded_by_the_backend_change_fraction(backends, other):
    """d ≤ (slots the changed backends own on either side) + slack.

    The symmetric difference of the backend sets is exactly what the
    autoscaler changed; slots owned by unchanged backends may only move
    because of Maglev's survivor reshuffle, which the slack covers.
    """
    first, second = _table(backends), _table(other)
    changed = backends ^ other
    disruption = _disruption(first, second)
    bound = _owned_share(first, changed) + _owned_share(second, changed)
    assert disruption <= min(1.0, bound + RESHUFFLE_SLACK)


@given(backends=backend_sets, data=st.data())
@settings(max_examples=60, deadline=None)
def test_removal_disruption_brackets_the_removed_share(backends, data):
    """Removing k backends disrupts at least their share, at most a bit more.

    This is the autoscaler's scale-down case: the lower bound is exact
    (a removed backend's slots must all change), the upper bound is the
    removed share plus the reshuffle slack.
    """
    removable = sorted(backends)
    removed = data.draw(
        st.sets(
            st.sampled_from(removable),
            min_size=1,
            max_size=len(removable) - 1,
        )
    )
    before = _table(backends)
    after = _table(backends - removed)
    disruption = _disruption(before, after)
    removed_share = _owned_share(before, removed)
    # 1e-9: the shares are exact integer counts over TABLE_SIZE, but
    # summing their float form can land one ulp past the disruption.
    assert disruption >= removed_share - 1e-9
    assert disruption <= min(1.0, removed_share + RESHUFFLE_SLACK) + 1e-9
