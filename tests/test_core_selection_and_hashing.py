"""Unit tests for candidate selection schemes and Maglev consistent hashing."""

import numpy as np
import pytest

from repro.core.candidate_selection import (
    ConsistentHashCandidateSelector,
    RandomCandidateSelector,
    RoundRobinCandidateSelector,
    SingleRandomSelector,
    make_selector,
)
from repro.core.consistent_hash import MaglevTable, flow_hash_key
from repro.errors import SelectionError
from repro.net.addressing import IPv6Address
from repro.net.packet import FlowKey


def _servers(count):
    return [IPv6Address.parse(f"fd00:100::{index + 1:x}") for index in range(count)]


def _flow(port):
    return FlowKey(
        IPv6Address.parse("fd00:200::1"), port, IPv6Address.parse("fd00:300::1"), 80
    )


@pytest.fixture
def selection_rng():
    return np.random.default_rng(99)


class TestRandomCandidateSelector:
    def test_returns_requested_number_of_distinct_candidates(self, selection_rng):
        selector = RandomCandidateSelector(selection_rng, num_candidates=2)
        servers = _servers(12)
        for port in range(100):
            candidates = selector.select(_flow(port), servers)
            assert len(candidates) == 2
            assert len(set(candidates)) == 2
            assert all(candidate in servers for candidate in candidates)

    def test_covers_the_whole_pool(self, selection_rng):
        selector = RandomCandidateSelector(selection_rng, num_candidates=2)
        servers = _servers(12)
        seen = set()
        for port in range(2_000):
            seen.update(selector.select(_flow(port), servers))
        assert seen == set(servers)

    def test_first_choice_roughly_uniform(self, selection_rng):
        selector = RandomCandidateSelector(selection_rng, num_candidates=2)
        servers = _servers(4)
        counts = {server: 0 for server in servers}
        trials = 8_000
        for port in range(trials):
            counts[selector.select(_flow(port), servers)[0]] += 1
        for count in counts.values():
            assert count == pytest.approx(trials / 4, rel=0.15)

    def test_pool_smaller_than_candidates_rejected(self, selection_rng):
        selector = RandomCandidateSelector(selection_rng, num_candidates=3)
        with pytest.raises(SelectionError):
            selector.select(_flow(1), _servers(2))

    def test_empty_pool_rejected(self, selection_rng):
        selector = RandomCandidateSelector(selection_rng, num_candidates=1)
        with pytest.raises(SelectionError):
            selector.select(_flow(1), [])

    def test_invalid_candidate_count_rejected(self, selection_rng):
        with pytest.raises(SelectionError):
            RandomCandidateSelector(selection_rng, num_candidates=0)


class TestSingleRandomSelector:
    def test_one_candidate_named_rr(self, selection_rng):
        selector = SingleRandomSelector(selection_rng)
        assert selector.num_candidates == 1
        assert selector.name == "RR"
        assert len(selector.select(_flow(1), _servers(12))) == 1


class TestRoundRobinSelector:
    def test_rotates_through_pool(self):
        selector = RoundRobinCandidateSelector(num_candidates=2)
        servers = _servers(4)
        first = selector.select(_flow(1), servers)
        second = selector.select(_flow(2), servers)
        assert first == [servers[0], servers[1]]
        assert second == [servers[1], servers[2]]

    def test_wraps_around(self):
        selector = RoundRobinCandidateSelector(num_candidates=2)
        servers = _servers(3)
        for _ in range(2):
            selector.select(_flow(1), servers)
        third = selector.select(_flow(1), servers)
        assert third == [servers[2], servers[0]]


class TestConsistentHashSelector:
    def test_same_flow_gets_same_candidates(self):
        selector = ConsistentHashCandidateSelector(num_candidates=2, table_size=251)
        servers = _servers(12)
        flow = _flow(1234)
        assert selector.select(flow, servers) == selector.select(flow, servers)

    def test_different_flows_spread_over_servers(self):
        selector = ConsistentHashCandidateSelector(num_candidates=2, table_size=251)
        servers = _servers(12)
        first_choices = {selector.select(_flow(port), servers)[0] for port in range(500)}
        assert len(first_choices) >= 10

    def test_candidates_are_distinct(self):
        selector = ConsistentHashCandidateSelector(num_candidates=3, table_size=251)
        servers = _servers(12)
        for port in range(50):
            candidates = selector.select(_flow(port), servers)
            assert len(set(candidates)) == 3


class TestSelectorFactory:
    def test_factory_names(self, selection_rng):
        assert isinstance(make_selector("random", selection_rng), RandomCandidateSelector)
        assert isinstance(make_selector("single-random", selection_rng), SingleRandomSelector)
        assert isinstance(
            make_selector("round-robin", selection_rng), RoundRobinCandidateSelector
        )
        assert isinstance(
            make_selector("consistent-hash", selection_rng),
            ConsistentHashCandidateSelector,
        )

    def test_unknown_selector_rejected(self, selection_rng):
        with pytest.raises(SelectionError):
            make_selector("astrology", selection_rng)


class TestMaglevTable:
    def test_lookup_chain_is_deterministic(self):
        table = MaglevTable(_servers(8), table_size=1021)
        assert table.lookup_chain("flow-1", 3) == table.lookup_chain("flow-1", 3)

    def test_lookup_chain_distinct(self):
        table = MaglevTable(_servers(8), table_size=1021)
        chain = table.lookup_chain("flow-1", 3)
        assert len(set(chain)) == 3

    def test_chain_longer_than_backends_rejected(self):
        table = MaglevTable(_servers(3), table_size=127)
        with pytest.raises(SelectionError):
            table.lookup_chain("flow-1", 4)

    def test_duplicate_backends_rejected(self):
        server = _servers(1)[0]
        with pytest.raises(SelectionError):
            MaglevTable([server, server], table_size=127)

    def test_empty_backends_rejected(self):
        with pytest.raises(SelectionError):
            MaglevTable([], table_size=127)

    def test_flow_hash_key_is_stable_and_distinct(self):
        assert flow_hash_key(_flow(1)) == flow_hash_key(_flow(1))
        assert flow_hash_key(_flow(1)) != flow_hash_key(_flow(2))
