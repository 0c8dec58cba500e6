"""Unit tests for the named random streams."""

import pytest

from repro.errors import SimulationError
from repro.sim.random_streams import RandomStreams, _stable_name_key


class TestRandomStreams:
    def test_same_seed_same_values(self):
        a = RandomStreams(seed=1).stream("arrivals")
        b = RandomStreams(seed=1).stream("arrivals")
        assert a.random(10).tolist() == b.random(10).tolist()

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).stream("arrivals")
        b = RandomStreams(seed=2).stream("arrivals")
        assert a.random(10).tolist() != b.random(10).tolist()

    def test_different_names_differ(self):
        streams = RandomStreams(seed=1)
        a = streams.stream("arrivals")
        b = streams.stream("service")
        assert a.random(10).tolist() != b.random(10).tolist()

    def test_stream_is_cached(self):
        streams = RandomStreams(seed=1)
        assert streams.stream("x") is streams.stream("x")

    def test_stream_independent_of_creation_order(self):
        first = RandomStreams(seed=3)
        second = RandomStreams(seed=3)
        # Create unrelated streams first in one factory only.
        first.stream("other-1")
        first.stream("other-2")
        a = first.stream("target")
        b = second.stream("target")
        assert a.random(5).tolist() == b.random(5).tolist()

    def test_empty_name_rejected(self):
        with pytest.raises(SimulationError):
            RandomStreams(seed=1).stream("")

    def test_negative_seed_rejected(self):
        with pytest.raises(SimulationError):
            RandomStreams(seed=-1)

    def test_names_lists_created_streams(self):
        streams = RandomStreams(seed=0)
        streams.stream("a")
        streams.stream("b")
        assert set(streams.names()) == {"a", "b"}

    def test_seed_property(self):
        assert RandomStreams(seed=9).seed == 9


class TestStreamOwnership:
    """A stream is handed out as a generator or as a block source, never both."""

    def test_draws_is_shared_per_name(self):
        streams = RandomStreams(seed=1)
        assert streams.draws("selection") is streams.draws("selection")
        assert streams.draws("selection") is not streams.draws("other")

    def test_generator_first_then_block_source_raises(self):
        streams = RandomStreams(seed=1)
        streams.stream("selection")
        with pytest.raises(SimulationError, match="handed out as a generator"):
            streams.draws("selection")

    def test_block_source_first_then_generator_raises(self):
        streams = RandomStreams(seed=1)
        streams.draws("selection")
        with pytest.raises(SimulationError, match="block draw source"):
            streams.stream("selection")

    def test_block_source_draws_the_streams_own_sequence(self):
        draws = RandomStreams(seed=3).draws("selection")
        generator = RandomStreams(seed=3).stream("selection")
        for _ in range(50):
            assert draws.choice(12, 2) == generator.choice(12, 2, replace=False).tolist()

    def test_empty_name_rejected_for_block_sources_too(self):
        with pytest.raises(SimulationError):
            RandomStreams(seed=1).draws("")


class TestStableNameKey:
    def test_deterministic(self):
        assert _stable_name_key("arrivals") == _stable_name_key("arrivals")

    def test_distinct_names_get_distinct_keys(self):
        keys = {_stable_name_key(name) for name in ("a", "b", "c", "arrivals", "service")}
        assert len(keys) == 5

    def test_key_fits_in_63_bits(self):
        assert 0 <= _stable_name_key("anything") < 2 ** 63
