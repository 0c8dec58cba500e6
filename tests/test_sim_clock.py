"""Unit tests for the simulation clock."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimulationClock


class TestSimulationClock:
    def test_starts_at_zero_by_default(self):
        assert SimulationClock().now == 0.0

    def test_starts_at_given_time(self):
        assert SimulationClock(5.5).now == 5.5

    def test_rejects_negative_start(self):
        with pytest.raises(SimulationError):
            SimulationClock(-1.0)

    def test_advance_moves_forward(self):
        clock = SimulationClock()
        clock.advance(3.0)
        assert clock.now == 3.0

    def test_advance_to_same_time_is_allowed(self):
        clock = SimulationClock(2.0)
        clock.advance(2.0)
        assert clock.now == 2.0

    def test_advance_backwards_raises(self):
        clock = SimulationClock(10.0)
        with pytest.raises(SimulationError):
            clock.advance(9.999)

    def test_repr_mentions_time(self):
        assert "3.5" in repr(SimulationClock(3.5))
