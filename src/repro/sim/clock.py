"""Simulation clock.

The clock is a tiny object shared between the engine and every simulated
component.  Keeping it separate from the engine lets components hold a
reference to "the current time" without also being able to schedule or
cancel events, which keeps responsibilities narrow and tests simple.

Time is a ``float`` number of **seconds** since the start of the
simulation.  All of the repro library uses seconds; workloads that are
naturally expressed in milliseconds convert at the boundary.
"""

from __future__ import annotations

from repro.errors import SimulationError


class SimulationClock:
    """Monotonically non-decreasing simulated time source.

    Only the simulation engine is expected to call :meth:`advance`;
    everything else treats the clock as read-only through :attr:`now`.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise SimulationError(f"clock cannot start at negative time {start!r}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    def advance(self, new_time: float) -> None:
        """Move the clock forward to ``new_time``.

        Raises :class:`~repro.errors.SimulationError` if this would move
        time backwards, which would indicate a corrupted event queue.
        """
        if new_time < self._now:
            raise SimulationError(
                f"clock cannot move backwards: {self._now!r} -> {new_time!r}"
            )
        self._now = float(new_time)

    def __repr__(self) -> str:
        return f"SimulationClock(now={self._now!r})"
