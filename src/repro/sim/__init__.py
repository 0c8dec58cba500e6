"""Discrete-event simulation substrate.

This package provides the event-driven execution core used by every other
subsystem of the SRLB reproduction: a simulation clock, an event-heap
engine with cancellable events and periodic tasks, and named reproducible
random streams.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "clock": ("SimulationClock",),
        "engine": ("EventHandle", "PeriodicTask", "Simulator"),
        "random_streams": ("RandomStreams",),
    },
)
