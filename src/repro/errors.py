"""Exception hierarchy for the SRLB reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
applications embedding the library can catch a single base class.  The
sub-classes mirror the subsystems: simulation engine, network substrate,
server substrate, load-balancer core, workload generation, and the
experiment harness.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Raised for invalid use of the discrete-event simulation engine."""


class SchedulingError(SimulationError):
    """Raised when an event is scheduled in the past or on a stopped engine."""


class NetworkError(ReproError):
    """Base class for errors in the IPv6 / Segment Routing substrate."""


class AddressError(NetworkError):
    """Raised for malformed IPv6 addresses or prefixes."""


class SegmentRoutingError(NetworkError):
    """Raised for invalid Segment Routing header manipulation."""


class RoutingError(NetworkError):
    """Raised when a packet cannot be forwarded (no route, TTL expired...)."""


class TCPError(NetworkError):
    """Raised for invalid TCP state transitions in the simplified TCP model."""


class ServerError(ReproError):
    """Base class for errors in the application-server substrate."""


class WorkerPoolError(ServerError):
    """Raised for invalid worker-pool operations (double release, etc.)."""


class BacklogOverflowError(ServerError):
    """Raised when a connection is pushed onto a full accept backlog."""


class LoadBalancerError(ReproError):
    """Base class for errors in the SRLB core."""


class PolicyError(LoadBalancerError):
    """Raised for invalid connection-acceptance policy configuration."""


class SelectionError(LoadBalancerError):
    """Raised when a candidate-selection scheme cannot produce candidates."""


class FlowTableError(LoadBalancerError):
    """Raised for invalid flow-table operations."""


class MetricsValidationError(ReproError, ValueError):
    """Raised for degenerate metric-filter parameters.

    Also derives from :class:`ValueError` so callers treating a bad
    EWMA interval/time-constant as an ordinary value error catch it
    without importing the library's hierarchy — while the
    every-error-is-a-ReproError contract above still holds.
    """


class TelemetryError(ReproError):
    """Raised for invalid telemetry bus, recorder or detector usage."""


class WorkloadError(ReproError):
    """Raised for invalid workload or trace configuration."""


class ExperimentError(ReproError):
    """Raised when an experiment is misconfigured or fails to converge."""
