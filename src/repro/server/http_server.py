"""Apache-like HTTP application instance.

This is the application-server substrate of the reproduction: a model of
one Apache httpd instance running the paper's CPU-bound workloads inside
a 2-core VM, configured like the testbed (``mpm_prefork`` with 32
workers, TCP backlog of 128, ``tcp_abort_on_overflow`` enabled).

Responsibilities:

* admit incoming connections through the listen backlog (RST when full),
* assign accepted connections to worker processes in FIFO order,
* charge each request's CPU demand to the shared CPU model (processor
  sharing over the VM's cores),
* reply once the request has received its full CPU demand,
* expose the scoreboard so the application agent (and through it the
  Service Hunting acceptance policy) can read the busy-thread count.

The instance never touches packets: the server's virtual router
(:class:`repro.server.virtual_router.ServerNode`) translates between
packets and the calls below through the :class:`ServerTransport`
protocol, mirroring the separation between Apache and VPP on the
testbed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import nan
from typing import Callable, Dict, Optional, Protocol

from repro.errors import ServerError
from repro.net.packet import FlowKey
from repro.server.backlog import ListenBacklog
from repro.server.cpu import CPUModel
from repro.server.scoreboard import Scoreboard
from repro.server.worker_pool import WorkerPool
from repro.sim.engine import Simulator, TimerLane

#: Looks up the CPU demand (seconds) of a request by its request id; an
#: unknown id raises :class:`LookupError` or returns NaN.
DemandLookup = Callable[[int], float]

_connection_ids = itertools.count(1)


class ServerTransport(Protocol):
    """What the application instance needs from its virtual router."""

    def send_syn_ack(self, connection: "ServerConnection") -> None:
        """Send the connection-acceptance packet (SYN-ACK) to the client."""

    def send_reset(self, connection: "ServerConnection") -> None:
        """Send a TCP RST to the client (backlog overflow)."""

    def send_response(self, connection: "ServerConnection", payload_size: int) -> None:
        """Send the HTTP response to the client."""


@dataclass(slots=True)
class ServerConnection:
    """Server-side state of one client connection (slotted: one per
    admitted connection, allocated on the packet hot path)."""

    connection_id: int
    flow_key: FlowKey
    request_id: Optional[int]
    arrived_at: float
    worker_slot: Optional[int] = None
    request_received: bool = False
    service_started_at: Optional[float] = None
    demand: Optional[float] = None


@dataclass
class ServerAppStats:
    """Aggregate counters for one application instance."""

    connections_received: int = 0
    connections_reset: int = 0
    #: Connections fast-RST'd by load shedding: the backlog depth was at
    #: or above ``shed_watermark`` when the SYN arrived.  Counted
    #: separately from ``connections_reset`` (backlog overflow) because
    #: shedding is a *policy* drop taken while capacity still remains.
    connections_shed: int = 0
    #: Accepted connections reset because the request payload never
    #: arrived within ``request_timeout`` (client gone mid-upload).
    connections_timed_out: int = 0
    requests_served: int = 0
    total_service_demand: float = 0.0
    total_sojourn_time: float = 0.0

    def snapshot(self) -> Dict[str, float]:
        """Flat numeric counters (the uniform telemetry-sampler API)."""
        return {
            "connections_received": self.connections_received,
            "connections_reset": self.connections_reset,
            "connections_shed": self.connections_shed,
            "connections_timed_out": self.connections_timed_out,
            "requests_served": self.requests_served,
            "total_service_demand": self.total_service_demand,
            "total_sojourn_time": self.total_sojourn_time,
        }


class HTTPServerInstance:
    """One simulated Apache httpd instance.

    Parameters
    ----------
    simulator:
        The shared simulation engine.
    name:
        Instance name, used in diagnostics.
    cpu:
        CPU model the VM's cores (shared by every worker of this instance).
    num_workers:
        Size of the ``mpm_prefork`` worker pool (paper: 32).
    backlog_capacity:
        TCP listen backlog (paper: 128).
    demand_lookup:
        Callable mapping a request id to its CPU demand in seconds; this
        is how the workload's per-request cost reaches the server.
    response_payload_size:
        Size in bytes of the response payload (only used for byte
        accounting; links are unconstrained by default).
    request_timeout:
        Apache's ``RequestReadTimeout``: a worker that accepted a
        connection but has not received the request payload after this
        many seconds resets the connection and frees itself.  ``None``
        (the default) disables the timeout; long-lived-flow scenarios
        need it so that clients that abandoned a broken flow do not pin
        workers forever.
    shed_watermark:
        Load-shedding high-water mark on the listen backlog: a SYN
        arriving while ``backlog.depth >= shed_watermark`` is fast-RST'd
        *before* admission and counted as ``connections_shed``.  A
        client with retries gets an immediate, cheap signal to go try
        another instance instead of queueing behind a saturated one.
        ``None`` (the default) disables shedding.
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        cpu: CPUModel,
        num_workers: int = 32,
        backlog_capacity: int = 128,
        demand_lookup: Optional[DemandLookup] = None,
        response_payload_size: int = 8_000,
        request_timeout: Optional[float] = None,
        shed_watermark: Optional[int] = None,
    ) -> None:
        if num_workers <= 0:
            raise ServerError(f"num_workers must be positive, got {num_workers!r}")
        if request_timeout is not None and request_timeout <= 0:
            raise ServerError(
                f"request_timeout must be positive, got {request_timeout!r}"
            )
        if shed_watermark is not None and shed_watermark <= 0:
            raise ServerError(
                f"shed_watermark must be positive, got {shed_watermark!r}"
            )
        self.simulator = simulator
        #: Read as ``_clock._now`` on the per-query paths (the ``now``
        #: properties cost a call each).
        self._clock = simulator.clock
        self.name = name
        self.cpu = cpu
        self.scoreboard = Scoreboard(simulator.clock, num_workers)
        self.workers = WorkerPool(self.scoreboard)
        self.backlog = ListenBacklog(backlog_capacity)
        self.demand_lookup = demand_lookup
        self.response_payload_size = response_payload_size
        self.request_timeout = request_timeout
        self.shed_watermark = shed_watermark
        self.transport: Optional[ServerTransport] = None
        self.stats = ServerAppStats()
        self._connections: Dict[int, ServerConnection] = {}
        self._by_flow: Dict[FlowKey, int] = {}
        #: The request timeouts' timer lane, made on first use (and
        #: again if :attr:`request_timeout` changes); a timer's argument
        #: is the connection id.
        self._timeout_lane: Optional[TimerLane] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind_transport(self, transport: ServerTransport) -> None:
        """Attach the virtual router that sends packets on our behalf."""
        self.transport = transport

    def _require_transport(self) -> ServerTransport:
        if self.transport is None:
            raise ServerError(
                f"server {self.name!r} has no transport bound; "
                "attach it to a ServerNode first"
            )
        return self.transport

    # ------------------------------------------------------------------
    # connection lifecycle (called by the virtual router)
    # ------------------------------------------------------------------
    def handle_connection_request(
        self, flow_key: FlowKey, request_id: Optional[int]
    ) -> ServerConnection:
        """Process a delivered SYN: admit to the backlog or reset.

        Returns the (possibly reset) connection record so the caller and
        the tests can observe the outcome.
        """
        transport = self.transport or self._require_transport()
        stats = self.stats
        stats.connections_received += 1
        connection_id = next(_connection_ids)
        connection = ServerConnection(
            connection_id, flow_key, request_id, self._clock._now
        )
        shed = self.shed_watermark
        if shed is not None and self.backlog.depth >= shed:
            # Load shedding: refuse while capacity remains so the reset
            # reaches the client before the backlog actually overflows.
            stats.connections_shed += 1
            transport.send_reset(connection)
            return connection
        if not self.backlog.try_admit(connection_id):
            stats.connections_reset += 1
            transport.send_reset(connection)
            return connection

        self._connections[connection_id] = connection
        self._by_flow[flow_key] = connection_id
        transport.send_syn_ack(connection)
        self._accept_ready_connections()
        return connection

    def handle_request_data(self, flow_key: FlowKey, request_id: Optional[int]) -> bool:
        """Process the HTTP request payload for an established connection.

        Returns ``False`` when no matching connection exists (e.g. the
        connection was reset); the packet is then ignored, as a real
        kernel would answer it with a RST that the client already
        received.
        """
        connection_id = self._by_flow.get(flow_key)
        if connection_id is None:
            return False
        connection = self._connections[connection_id]
        connection.request_received = True
        if request_id is not None:
            connection.request_id = request_id
        if connection.worker_slot is not None:
            self._start_service(connection)
        return True

    # ------------------------------------------------------------------
    # worker scheduling
    # ------------------------------------------------------------------
    def _accept_ready_connections(self) -> None:
        """Have idle workers accept connections from the backlog (FIFO)."""
        workers = self.workers
        backlog = self.backlog
        # Read directly: ``depth`` and a free-worker check cost a call each.
        waiting = backlog._queue
        idle = workers._free_slots
        while waiting and idle:
            connection_id = backlog.pop_next()
            connection = self._connections[connection_id]
            connection.worker_slot = workers.acquire()
            if connection.request_received:
                self._start_service(connection)
            elif self.request_timeout is not None:
                lane = self._timeout_lane
                if lane is None or lane.delay != self.request_timeout:
                    lane = self._timeout_lane = TimerLane(
                        self.simulator,
                        self.request_timeout,
                        self._check_request_timeout,
                        f"{self.name}-req-timeout",
                    )
                lane.arm(connection_id)

    def _check_request_timeout(self, connection_id: int) -> None:
        """Reset a worker-held connection whose request never arrived."""
        connection = self._connections.get(connection_id)
        if connection is None or connection.request_received:
            return
        del self._connections[connection_id]
        self._by_flow.pop(connection.flow_key, None)
        self.stats.connections_timed_out += 1
        self._require_transport().send_reset(connection)
        if connection.worker_slot is not None:
            self.workers.release(connection.worker_slot)
        self._accept_ready_connections()

    def _start_service(self, connection: ServerConnection) -> None:
        if connection.service_started_at is not None:
            return
        connection.service_started_at = self._clock._now
        request_id = connection.request_id
        if self.demand_lookup is None or request_id is None:
            raise ServerError(
                f"server {self.name!r} received a request without a demand source "
                f"(request_id={request_id!r})"
            )
        try:
            demand = self.demand_lookup(request_id)
        except LookupError:
            demand = nan
        if not demand > 0:  # NaN: no replayed trace has this id
            raise ServerError(
                f"request {request_id!r} has no positive CPU demand ({demand!r})"
            )
        connection.demand = demand
        self.cpu.add_job(connection.connection_id, demand, self._on_service_complete)

    def _on_service_complete(self, connection_id: int) -> None:
        connection = self._connections.pop(connection_id, None)
        if connection is None:
            raise ServerError(
                f"CPU completed unknown connection {connection_id!r} on {self.name!r}"
            )
        self._by_flow.pop(connection.flow_key, None)
        stats = self.stats
        stats.requests_served += 1
        stats.total_service_demand += connection.demand or 0.0
        stats.total_sojourn_time += self._clock._now - connection.arrived_at
        transport = self.transport or self._require_transport()
        transport.send_response(connection, self.response_payload_size)
        if connection.worker_slot is not None:
            self.workers.release(connection.worker_slot)
        self._accept_ready_connections()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def busy_threads(self) -> int:
        """Busy worker count (what the acceptance policies look at)."""
        return self.workers.busy_workers

    @property
    def open_connections(self) -> int:
        """Connections currently tracked (in backlog or being served)."""
        return len(self._connections)

    def connection_for_flow(self, flow_key: FlowKey) -> Optional[ServerConnection]:
        """The live connection for a flow, if any."""
        connection_id = self._by_flow.get(flow_key)
        if connection_id is None:
            return None
        return self._connections.get(connection_id)

    def __repr__(self) -> str:
        return (
            f"HTTPServerInstance(name={self.name!r}, busy={self.busy_threads}, "
            f"backlog={self.backlog.depth}, served={self.stats.requests_served})"
        )
