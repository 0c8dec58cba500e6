"""Traffic generator (the client side of the testbed).

The paper's traffic generator injects an open-loop stream of HTTP
queries (Poisson or trace replay) into the load balancer and records
per-query response times at the client.  :class:`TrafficGeneratorNode`
does the same:

* every request of the trace opens a fresh TCP connection to the VIP at
  its scheduled arrival time (open-loop: arrivals never wait for earlier
  responses, exactly like the paper's generator);
* the HTTP request is sent as soon as the SYN-ACK arrives;
* the response (or a RST, under overload) closes the query and produces
  a :class:`RequestOutcome` that is handed to the attached collector.

Response time is measured from connection initiation (SYN sent) to
response received, i.e. it includes connection setup, queueing in the
server backlog and service time — the same "page load time" the paper
reports.

A trace whose rows carry user ids (the heavy-tail sessions) also gets
keep-alive flow affinity: each user's queries leave from the user's
stable source port (:func:`stable_user_port`), so a returning user's
5-tuple — and therefore their ECMP bucket and, via the LB flow table,
their server — repeats across sessions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Set

from repro.errors import WorkloadError
from repro.net.addressing import IPv6Address
from repro.net.packet import (
    DEFAULT_HOP_LIMIT,
    PSH_ACK,
    PSH_BIT,
    RST_BIT,
    SYN,
    SYN_ACK_BITS,
    Packet,
    TCPFlag,
    TCPSegment,
)
from repro.net.router import NetworkNode
from repro.net.tcp import EPHEMERAL_PORT_BASE, EPHEMERAL_PORT_RANGE, HTTP_PORT, EphemeralPortAllocator
from repro.sim.engine import EventHandle, Simulator
from repro.workload.trace import NO_USER, Trace

#: Size in bytes of the HTTP request payload (a GET with headers).
REQUEST_PAYLOAD_SIZE = 400


def stable_user_port(user_id: int) -> int:
    """Deterministic ephemeral source port for a simulated user.

    A returning user reuses the same (address, port) pair, so their
    5-tuple — and therefore their ECMP bucket and flow-table entry —
    repeats across sessions, which is what keep-alive affinity means at
    the network layer.
    """
    # Only a trace with users gets here: hashlib stays out of start-up.
    import hashlib

    digest = hashlib.sha256(f"user-port:{user_id}".encode("utf-8")).digest()
    return EPHEMERAL_PORT_BASE + int.from_bytes(digest[:8], "big") % EPHEMERAL_PORT_RANGE


@dataclass(slots=True)
class RequestOutcome:
    """Client-side record of one query's fate.

    Slotted: one is allocated per query of a replay.  The collector
    copies its fields into its table, so it dies with its pending query.
    """

    request_id: int
    kind: str
    url: str
    sent_at: float
    established_at: Optional[float] = None
    completed_at: Optional[float] = None
    failed: bool = False
    failure_reason: Optional[str] = None
    #: Full-connection retries performed (fresh source port each time).
    retries: int = 0
    #: True when the client exhausted its retry/retransmit budget (or the
    #: run ended) and abandoned the query rather than receiving an answer.
    gave_up: bool = False

    @property
    def response_time(self) -> Optional[float]:
        """Page load time (seconds), or ``None`` if the query failed."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.sent_at

    @property
    def succeeded(self) -> bool:
        """Whether a response was received."""
        return self.completed_at is not None and not self.failed


class OutcomeSink(Protocol):
    """Anything that accepts completed request outcomes (the collector)."""

    def record(self, outcome: RequestOutcome) -> None:
        """Store one finished (or failed) query."""


@dataclass(slots=True)
class _PendingQuery:
    """In-flight client state for one query."""

    outcome: RequestOutcome
    src_port: int
    #: The trace row's user, or :data:`~repro.workload.trace.NO_USER`;
    #: a retry allocates its fresh source port by it.
    user_id: int
    #: Connection attempt number (0 = the original, bumped per retry).
    #: Stale timers and packets from earlier attempts check it and bail.
    attempt: int = 0
    #: SYN retransmissions performed within the current attempt.
    syn_retransmits: int = 0
    #: Current SYN retransmission timeout (doubles per retransmit).
    rto: float = 0.0
    syn_timer: Optional[EventHandle] = None
    retry_timer: Optional[EventHandle] = None


class TrafficGeneratorNode(NetworkNode):
    """Open-loop trace-replay client.

    Parameters
    ----------
    simulator:
        Shared simulation engine.
    name:
        Node name.
    address:
        Client IPv6 address.
    vip:
        The virtual IP the queries are addressed to.
    collector:
        Sink receiving a :class:`RequestOutcome` per finished query.
    request_spread:
        When positive, the client trickles each request upload over this
        many seconds after connection establishment instead of sending it
        at once: ``request_chunks - 1`` bare-ACK segments pace the
        upload, then the request payload closes it.  Every one of those
        packets is steered by the load balancer, so the flow *depends* on
        steering state for the whole window — which is what the
        resilience experiments need to observe load-balancer churn
        breaking (or not breaking) in-flight flows.
    request_chunks:
        Number of segments the spread upload is split into (>= 1).
    syn_retransmit_timeout:
        Initial SYN retransmission timeout in seconds; the RTO doubles
        after each retransmit up to ``syn_retransmit_cap`` (the classic
        exponential backoff).  ``0`` (the default) disables SYN
        retransmission entirely — no timer is ever scheduled, keeping
        the default client bit-identical to the pre-fault-plane one.
    syn_retransmit_cap:
        Upper bound on the doubled RTO, in seconds.
    syn_retransmit_limit:
        Maximum SYN retransmissions per connection attempt; once
        exhausted the query gives up (unless a ``retry_timeout`` is
        armed, in which case the per-attempt deadline decides).
    retry_timeout:
        Per-attempt client deadline in seconds.  When it fires before a
        response arrives the whole connection is retried from scratch on
        a **fresh source port**, so the ECMP edge re-hashes the flow to
        a (likely) different load-balancer path.  ``0`` disables it.
    max_retries:
        Bounded number of full-connection retries before the client
        gives up and records the query as failed with ``gave_up`` set.
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        address: IPv6Address,
        vip: IPv6Address,
        collector: Optional[OutcomeSink] = None,
        request_spread: float = 0.0,
        request_chunks: int = 1,
        syn_retransmit_timeout: float = 0.0,
        syn_retransmit_cap: float = 60.0,
        syn_retransmit_limit: int = 6,
        retry_timeout: float = 0.0,
        max_retries: int = 0,
    ) -> None:
        super().__init__(simulator, name)
        if request_spread < 0:
            raise WorkloadError(
                f"request_spread must be non-negative, got {request_spread!r}"
            )
        if request_chunks <= 0:
            raise WorkloadError(
                f"request_chunks must be positive, got {request_chunks!r}"
            )
        if syn_retransmit_timeout < 0:
            raise WorkloadError(
                "syn_retransmit_timeout must be non-negative, got "
                f"{syn_retransmit_timeout!r}"
            )
        if syn_retransmit_cap <= 0:
            raise WorkloadError(
                f"syn_retransmit_cap must be positive, got {syn_retransmit_cap!r}"
            )
        if syn_retransmit_limit < 0:
            raise WorkloadError(
                "syn_retransmit_limit must be non-negative, got "
                f"{syn_retransmit_limit!r}"
            )
        if retry_timeout < 0:
            raise WorkloadError(
                f"retry_timeout must be non-negative, got {retry_timeout!r}"
            )
        if max_retries < 0:
            raise WorkloadError(
                f"max_retries must be non-negative, got {max_retries!r}"
            )
        self.add_address(address)
        self.vip = vip
        self.collector = collector
        self.request_spread = request_spread
        self.request_chunks = request_chunks
        self.syn_retransmit_timeout = syn_retransmit_timeout
        self.syn_retransmit_cap = syn_retransmit_cap
        self.syn_retransmit_limit = syn_retransmit_limit
        self.retry_timeout = retry_timeout
        self.max_retries = max_retries
        self._ports = EphemeralPortAllocator()
        #: Source ports of the queries in flight; ``None`` until a trace
        #: with user ids is scheduled, when per-user ports turn on.
        self._active_ports: Optional[Set[int]] = None
        self._pending: Dict[int, _PendingQuery] = {}
        self.queries_started = 0
        self.queries_completed = 0
        self.queries_failed = 0
        self.syn_retransmits = 0
        self.queries_retried = 0
        self.queries_gave_up = 0
        self.queries_swept = 0
        #: User queries that got their stable port, and those that found
        #: it held by a query in flight.
        self.affinity_hits = 0
        self.affinity_fallbacks = 0
        #: Optional telemetry flight recorder
        #: (:class:`repro.telemetry.recorder.FlightRecorder`).  Set by
        #: the telemetry probe when attached; the client feeds it
        #: retransmission/retry/give-up events from these cold paths.
        #: ``None`` (the default) costs one predicate per event.
        self.flight_recorder = None

    # ------------------------------------------------------------------
    # trace replay
    # ------------------------------------------------------------------
    def schedule_trace(self, trace: Trace) -> None:
        """Schedule every row of ``trace`` at its arrival time.

        The trace is one series over its row indices: only its next
        arrival is on the heap, and each arrival reads its row's id,
        kind and user straight from the trace's columns.  Arrival events
        share one constant label; the event's argument is the row.  A
        trace with user ids turns on per-user source ports.
        """
        # Memoryviews index to plain ints and floats, without building
        # a numpy scalar per read.
        request_ids = memoryview(trace.request_ids)
        kind_codes = memoryview(trace.kind_codes)
        kinds = trace.kinds
        users = None if trace.user_ids is None else memoryview(trace.user_ids)
        if users is not None and self._active_ports is None:
            self._active_ports = set()
        start_query = self.start_query

        def start_row(row: int) -> None:
            start_query(
                request_ids[row],
                kinds[kind_codes[row]],
                NO_USER if users is None else users[row],
            )

        self.simulator.schedule_series(
            range(len(trace)),
            memoryview(trace.arrival_times).__getitem__,
            start_row,
            "arrival",
            self.simulator.clock._now,
        )

    def _allocate_port(self, user_id: int) -> int:
        """Source port for a new query of ``user_id`` (or :data:`NO_USER`).

        Round-robin over the ephemeral range, until a trace with users
        is scheduled.  From then on a user's query gets the user's
        stable port unless a query in flight holds it (the same user
        browsing concurrently, or a rare hash collision between users),
        and every other port skips the ports in flight: reusing an
        active 5-tuple would alias two connections on the servers.
        """
        active = self._active_ports
        if active is None:
            return self._ports.allocate()
        if user_id != NO_USER:
            port = stable_user_port(user_id)
            if port not in active:
                self.affinity_hits += 1
                active.add(port)
                return port
            self.affinity_fallbacks += 1
        port = self._ports.allocate()
        while port in active:
            port = self._ports.allocate()
        active.add(port)
        return port

    def start_query(self, request_id: int, kind: str, user_id: int = NO_USER) -> None:
        """Open a new connection for request ``request_id`` right now."""
        if request_id in self._pending:
            raise WorkloadError(f"request {request_id} is already in flight")
        src_port = self._allocate_port(user_id)
        # Per-query records and packets are built positionally: a class
        # call with keyword arguments allocates a dict per call.
        outcome = RequestOutcome(request_id, kind, "", self.simulator.clock._now)
        pending = _PendingQuery(outcome, src_port, user_id)
        self._pending[request_id] = pending
        self.queries_started += 1
        self._send_syn(pending)
        if self.syn_retransmit_timeout > 0.0 or self.retry_timeout > 0.0:
            self._arm_timers(pending)

    def _send_syn(self, pending: _PendingQuery) -> None:
        """(Re)send the SYN of ``pending``'s current connection attempt."""
        syn = Packet(
            self._addresses[0],
            self.vip,
            TCPSegment(pending.src_port, HTTP_PORT, SYN, 0, pending.outcome.request_id),
            None, DEFAULT_HOP_LIMIT, None,  # no SRH, default hop limit, fresh id
            self.simulator.clock._now,
        )
        self.send(syn)

    # ------------------------------------------------------------------
    # retransmission and retries
    # ------------------------------------------------------------------
    def _arm_timers(self, pending: _PendingQuery) -> None:
        """Schedule SYN-RTO and per-attempt deadline timers (if enabled)."""
        request_id = pending.outcome.request_id
        attempt = pending.attempt
        if self.syn_retransmit_timeout > 0.0:
            pending.rto = self.syn_retransmit_timeout
            pending.syn_timer = self.simulator.schedule_in(
                pending.rto,
                lambda: self._retransmit_syn(request_id, attempt),
                label="syn-rto",
            )
        if self.retry_timeout > 0.0:
            pending.retry_timer = self.simulator.schedule_in(
                self.retry_timeout,
                lambda: self._attempt_deadline(request_id, attempt),
                label="client-timeout",
            )

    def _retransmit_syn(self, request_id: int, attempt: int) -> None:
        pending = self._pending.get(request_id)
        if (
            pending is None
            or pending.attempt != attempt
            or pending.outcome.established_at is not None
        ):
            return
        if pending.syn_retransmits >= self.syn_retransmit_limit:
            if self.retry_timeout > 0.0:
                # The per-attempt deadline decides what happens next.
                return
            pending.outcome.gave_up = True
            self._finish(
                pending, failed=True, reason="syn retransmissions exhausted"
            )
            return
        pending.syn_retransmits += 1
        self.syn_retransmits += 1
        if self.flight_recorder is not None:
            self.flight_recorder.record(
                self.simulator.clock._now, "client", "syn-retransmit", request_id
            )
        self._send_syn(pending)
        pending.rto = min(pending.rto * 2.0, self.syn_retransmit_cap)
        pending.syn_timer = self.simulator.schedule_in(
            pending.rto,
            lambda: self._retransmit_syn(request_id, attempt),
            label="syn-rto",
        )

    def _attempt_deadline(self, request_id: int, attempt: int) -> None:
        pending = self._pending.get(request_id)
        if pending is None or pending.attempt != attempt:
            return
        if pending.outcome.retries >= self.max_retries:
            pending.outcome.gave_up = True
            self._finish(pending, failed=True, reason="client timeout")
            return
        # Retry the whole connection on a fresh source port so the ECMP
        # edge re-hashes the flow (the previous path may be the problem).
        self._cancel_timers(pending)
        if self._active_ports is not None:
            # Release the abandoned port: the user's stable port (or a
            # fallback) can be reused later.
            self._active_ports.discard(pending.src_port)
        pending.attempt += 1
        pending.outcome.retries += 1
        pending.outcome.established_at = None
        pending.syn_retransmits = 0
        pending.src_port = self._allocate_port(pending.user_id)
        self.queries_retried += 1
        if self.flight_recorder is not None:
            self.flight_recorder.record(
                self.simulator.clock._now, "client", "retry", request_id
            )
        self._send_syn(pending)
        self._arm_timers(pending)

    def _cancel_timers(self, pending: _PendingQuery) -> None:
        if pending.syn_timer is not None:
            pending.syn_timer.cancel()
            pending.syn_timer = None
        if pending.retry_timer is not None:
            pending.retry_timer.cancel()
            pending.retry_timer = None

    # ------------------------------------------------------------------
    # packet handling
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        tcp = packet.tcp
        pending = self._pending.get(tcp.request_id)
        if pending is None:
            # Stray packet (e.g. late RST for an already-failed query).
            return
        bits = tcp.bits

        # Replies carry the client's source port as their destination
        # port, so after a retry any packet from a previous attempt's
        # connection no longer matches and must be ignored (never true
        # before the first retry: attempt == 0).
        if pending.attempt and tcp.dst_port != pending.src_port:
            return

        if bits & RST_BIT:
            self._finish(pending, failed=True, reason="connection reset")
            return

        if bits & SYN_ACK_BITS == SYN_ACK_BITS:
            if pending.syn_timer is not None:
                pending.syn_timer.cancel()
                pending.syn_timer = None
            pending.outcome.established_at = self.simulator.clock._now
            if self.request_spread > 0:
                # Paced upload; with request_chunks == 1 this degenerates
                # to sending the whole payload request_spread seconds
                # after establishment (no mid-upload probes).
                self._schedule_spread_upload(pending)
            else:
                self._send_request_data(pending)
            return

        if tcp.payload_size > 0 or bits & PSH_BIT:
            pending.outcome.completed_at = self.simulator.clock._now
            self._finish(pending, failed=False)
            return

    def _schedule_spread_upload(self, pending: _PendingQuery) -> None:
        """Pace the request upload over :attr:`request_spread` seconds."""
        request_id = pending.outcome.request_id
        attempt = pending.attempt
        interval = self.request_spread / self.request_chunks
        for chunk in range(1, self.request_chunks):
            self.simulator.schedule_in(
                chunk * interval,
                lambda: self._send_upload_probe(request_id, attempt),
                label="upload",
            )
        self.simulator.schedule_in(
            self.request_spread,
            lambda: self._finish_upload(request_id, attempt),
            label="upload-final",
        )

    def _send_upload_probe(self, request_id: int, attempt: int = 0) -> None:
        """One paced mid-upload segment (a bare ACK steered by the LB)."""
        pending = self._pending.get(request_id)
        if pending is None or pending.attempt != attempt:
            # The query already finished (e.g. reset) or was retried on a
            # new connection; stop uploading on the stale one.
            return
        probe = Packet(
            self._addresses[0],
            self.vip,
            TCPSegment(pending.src_port, HTTP_PORT, TCPFlag.ACK, 0, request_id),
            None, DEFAULT_HOP_LIMIT, None,  # no SRH, default hop limit, fresh id
            self.simulator.clock._now,
        )
        self.send(probe)

    def _finish_upload(self, request_id: int, attempt: int = 0) -> None:
        pending = self._pending.get(request_id)
        if pending is None or pending.attempt != attempt:
            return
        self._send_request_data(pending)

    def _send_request_data(self, pending: _PendingQuery) -> None:
        request_id = pending.outcome.request_id
        data = Packet(
            self._addresses[0],
            self.vip,
            TCPSegment(pending.src_port, HTTP_PORT, PSH_ACK, REQUEST_PAYLOAD_SIZE, request_id),
            None, DEFAULT_HOP_LIMIT, None,  # no SRH, default hop limit, fresh id
            self.simulator.clock._now,
        )
        self.send(data)

    def _finish(
        self, pending: _PendingQuery, failed: bool, reason: Optional[str] = None
    ) -> None:
        if pending.syn_timer is not None or pending.retry_timer is not None:
            self._cancel_timers(pending)
        if self._active_ports is not None:
            self._active_ports.discard(pending.src_port)
        pending.outcome.failed = failed
        pending.outcome.failure_reason = reason
        del self._pending[pending.outcome.request_id]
        if failed:
            self.queries_failed += 1
            if pending.outcome.gave_up:
                self.queries_gave_up += 1
            if self.flight_recorder is not None:
                self.flight_recorder.record(
                    self.simulator.clock._now,
                    "client",
                    "gave-up" if pending.outcome.gave_up else "failed",
                    pending.outcome.request_id,
                )
        else:
            self.queries_completed += 1
        if self.collector is not None:
            self.collector.record(pending.outcome)

    def sweep_unfinished(self) -> int:
        """Record every still-pending query as a failed outcome.

        Called at the end of a run so that queries whose SYN (or final
        data packet) was lost do not silently leak ``_PendingQuery``
        entries — completion-rate metrics stay conservative.  Returns
        the number of queries swept.
        """
        swept = list(self._pending.values())
        for pending in swept:
            pending.outcome.gave_up = True
            self._finish(pending, failed=True, reason="unfinished at end of run")
        self.queries_swept += len(swept)
        return len(swept)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Number of queries currently awaiting a response."""
        return len(self._pending)

    def outstanding_request_ids(self) -> List[int]:
        """Request ids still in flight (diagnostics for hung runs)."""
        return list(self._pending)

    def snapshot(self) -> Dict[str, int]:
        """Every query counter, by name."""
        return {
            "queries_started": self.queries_started,
            "queries_completed": self.queries_completed,
            "queries_failed": self.queries_failed,
            "syn_retransmits": self.syn_retransmits,
            "queries_retried": self.queries_retried,
            "queries_gave_up": self.queries_gave_up,
            "queries_swept": self.queries_swept,
            "affinity_hits": self.affinity_hits,
            "affinity_fallbacks": self.affinity_fallbacks,
        }

    def __repr__(self) -> str:
        return (
            f"TrafficGeneratorNode(name={self.name!r}, started={self.queries_started}, "
            f"completed={self.queries_completed}, failed={self.queries_failed}, "
            f"in_flight={self.in_flight})"
        )
