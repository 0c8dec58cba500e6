"""Unit tests for the traffic-generator client node."""

import pytest

from repro.metrics.collector import ResponseTimeCollector
from repro.net.addressing import IPv6Address
from repro.net.fabric import LANFabric
from repro.net.packet import Packet, TCPFlag, TCPSegment
from repro.net.router import NetworkNode
from repro.net.tcp import EPHEMERAL_PORT_BASE, EPHEMERAL_PORT_RANGE, HTTP_PORT
from repro.workload.client import (
    REQUEST_PAYLOAD_SIZE,
    TrafficGeneratorNode,
    stable_user_port,
)
from repro.workload.requests import KIND_SESSION, Request
from repro.workload.trace import Trace


def _failures(collector: ResponseTimeCollector):
    """The collector's failed outcomes as records (``outcomes()`` lists the rest)."""
    return collector._materialise(collector._rows(False, None))


def _addr(text):
    return IPv6Address.parse(text)


CLIENT = _addr("fd00:200::1")
VIP = _addr("fd00:300::1")


class EchoService(NetworkNode):
    """Stand-in for the LB + server side: answers SYNs and requests.

    Behaviour is configurable per test: it can answer with a SYN-ACK and
    a response, or reset the connection.
    """

    def __init__(self, simulator, reset_ports=frozenset(), response_delay=0.01):
        super().__init__(simulator, "service")
        self.add_address(VIP)
        self.reset_ports = reset_ports
        self.response_delay = response_delay
        self.syns = []
        self.requests = []

    def handle_packet(self, packet):
        tcp = packet.tcp
        if TCPFlag.SYN in tcp.flags:
            self.syns.append(packet)
            flags = (
                TCPFlag.RST
                if tcp.src_port in self.reset_ports
                else TCPFlag.SYN | TCPFlag.ACK
            )
            self.send(
                Packet(
                    src=VIP,
                    dst=packet.src,
                    tcp=TCPSegment(
                        src_port=HTTP_PORT,
                        dst_port=tcp.src_port,
                        flags=flags,
                        request_id=tcp.request_id,
                    ),
                )
            )
        elif tcp.payload_size > 0:
            self.requests.append(packet)
            reply = Packet(
                src=VIP,
                dst=packet.src,
                tcp=TCPSegment(
                    src_port=HTTP_PORT,
                    dst_port=tcp.src_port,
                    flags=TCPFlag.PSH | TCPFlag.ACK,
                    payload_size=1_000,
                    request_id=tcp.request_id,
                ),
            )
            self.simulator.schedule_in(self.response_delay, lambda: self.send(reply))


def _build(simulator, reset_ports=frozenset()):
    fabric = LANFabric(simulator, latency=1e-4)
    collector = ResponseTimeCollector()
    client = TrafficGeneratorNode(simulator, "client", CLIENT, VIP, collector)
    service = EchoService(simulator, reset_ports=reset_ports)
    client.attach(fabric)
    service.attach(fabric)
    return client, service, collector


def _trace(count, spacing=0.01):
    return Trace(
        [
            Request(request_id=1_000 + index, arrival_time=index * spacing,
                    service_demand=0.05, kind="php")
            for index in range(count)
        ]
    )


class TestTrafficGenerator:
    def test_full_query_lifecycle(self, simulator):
        client, service, collector = _build(simulator)
        client.schedule_trace(_trace(1))
        simulator.run()
        assert client.queries_completed == 1
        assert client.queries_failed == 0
        assert client.in_flight == 0
        assert len(service.requests) == 1
        outcome = collector.outcomes()[0]
        assert outcome.succeeded
        assert outcome.established_at is not None
        # Response time covers handshake + request + service + response.
        assert outcome.response_time > 0.01

    def test_open_loop_arrivals_follow_the_trace(self, simulator):
        client, service, collector = _build(simulator)
        client.schedule_trace(_trace(5, spacing=0.1))
        simulator.run()
        sent_times = sorted(outcome.sent_at for outcome in collector.outcomes())
        assert sent_times == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])

    def test_request_payload_is_sent_after_syn_ack(self, simulator):
        client, service, collector = _build(simulator)
        client.schedule_trace(_trace(1))
        simulator.run()
        assert service.requests[0].tcp.payload_size == REQUEST_PAYLOAD_SIZE

    def test_reset_marks_query_failed(self, simulator):
        # The first ephemeral port is 10_000; reset that connection.
        client, service, collector = _build(simulator, reset_ports={10_000})
        client.schedule_trace(_trace(2))
        simulator.run()
        assert client.queries_failed == 1
        assert client.queries_completed == 1
        assert collector.totals.failed == 1
        failure = _failures(collector)[0]
        assert failure.failure_reason == "connection reset"

    def test_each_query_gets_a_distinct_source_port(self, simulator):
        client, service, collector = _build(simulator)
        client.schedule_trace(_trace(4))
        simulator.run()
        ports = {packet.tcp.src_port for packet in service.syns}
        assert len(ports) == 4

    def test_stray_packet_is_ignored(self, simulator):
        client, service, collector = _build(simulator)
        stray = Packet(
            src=VIP,
            dst=CLIENT,
            tcp=TCPSegment(src_port=80, dst_port=9_999, flags=TCPFlag.ACK, request_id=777),
        )
        client.receive(stray)
        assert client.queries_completed == 0
        assert client.queries_failed == 0

    def test_duplicate_in_flight_request_rejected(self, simulator):
        client, service, collector = _build(simulator)
        client.start_query(42, "php")
        with pytest.raises(Exception):
            client.start_query(42, "php")

    def test_outstanding_request_ids(self, simulator):
        client, service, collector = _build(simulator)
        client.start_query(43, "php")
        assert client.outstanding_request_ids() == [43]
        simulator.run()
        assert client.outstanding_request_ids() == []

    def test_works_without_collector(self, simulator):
        fabric = LANFabric(simulator, latency=1e-4)
        client = TrafficGeneratorNode(simulator, "client", CLIENT, VIP, collector=None)
        service = EchoService(simulator)
        client.attach(fabric)
        service.attach(fabric)
        client.schedule_trace(_trace(1))
        simulator.run()
        assert client.queries_completed == 1


class TestSpreadUpload:
    def test_single_chunk_spread_delays_the_payload(self, simulator):
        """request_spread with request_chunks=1 sends the payload late,
        not immediately (no silently-inert configuration)."""
        from repro.net.fabric import LANFabric
        from repro.net.packet import TCPFlag
        from repro.workload.client import TrafficGeneratorNode
        from repro.net.addressing import IPv6Address

        from repro.net.router import NetworkNode

        from repro.net.packet import Packet, TCPSegment

        class VipSink(NetworkNode):
            """Answers the SYN with a SYN-ACK at t=0.5, records the rest."""

            def __init__(self, simulator):
                super().__init__(simulator, "vip-sink")
                self.seen = []

            def handle_packet(self, packet):
                self.seen.append((self.simulator.now, packet))
                if TCPFlag.SYN in packet.tcp.flags:
                    self.simulator.schedule_at(
                        0.5,
                        lambda: self.send(
                            Packet(
                                src=packet.dst,
                                dst=packet.src,
                                tcp=TCPSegment(
                                    src_port=packet.tcp.dst_port,
                                    dst_port=packet.tcp.src_port,
                                    flags=TCPFlag.SYN | TCPFlag.ACK,
                                    request_id=packet.tcp.request_id,
                                ),
                            )
                        ),
                        label="syn-ack",
                    )

        fabric = LANFabric(simulator, latency=1e-6)
        sink = VipSink(simulator)
        sink.add_address(IPv6Address.parse("fd00:300::9"))
        sink.attach(fabric)
        client = TrafficGeneratorNode(
            simulator,
            "client",
            IPv6Address.parse("fd00:200::9"),
            IPv6Address.parse("fd00:300::9"),
            request_spread=2.0,
            request_chunks=1,
        )
        client.attach(fabric)
        sent = sink.seen

        client.start_query(1, "php")
        simulator.run()
        data = [(when, p) for when, p in sent if TCPFlag.PSH in p.tcp.flags]
        assert len(data) == 1
        # Established at ~0.5 + spread 2.0 (plus one fabric hop).
        assert data[0][0] == pytest.approx(2.5, abs=1e-3)

class SelectiveService(NetworkNode):
    """Answers only the SYNs an ``answer`` predicate admits.

    Unanswered SYNs model packet loss / a black-holed path; answered
    ones get the full SYN-ACK + response exchange of ``EchoService``.
    """

    def __init__(self, simulator, answer=lambda packet: True, response_delay=0.01):
        super().__init__(simulator, "service")
        self.add_address(VIP)
        self.answer = answer
        self.response_delay = response_delay
        self.syns = []
        self.answered = []

    def handle_packet(self, packet):
        tcp = packet.tcp
        if TCPFlag.SYN in tcp.flags:
            self.syns.append(packet)
            if not self.answer(packet):
                return
            self.answered.append(packet)
            self.send(
                Packet(
                    src=VIP,
                    dst=packet.src,
                    tcp=TCPSegment(
                        src_port=HTTP_PORT,
                        dst_port=tcp.src_port,
                        flags=TCPFlag.SYN | TCPFlag.ACK,
                        request_id=tcp.request_id,
                    ),
                )
            )
        elif tcp.payload_size > 0:
            reply = Packet(
                src=VIP,
                dst=packet.src,
                tcp=TCPSegment(
                    src_port=HTTP_PORT,
                    dst_port=tcp.src_port,
                    flags=TCPFlag.PSH | TCPFlag.ACK,
                    payload_size=1_000,
                    request_id=tcp.request_id,
                ),
            )
            self.simulator.schedule_in(self.response_delay, lambda: self.send(reply))


def _build_lossy(simulator, answer, **client_kwargs):
    fabric = LANFabric(simulator, latency=1e-4)
    collector = ResponseTimeCollector()
    client = TrafficGeneratorNode(
        simulator, "client", CLIENT, VIP, collector, **client_kwargs
    )
    service = SelectiveService(simulator, answer=answer)
    client.attach(fabric)
    service.attach(fabric)
    return client, service, collector


class TestSynRetransmission:
    def test_retransmits_recover_a_lost_syn(self, simulator):
        # The service ignores the first two SYNs (as if dropped in the
        # network); the client's RTO timer must retransmit and complete.
        client, service, collector = _build_lossy(
            simulator,
            answer=lambda packet: len(service.syns) > 2,
            syn_retransmit_timeout=0.1,
        )
        client.schedule_trace(_trace(1))
        simulator.run()
        assert client.queries_completed == 1
        assert client.syn_retransmits == 2
        outcome = collector.outcomes()[0]
        assert outcome.succeeded
        assert outcome.retries == 0  # same connection attempt throughout

    def test_backoff_doubles_up_to_the_cap(self, simulator):
        client, service, collector = _build_lossy(
            simulator,
            answer=lambda packet: False,
            syn_retransmit_timeout=0.1,
            syn_retransmit_cap=0.3,
            syn_retransmit_limit=4,
        )
        client.schedule_trace(_trace(1))
        simulator.run()
        # SYNs at 0, then RTOs 0.1, 0.2, 0.3 (capped), 0.3.
        times = [packet.created_at for packet in service.syns]
        gaps = [round(b - a, 6) for a, b in zip(times, times[1:])]
        assert gaps == [0.1, 0.2, 0.3, 0.3]

    def test_gives_up_after_the_retransmit_limit(self, simulator):
        client, service, collector = _build_lossy(
            simulator,
            answer=lambda packet: False,
            syn_retransmit_timeout=0.05,
            syn_retransmit_limit=2,
        )
        client.schedule_trace(_trace(1))
        simulator.run()
        assert client.queries_failed == 1
        assert client.queries_gave_up == 1
        assert client.in_flight == 0
        failure = _failures(collector)[0]
        assert failure.gave_up
        assert failure.failure_reason == "syn retransmissions exhausted"

    def test_syn_timer_is_cancelled_by_the_syn_ack(self, simulator):
        client, service, collector = _build_lossy(
            simulator,
            answer=lambda packet: True,
            syn_retransmit_timeout=0.5,
        )
        client.schedule_trace(_trace(1))
        simulator.run()
        assert client.syn_retransmits == 0
        assert len(service.syns) == 1


class TestClientRetries:
    def test_retry_uses_a_fresh_source_port(self, simulator):
        # The service black-holes the client's first source port; the
        # per-attempt deadline must retry on a new port (ECMP re-hash)
        # and complete.
        client, service, collector = _build_lossy(
            simulator,
            answer=lambda packet: packet.tcp.src_port != 10_000,
            retry_timeout=0.5,
            max_retries=2,
        )
        client.schedule_trace(_trace(1))
        simulator.run()
        assert client.queries_completed == 1
        assert client.queries_retried == 1
        outcome = collector.outcomes()[0]
        assert outcome.retries == 1
        ports = [packet.tcp.src_port for packet in service.syns]
        assert ports == [10_000, 10_001]

    def test_gives_up_after_max_retries(self, simulator):
        client, service, collector = _build_lossy(
            simulator,
            answer=lambda packet: False,
            retry_timeout=0.2,
            max_retries=1,
        )
        client.schedule_trace(_trace(1))
        simulator.run()
        assert client.queries_failed == 1
        assert client.queries_retried == 1
        assert client.queries_gave_up == 1
        failure = _failures(collector)[0]
        assert failure.gave_up
        assert failure.retries == 1
        assert failure.failure_reason == "client timeout"

    def test_stale_reply_from_a_previous_attempt_is_ignored(self, simulator):
        # The service answers the first attempt's SYN only *after* the
        # client has already retried on a new port: the late SYN-ACK
        # addresses the old port and must not confuse the new attempt.
        client, service, collector = _build_lossy(
            simulator,
            answer=lambda packet: packet.tcp.src_port != 10_000,
            retry_timeout=0.5,
            max_retries=2,
        )

        def late_syn_ack():
            first = service.syns[0]
            service.send(
                Packet(
                    src=VIP,
                    dst=first.src,
                    tcp=TCPSegment(
                        src_port=HTTP_PORT,
                        dst_port=first.tcp.src_port,
                        flags=TCPFlag.SYN | TCPFlag.ACK,
                        request_id=first.tcp.request_id,
                    ),
                )
            )

        simulator.schedule_at(0.6, late_syn_ack, label="late-syn-ack")
        client.schedule_trace(_trace(1))
        simulator.run()
        assert client.queries_completed == 1
        outcome = collector.outcomes()[0]
        assert outcome.retries == 1
        # Exactly one request payload was sent — on the second attempt.
        requests = [p for p in service.syns if p.tcp.src_port == 10_001]
        assert len(requests) == 1


class TestSweepUnfinished:
    def test_sweep_records_pending_queries_as_failed(self, simulator):
        # No retransmission, no retries: a lost SYN strands the query.
        client, service, collector = _build_lossy(
            simulator, answer=lambda packet: False
        )
        client.schedule_trace(_trace(2))
        simulator.run()
        assert client.in_flight == 2
        assert collector.totals.failed == 0
        swept = client.sweep_unfinished()
        assert swept == 2
        assert client.in_flight == 0
        assert client.queries_swept == 2
        assert client.queries_gave_up == 2
        assert collector.totals.failed == 2
        for failure in _failures(collector):
            assert failure.gave_up
            assert failure.failure_reason == "unfinished at end of run"

    def test_sweep_is_a_noop_on_a_clean_run(self, simulator):
        client, service, collector = _build(simulator)
        client.schedule_trace(_trace(3))
        simulator.run()
        assert client.sweep_unfinished() == 0
        assert client.queries_swept == 0
        assert collector.totals.failed == 0


class TestStableUserPort:
    def test_ports_are_deterministic_and_in_range(self):
        for user in (0, 1, 17, 10**6):
            port = stable_user_port(user)
            assert port == stable_user_port(user)
            assert EPHEMERAL_PORT_BASE <= port < (
                EPHEMERAL_PORT_BASE + EPHEMERAL_PORT_RANGE
            )

    def test_distinct_users_mostly_get_distinct_ports(self):
        ports = {stable_user_port(user) for user in range(1_000)}
        # Birthday collisions are possible but must stay rare.
        assert len(ports) > 950


def _user_trace(*rows):
    """A trace of ``(arrival time, user or None)`` rows, ids from 1."""
    return Trace(
        [
            Request(index, arrival, 0.05, kind=KIND_SESSION, user_id=user)
            for index, (arrival, user) in enumerate(rows, start=1)
        ]
    )


def _syn_ports(service):
    return [packet.tcp.src_port for packet in service.syns]


class TestUserAffinity:
    """Per-user source ports, turned on by a trace that carries user ids."""

    def test_a_trace_without_users_leaves_affinity_off(self, simulator):
        client, service, collector = _build(simulator)
        client.schedule_trace(_trace(3))
        simulator.run()
        assert client._active_ports is None
        # The round-robin ports, from the base of the ephemeral range.
        assert _syn_ports(service) == [10_000, 10_001, 10_002]
        counters = client.snapshot()
        assert counters["affinity_hits"] == counters["affinity_fallbacks"] == 0

    def test_a_users_query_leaves_from_the_users_stable_port(self, simulator):
        client, service, collector = _build(simulator)
        client.schedule_trace(_user_trace((0.0, 42)))
        simulator.run()
        assert _syn_ports(service) == [stable_user_port(42)]
        assert client.snapshot()["affinity_hits"] == 1
        assert client.snapshot()["affinity_fallbacks"] == 0
        assert client.queries_completed == 1

    def test_a_port_in_flight_falls_back_and_is_reused_once_free(self, simulator):
        # The second query of user 42 starts while the first holds the
        # user's port; the third starts after both have finished.
        client, service, collector = _build(simulator)
        client.schedule_trace(_user_trace((0.0, 42), (0.001, 42), (1.0, 42)))
        simulator.run()
        port = stable_user_port(42)
        assert _syn_ports(service) == [port, 10_000, port]
        assert (client.affinity_hits, client.affinity_fallbacks) == (2, 1)
        assert client._active_ports == set()

    def test_queries_without_a_user_skip_the_ports_in_flight(self, simulator):
        # User 22146's port is the first round-robin port; the query
        # without a user, started while it is held, takes the next one.
        assert stable_user_port(22_146) == EPHEMERAL_PORT_BASE
        client, service, collector = _build(simulator)
        client.schedule_trace(_user_trace((0.0, 22_146), (0.001, None)))
        simulator.run()
        assert _syn_ports(service) == [EPHEMERAL_PORT_BASE, EPHEMERAL_PORT_BASE + 1]
        assert (client.affinity_hits, client.affinity_fallbacks) == (1, 0)

    def test_a_retried_user_query_releases_its_stable_port(self, simulator):
        # The first SYN is lost; the retry gives the port back before it
        # allocates again, so the user's port is free for the new attempt.
        client, service, collector = _build_lossy(
            simulator,
            answer=lambda packet: len(service.syns) > 1,
            retry_timeout=0.5,
            max_retries=1,
        )
        client.schedule_trace(_user_trace((0.0, 9)))
        simulator.run()
        port = stable_user_port(9)
        assert _syn_ports(service) == [port, port]
        assert client.queries_retried == 1 and client.queries_completed == 1
        assert (client.affinity_hits, client.affinity_fallbacks) == (2, 0)
        assert client._active_ports == set()
