"""Unit tests for the Apache-like HTTP application instance."""

from array import array

import pytest

from repro.errors import ServerError
from repro.net.addressing import IPv6Address
from repro.net.packet import FlowKey
from repro.server.cpu import ProcessorSharingCPU
from repro.server.http_server import HTTPServerInstance


class FakeTransport:
    """Records the messages the application instance asks to send."""

    def __init__(self):
        self.syn_acks = []
        self.resets = []
        self.responses = []

    def send_syn_ack(self, connection):
        self.syn_acks.append(connection)

    def send_reset(self, connection):
        self.resets.append(connection)

    def send_response(self, connection, payload_size):
        self.responses.append((connection, payload_size))


def _flow_key(port: int) -> FlowKey:
    return FlowKey(
        IPv6Address.parse("fd00:200::1"),
        port,
        IPv6Address.parse("fd00:300::1"),
        80,
    )


def _make_server(simulator, num_workers=2, backlog=2, demand=0.1, cores=2):
    cpu = ProcessorSharingCPU(simulator, num_cores=cores)
    server = HTTPServerInstance(
        simulator=simulator,
        name="apache-test",
        cpu=cpu,
        num_workers=num_workers,
        backlog_capacity=backlog,
        demand_lookup=lambda request_id: demand,
    )
    transport = FakeTransport()
    server.bind_transport(transport)
    return server, transport


class TestConnectionAdmission:
    def test_syn_produces_syn_ack(self, simulator):
        server, transport = _make_server(simulator)
        server.handle_connection_request(_flow_key(1000), request_id=1)
        assert len(transport.syn_acks) == 1
        assert server.open_connections == 1

    def test_backlog_overflow_produces_reset(self, simulator):
        # 2 workers + backlog 2: the worker pool drains the backlog as
        # connections arrive, so room runs out after 4 connections.
        server, transport = _make_server(simulator, num_workers=2, backlog=2)
        for port in range(1000, 1005):
            server.handle_connection_request(_flow_key(port), request_id=port)
        assert len(transport.resets) == 1
        assert server.stats.connections_reset == 1
        assert len(transport.syn_acks) == 4

    def test_missing_transport_raises(self, simulator):
        cpu = ProcessorSharingCPU(simulator, num_cores=1)
        server = HTTPServerInstance(
            simulator, "no-transport", cpu, num_workers=1, demand_lookup=lambda r: 0.1
        )
        with pytest.raises(ServerError):
            server.handle_connection_request(_flow_key(1000), request_id=1)


class TestServiceLifecycle:
    def test_request_is_served_and_answered(self, simulator):
        server, transport = _make_server(simulator, demand=0.25)
        key = _flow_key(1000)
        server.handle_connection_request(key, request_id=1)
        assert server.handle_request_data(key, request_id=1) is True
        simulator.run()
        assert len(transport.responses) == 1
        assert server.stats.requests_served == 1
        assert simulator.now == pytest.approx(0.25, abs=1e-9)
        assert server.busy_threads == 0
        assert server.open_connections == 0

    def test_busy_threads_while_serving(self, simulator):
        server, transport = _make_server(simulator, demand=1.0)
        key = _flow_key(1000)
        server.handle_connection_request(key, request_id=1)
        server.handle_request_data(key, request_id=1)
        assert server.busy_threads == 1

    def test_request_data_for_unknown_flow_is_ignored(self, simulator):
        server, transport = _make_server(simulator)
        assert server.handle_request_data(_flow_key(9999), request_id=1) is False

    def test_connection_waits_for_worker(self, simulator):
        # One worker, two connections: the second is served after the first.
        server, transport = _make_server(simulator, num_workers=1, backlog=4, demand=0.5)
        first, second = _flow_key(1000), _flow_key(1001)
        server.handle_connection_request(first, request_id=1)
        server.handle_connection_request(second, request_id=2)
        server.handle_request_data(first, request_id=1)
        server.handle_request_data(second, request_id=2)
        assert server.busy_threads == 1
        assert server.backlog.depth == 1
        simulator.run()
        assert simulator.now == pytest.approx(1.0, abs=1e-9)
        assert server.stats.requests_served == 2

    def test_request_before_worker_assignment_starts_on_accept(self, simulator):
        server, transport = _make_server(simulator, num_workers=1, backlog=4, demand=0.2)
        first, second = _flow_key(1000), _flow_key(1001)
        server.handle_connection_request(first, request_id=1)
        server.handle_request_data(first, request_id=1)
        # The second connection's request arrives while it is still queued.
        server.handle_connection_request(second, request_id=2)
        server.handle_request_data(second, request_id=2)
        simulator.run()
        assert server.stats.requests_served == 2

    def test_processor_sharing_stretches_concurrent_requests(self, simulator):
        # 4 concurrent 0.5 s requests on a 2-core box -> 1.0 s each.
        server, transport = _make_server(simulator, num_workers=8, backlog=8, demand=0.5, cores=2)
        for index in range(4):
            key = _flow_key(1000 + index)
            server.handle_connection_request(key, request_id=index)
            server.handle_request_data(key, request_id=index)
        simulator.run()
        assert simulator.now == pytest.approx(1.0, abs=1e-9)

    def test_demand_lookup_required(self, simulator):
        cpu = ProcessorSharingCPU(simulator, num_cores=1)
        server = HTTPServerInstance(simulator, "no-demand", cpu, num_workers=1)
        server.bind_transport(FakeTransport())
        key = _flow_key(1000)
        server.handle_connection_request(key, request_id=1)
        with pytest.raises(ServerError):
            server.handle_request_data(key, request_id=1)

    def test_non_positive_demand_rejected(self, simulator):
        cpu = ProcessorSharingCPU(simulator, num_cores=1)
        server = HTTPServerInstance(
            simulator, "bad-demand", cpu, num_workers=1, demand_lookup=lambda r: 0.0
        )
        server.bind_transport(FakeTransport())
        key = _flow_key(1000)
        server.handle_connection_request(key, request_id=1)
        with pytest.raises(ServerError):
            server.handle_request_data(key, request_id=1)

    @pytest.mark.parametrize("request_id", [0, 5], ids=["nan-entry", "past-the-end"])
    def test_an_id_no_trace_has_is_rejected(self, simulator, request_id):
        # The testbed's demand table: NaN marks an id no replayed trace has.
        demands = array("d", [float("nan"), 0.1])
        cpu = ProcessorSharingCPU(simulator, num_cores=1)
        server = HTTPServerInstance(
            simulator, "unknown-id", cpu, num_workers=1, demand_lookup=demands.__getitem__
        )
        server.bind_transport(FakeTransport())
        key = _flow_key(1000)
        server.handle_connection_request(key, request_id=request_id)
        with pytest.raises(ServerError, match="no positive CPU demand"):
            server.handle_request_data(key, request_id=request_id)

    def test_connection_for_flow(self, simulator):
        server, transport = _make_server(simulator)
        key = _flow_key(1000)
        server.handle_connection_request(key, request_id=1)
        connection = server.connection_for_flow(key)
        assert connection is not None
        assert connection.request_id == 1
        assert server.connection_for_flow(_flow_key(2000)) is None

    def test_stats_accumulate(self, simulator):
        server, transport = _make_server(simulator, num_workers=4, backlog=8, demand=0.1)
        for index in range(3):
            key = _flow_key(1000 + index)
            server.handle_connection_request(key, request_id=index)
            server.handle_request_data(key, request_id=index)
        simulator.run()
        assert server.stats.connections_received == 3
        assert server.stats.requests_served == 3
        assert server.stats.total_service_demand == pytest.approx(0.3)
        assert server.stats.total_sojourn_time >= server.stats.total_service_demand


class TestRequestTimeout:
    def test_abandoned_connection_frees_its_worker(self, simulator):
        server, transport = _make_server(simulator, num_workers=1)
        server.request_timeout = 2.0
        server.handle_connection_request(_flow_key(1000), request_id=1)
        assert server.busy_threads == 1
        simulator.run()  # the request payload never arrives
        assert server.stats.connections_timed_out == 1
        assert len(transport.resets) == 1
        assert server.busy_threads == 0
        assert server.open_connections == 0

    def test_timely_request_is_not_timed_out(self, simulator):
        server, transport = _make_server(simulator, num_workers=1, demand=0.05)
        server.request_timeout = 2.0
        server.handle_connection_request(_flow_key(1000), request_id=1)
        simulator.schedule_at(
            1.0, lambda: server.handle_request_data(_flow_key(1000), 1), label="data"
        )
        simulator.run()
        assert server.stats.connections_timed_out == 0
        assert transport.resets == []
        assert len(transport.responses) == 1

    def test_freed_worker_picks_up_the_backlog(self, simulator):
        server, transport = _make_server(simulator, num_workers=1, backlog=2)
        server.request_timeout = 1.0
        # First connection never sends its request; the second does.
        server.handle_connection_request(_flow_key(1000), request_id=1)
        server.handle_connection_request(_flow_key(1001), request_id=2)
        server.handle_request_data(_flow_key(1001), 2)
        simulator.run()
        assert server.stats.connections_timed_out == 1
        assert len(transport.responses) == 1  # the second connection served

    def test_invalid_timeout_rejected(self, simulator):
        cpu = ProcessorSharingCPU(simulator, num_cores=1)
        with pytest.raises(ServerError):
            HTTPServerInstance(
                simulator, "bad", cpu, num_workers=1,
                demand_lookup=lambda r: 0.1, request_timeout=0.0,
            )


class TestLoadShedding:
    def _shed_server(self, simulator, num_workers=1, backlog=4, shed=2):
        cpu = ProcessorSharingCPU(simulator, num_cores=1)
        server = HTTPServerInstance(
            simulator=simulator,
            name="shed-test",
            cpu=cpu,
            num_workers=num_workers,
            backlog_capacity=backlog,
            demand_lookup=lambda request_id: 1.0,
            shed_watermark=shed,
        )
        transport = FakeTransport()
        server.bind_transport(transport)
        return server, transport

    def test_sheds_above_the_watermark(self, simulator):
        # 1 worker, backlog 4, shed at depth 2: the first connection
        # grabs the worker, the next two fill the backlog to the
        # watermark, the fourth is shed even though the backlog still
        # has room.
        server, transport = self._shed_server(simulator)
        for port in range(1000, 1004):
            server.handle_connection_request(_flow_key(port), request_id=port)
        assert server.stats.connections_shed == 1
        assert server.stats.connections_reset == 0
        assert len(transport.resets) == 1
        assert len(transport.syn_acks) == 3

    def test_below_the_watermark_admits_normally(self, simulator):
        server, transport = self._shed_server(simulator)
        for port in range(1000, 1003):
            server.handle_connection_request(_flow_key(port), request_id=port)
        assert server.stats.connections_shed == 0
        assert transport.resets == []
        assert len(transport.syn_acks) == 3

    def test_shed_is_not_counted_as_overflow(self, simulator):
        # Watermark equal to capacity: shedding fires exactly where the
        # overflow reset would, and claims the drop for itself.
        server, transport = self._shed_server(simulator, backlog=2, shed=2)
        for port in range(1000, 1005):
            server.handle_connection_request(_flow_key(port), request_id=port)
        assert server.stats.connections_shed == 2
        assert server.stats.connections_reset == 0

    def test_no_watermark_keeps_overflow_semantics(self, simulator):
        server, transport = _make_server(simulator, num_workers=1, backlog=2)
        for port in range(1000, 1005):
            server.handle_connection_request(_flow_key(port), request_id=port)
        assert server.stats.connections_shed == 0
        assert server.stats.connections_reset == 2

    def test_invalid_watermark_rejected(self, simulator):
        cpu = ProcessorSharingCPU(simulator, num_cores=1)
        with pytest.raises(ServerError):
            HTTPServerInstance(
                simulator, "bad-shed", cpu, num_workers=1,
                demand_lookup=lambda r: 0.1, shed_watermark=0,
            )
