"""Integration tests: the full Service Hunting packet exchange.

These tests replay the exact scenario of the paper's Figure 1 on a real
testbed built by the experiment harness, observing every packet on the
fabric, and assert on the sequence of SR headers: SYN with the candidate
list, refusal/forwarding, SYN-ACK through the load balancer, steering of
the request, and direct return of the response.
"""

import pytest

from repro.experiments.config import sr_policy
from repro.experiments.platform import build_testbed
from repro.net.tcp import classify_segment
from repro.workload.requests import Request
from repro.workload.trace import Trace


@pytest.fixture
def traced_testbed(small_testbed_config):
    """A small testbed with a packet tap recording every delivery."""
    testbed = build_testbed(small_testbed_config, sr_policy(4))
    log = []

    def tap(packet, origin, destination):
        log.append(
            {
                "kind": classify_segment(packet.tcp.flags),
                "origin": origin,
                "destination": destination,
                "srh": None
                if packet.srh is None
                else [str(s) for s in packet.srh.traversal_order()],
                "segments_left": None if packet.srh is None else packet.srh.segments_left,
                "request_id": packet.tcp.request_id,
            }
        )

    testbed.fabric.add_tap(tap)
    return testbed, log


def _single_request_trace():
    return Trace(
        [Request(request_id=1, arrival_time=0.0, service_demand=0.05, kind="php")]
    )


class TestSingleQueryExchange:
    def test_packet_sequence_matches_figure_1(self, traced_testbed):
        testbed, log = traced_testbed
        testbed.run_trace(_single_request_trace())

        kinds = [entry["kind"] for entry in log]
        # SYN client->LB, SYN with SRH LB->first candidate (possibly then
        # to second candidate), SYN-ACK server->LB, SYN-ACK LB->client,
        # data client->LB, data LB->server, response server->client.
        assert kinds[0] == "syn"
        assert kinds.count("syn-ack") == 2
        assert kinds.count("data") >= 3
        assert kinds[-1] == "data"          # the response is the last packet
        assert "rst" not in kinds

    def test_syn_carries_candidates_then_vip(self, traced_testbed):
        testbed, log = traced_testbed
        testbed.run_trace(_single_request_trace())
        dispatched = next(
            entry for entry in log if entry["kind"] == "syn" and entry["srh"] is not None
        )
        assert len(dispatched["srh"]) == 3
        assert dispatched["srh"][-1] == str(testbed.vip)
        assert dispatched["segments_left"] == 2
        server_addresses = {str(server.primary_address) for server in testbed.servers}
        assert set(dispatched["srh"][:2]) <= server_addresses

    def test_syn_ack_traverses_load_balancer_and_names_the_acceptor(self, traced_testbed):
        testbed, log = traced_testbed
        testbed.run_trace(_single_request_trace())
        syn_ack_to_lb = next(
            entry for entry in log if entry["kind"] == "syn-ack" and entry["destination"] == "lb"
        )
        acceptor = syn_ack_to_lb["srh"][0]
        accepted_counts = testbed.acceptance_counts()
        accepting_server = next(
            server for server in testbed.servers if str(server.primary_address) == acceptor
        )
        assert accepted_counts[accepting_server.name] == 1
        # The copy forwarded to the client has no SR header any more.
        syn_ack_to_client = next(
            entry
            for entry in log
            if entry["kind"] == "syn-ack" and entry["destination"] == "client"
        )
        assert syn_ack_to_client["srh"] is None

    def test_request_data_is_steered_to_the_accepting_server(self, traced_testbed):
        testbed, log = traced_testbed
        testbed.run_trace(_single_request_trace())
        syn_ack_to_lb = next(
            entry for entry in log if entry["kind"] == "syn-ack" and entry["destination"] == "lb"
        )
        acceptor = syn_ack_to_lb["srh"][0]
        steered = next(
            entry
            for entry in log
            if entry["kind"] == "data" and entry["origin"] == "lb"
        )
        assert steered["srh"] == [acceptor, str(testbed.vip)]
        assert steered["segments_left"] == 1

    def test_response_returns_directly_to_the_client(self, traced_testbed):
        testbed, log = traced_testbed
        testbed.run_trace(_single_request_trace())
        response = log[-1]
        assert response["destination"] == "client"
        assert response["origin"].startswith("server-")
        assert response["srh"] is None

    def test_flow_table_learned_exactly_one_flow(self, traced_testbed):
        testbed, log = traced_testbed
        testbed.run_trace(_single_request_trace())
        assert testbed.load_balancer.stats.acceptances_learned == 1
        assert testbed.load_balancer.stats.steering_misses == 0
        assert testbed.collector.totals.completed == 1


class TestRefusalPath:
    def test_loaded_first_candidate_is_skipped(self, small_testbed_config):
        """With SR0 every optional offer is refused: the second candidate serves."""
        testbed = build_testbed(small_testbed_config, sr_policy(0))
        testbed.run_trace(_single_request_trace())
        refused = sum(server.hunting.stats.refused for server in testbed.servers)
        forced = sum(server.hunting.stats.accepted_forced for server in testbed.servers)
        assert refused == 1
        assert forced == 1
        assert testbed.collector.totals.completed == 1

    def test_always_accept_never_refuses(self, small_testbed_config):
        testbed = build_testbed(small_testbed_config, sr_policy(1_000))
        testbed.run_trace(_single_request_trace())
        refused = sum(server.hunting.stats.refused for server in testbed.servers)
        by_choice = sum(server.hunting.stats.accepted_by_choice for server in testbed.servers)
        assert refused == 0
        assert by_choice == 1
