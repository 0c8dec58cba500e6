"""Mid-flow behaviour during a graceful server drain.

The control plane's promise is that a scale-down never breaks an
established connection: a flow accepted by a server that starts draining
must complete without RSTs, because (a) the load balancers keep steering
its packets through their flow tables even after the server leaves the
candidate pools, and (b) the Service Hunting layer only refuses *new*
optional offers.  These tests pin that promise at the load-balancing
layer — the per-packet-ECMP :class:`LoadBalancerTier` — plus the
hunting-level drain semantics in isolation.

Clients trickle their uploads over ~1 s (``request_spread``), so every
flow genuinely depends on steering state while the drain happens
mid-upload.
"""

import pytest

from repro.core.agent import ApplicationAgent
from repro.core.candidate_selection import ConsistentHashCandidateSelector
from repro.core.lb_tier import LoadBalancerTier
from repro.core.policies import make_policy
from repro.core.service_hunting import HuntingDecision, ServiceHuntingProcessor
from repro.errors import LoadBalancerError
from repro.metrics.collector import ResponseTimeCollector
from repro.net.addressing import IPv6Address
from repro.net.fabric import LANFabric
from repro.net.packet import FlowKey, Packet, TCPFlag, TCPSegment
from repro.net.srh import SegmentRoutingHeader
from repro.server.cpu import ProcessorSharingCPU
from repro.server.http_server import HTTPServerInstance
from repro.server.scoreboard import Scoreboard
from repro.server.virtual_router import ServerNode
from repro.workload.client import TrafficGeneratorNode
from repro.workload.poisson import PoissonWorkload
from repro.workload.service_models import DeterministicServiceTime


def _addr(text):
    return IPv6Address.parse(text)


STEERING = _addr("fd00:400::100")
VIP = _addr("fd00:300::1")
CLIENT = _addr("fd00:200::1")


def _make_servers(simulator, fabric, demands, addresses, steering):
    servers = []
    for index, address in enumerate(addresses):
        cpu = ProcessorSharingCPU(simulator, num_cores=2)
        app = HTTPServerInstance(
            simulator,
            name=f"apache-{index}",
            cpu=cpu,
            num_workers=16,
            backlog_capacity=64,
            demand_lookup=demands.__getitem__,
        )
        server = ServerNode(
            simulator,
            name=f"server-{index}",
            address=address,
            app=app,
            policy=make_policy("SR8"),
            load_balancer_address=steering,
        )
        server.bind_vip(VIP)
        server.attach(fabric)
        servers.append(server)
    return servers


def _run_drain_scenario(simulator, front, servers, client, demands, drain_at):
    """Replay a spread-upload workload, draining a loaded server mid-run.

    ``front`` is the load-balancing layer under test; it must expose
    ``remove_backend(vip, address)``.  Returns the drained server.
    """
    workload = PoissonWorkload(
        rate=40.0, num_queries=40, service_model=DeterministicServiceTime(0.05)
    )
    trace = workload.generate(simulator.streams.stream("workload"))
    demands.update(zip(trace.request_ids.tolist(), trace.service_demands.tolist()))
    client.schedule_trace(trace)

    drained = []

    def drain_busiest():
        victim = max(servers, key=lambda server: server.app.open_connections)
        assert victim.app.open_connections > 0, "drain must catch in-flight flows"
        front.remove_backend(VIP, victim.primary_address)
        victim.start_draining()
        drained.append(victim)

    simulator.schedule_at(drain_at, drain_busiest, label="drain")
    simulator.run()
    return drained[0]


def _assert_graceful(collector, servers, drained):
    # Every query completed: nothing was reset by the drain.
    assert collector.totals.failed == 0
    assert collector.totals.completed == 40
    assert sum(server.app.stats.connections_reset for server in servers) == 0
    assert sum(server.stray_data_resets for server in servers) == 0
    # The drained server finished its in-flight work and went quiescent.
    assert drained.draining
    assert drained.quiescent
    # It really did refuse offers while draining, or was simply bypassed;
    # either way it served at least the flows it had already accepted.
    assert drained.app.stats.requests_served > 0


class TestDrainAtTheTierLayer:
    """Graceful drain behind the per-packet ECMP tier."""

    def test_in_flight_flows_complete_without_resets(self, simulator):
        fabric = LANFabric(simulator, latency=1e-5)
        demands = {}  # request id -> CPU demand
        collector = ResponseTimeCollector(name="drain-tier")
        server_addresses = [_addr(f"fd00:100::{i + 1:x}") for i in range(4)]
        tier = LoadBalancerTier(
            simulator,
            steering_address=STEERING,
            instance_addresses=[_addr("fd00:400::1"), _addr("fd00:400::2")],
            selector_factory=lambda: ConsistentHashCandidateSelector(
                num_candidates=2, table_size=251
            ),
        )
        tier.register_vip(VIP, server_addresses)
        tier.attach(fabric)
        servers = _make_servers(
            simulator, fabric, demands, server_addresses, STEERING
        )
        client = TrafficGeneratorNode(
            simulator, "client", CLIENT, VIP, collector,
            request_spread=1.0, request_chunks=4,
        )
        client.attach(fabric)

        drained = _run_drain_scenario(
            simulator, tier, servers, client, demands, drain_at=0.6
        )
        _assert_graceful(collector, servers, drained)
        # The tier-wide pools no longer name the drained server.
        for instance in tier.instances:
            assert drained.primary_address not in instance.backends_for(VIP)

    def test_tier_backend_change_invalidates_the_edge_cache(self, simulator):
        tier = LoadBalancerTier(
            simulator,
            steering_address=STEERING,
            instance_addresses=[_addr("fd00:400::1"), _addr("fd00:400::2")],
            selector_factory=lambda: ConsistentHashCandidateSelector(
                num_candidates=2, table_size=251
            ),
        )
        backends = [_addr("fd00:100::1"), _addr("fd00:100::2"), _addr("fd00:100::3")]
        tier.register_vip(VIP, backends)
        # Warm the edge cache with a few flow decisions.
        for port in range(10_000, 10_020):
            tier.router.next_hop_for(FlowKey(CLIENT, port, VIP, 80))
        assert tier.router.invalidate_next_hop_cache() == 20
        for port in range(10_000, 10_020):
            tier.router.next_hop_for(FlowKey(CLIENT, port, VIP, 80))
        tier.remove_backend(VIP, backends[-1])
        # The removal itself must have cleared the memoized decisions.
        assert tier.router.invalidate_next_hop_cache() == 0
        tier.add_backend(VIP, backends[-1])
        assert tier.router.invalidate_next_hop_cache() == 0
        for instance in tier.instances:
            assert backends[-1] in instance.backends_for(VIP)

    def test_removing_the_last_backend_is_refused_without_side_effects(
        self, simulator
    ):
        tier = LoadBalancerTier(
            simulator,
            steering_address=STEERING,
            instance_addresses=[_addr("fd00:400::1"), _addr("fd00:400::2")],
            selector_factory=lambda: ConsistentHashCandidateSelector(
                num_candidates=1, table_size=251
            ),
        )
        last = _addr("fd00:100::1")
        tier.register_vip(VIP, [last])
        # Warm the edge cache so we can observe it surviving the refusal.
        tier.router.next_hop_for(FlowKey(CLIENT, 10_000, VIP, 80))
        with pytest.raises(LoadBalancerError):
            tier.remove_backend(VIP, last)
        # The refusal left every layer exactly as it was: tier pool,
        # every instance's pool, and the memoized edge decisions.
        for instance in tier.instances:
            assert instance.backends_for(VIP) == [last]
        assert tier.router.invalidate_next_hop_cache() == 1
        with pytest.raises(LoadBalancerError):
            tier.instances[0].remove_backend(VIP, last)
        assert tier.instances[0].backends_for(VIP) == [last]

    def test_diverged_instance_pool_refuses_before_any_mutation(self, simulator):
        # The per-instance backend API is public; if an instance's pool
        # diverged from the tier's, a tier-wide removal that would empty
        # that instance's pool must refuse up front, leaving the tier
        # pool and every other instance untouched.
        tier = LoadBalancerTier(
            simulator,
            steering_address=STEERING,
            instance_addresses=[_addr("fd00:400::1"), _addr("fd00:400::2")],
            selector_factory=lambda: ConsistentHashCandidateSelector(
                num_candidates=1, table_size=251
            ),
        )
        first = _addr("fd00:100::1")
        second = _addr("fd00:100::2")
        tier.register_vip(VIP, [first, second])
        tier.instances[0].remove_backend(VIP, first)  # diverge one instance
        with pytest.raises(LoadBalancerError, match="no servers on instance"):
            tier.remove_backend(VIP, second)
        # Nothing was mutated by the refused removal.
        assert set(tier.instances[1].backends_for(VIP)) == {first, second}
        assert tier.instances[0].backends_for(VIP) == [second]


class TestHuntingDrainSemantics:
    """The Service Hunting layer's drain switch, in isolation."""

    def _offer(self, segments_left):
        srh = SegmentRoutingHeader.from_traversal(
            [_addr("fd00:100::1"), _addr("fd00:100::2"), VIP]
        )
        while srh.segments_left > segments_left:
            srh.advance()
        return Packet(
            src=CLIENT,
            dst=srh.active_segment,
            tcp=TCPSegment(
                src_port=40_000, dst_port=80, flags=TCPFlag.SYN, request_id=1
            ),
            srh=srh,
            created_at=0.0,
        )

    def _processor(self, simulator):
        scoreboard = Scoreboard(simulator.clock, 8)
        agent = ApplicationAgent(scoreboard, cpu_cores=2)
        return ServiceHuntingProcessor(make_policy("SR8"), agent)

    def test_draining_refuses_optional_offers(self, simulator):
        processor = self._processor(simulator)
        processor.draining = True
        decision = processor.process(self._offer(segments_left=2))
        assert decision is HuntingDecision.FORWARD
        assert processor.stats.refused == 1
        assert processor.stats.refused_draining == 1

    def test_draining_still_honours_the_forced_accept(self, simulator):
        processor = self._processor(simulator)
        processor.draining = True
        decision = processor.process(self._offer(segments_left=1))
        assert decision is HuntingDecision.ACCEPT
        assert processor.stats.accepted_forced == 1
        assert processor.stats.refused_draining == 0

    def test_not_draining_consults_the_policy(self, simulator):
        processor = self._processor(simulator)
        decision = processor.process(self._offer(segments_left=2))
        assert decision is HuntingDecision.ACCEPT  # SR8, zero busy threads
        assert processor.stats.refused_draining == 0
