"""Tests for the ECMP load-balancer tier (:mod:`repro.core.lb_tier`).

Covers cross-instance SYN-ACK learning (the return path hits a different
instance than the SYN did and the binding still lands on the owner),
stateless steering recovery after an instance kill, and mid-run
instance addition.
"""

import pytest

from repro.core.candidate_selection import (
    ConsistentHashCandidateSelector,
    RandomCandidateSelector,
)
from repro.core.lb_tier import LoadBalancerTier
from repro.core.policies import make_policy
from repro.errors import LoadBalancerError
from repro.metrics.collector import ResponseTimeCollector
from repro.net.addressing import IPv6Address
from repro.net.fabric import LANFabric
from repro.server.cpu import ProcessorSharingCPU
from repro.server.http_server import HTTPServerInstance
from repro.server.virtual_router import ServerNode
from repro.workload.client import TrafficGeneratorNode
from repro.workload.poisson import PoissonWorkload
from repro.workload.service_models import DeterministicServiceTime


def _addr(text):
    return IPv6Address.parse(text)


STEERING = _addr("fd00:400::100")
VIP = _addr("fd00:300::1")
CLIENT = _addr("fd00:200::1")


def _build_tier_testbed(
    simulator,
    num_instances=3,
    num_servers=6,
    selector_factory=None,
    request_spread=0.0,
    request_chunks=1,
):
    """A full testbed fronted by a tier behind the per-packet ECMP edge."""
    fabric = LANFabric(simulator, latency=1e-5)
    demands = {}  # request id -> CPU demand
    collector = ResponseTimeCollector(name="tier")
    if selector_factory is None:
        selector_factory = lambda: ConsistentHashCandidateSelector(
            num_candidates=2, table_size=251
        )

    server_addresses = [_addr(f"fd00:100::{index + 1:x}") for index in range(num_servers)]
    tier = LoadBalancerTier(
        simulator,
        steering_address=STEERING,
        instance_addresses=[
            _addr(f"fd00:400::{index + 1:x}") for index in range(num_instances)
        ],
        selector_factory=selector_factory,
    )
    tier.register_vip(VIP, server_addresses)
    tier.attach(fabric)

    servers = []
    for index, address in enumerate(server_addresses):
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
            load_balancer_address=STEERING,  # servers talk to the tier
        )
        server.bind_vip(VIP)
        server.attach(fabric)
        servers.append(server)

    client = TrafficGeneratorNode(
        simulator,
        "client",
        CLIENT,
        VIP,
        collector,
        request_spread=request_spread,
        request_chunks=request_chunks,
    )
    client.attach(fabric)
    return fabric, tier, servers, client, demands, collector


def _run_workload(simulator, client, demands, num_queries, rate=60.0, service=0.02):
    workload = PoissonWorkload(
        rate=rate, num_queries=num_queries, service_model=DeterministicServiceTime(service)
    )
    trace = workload.generate(simulator.streams.stream("workload"))
    demands.update(zip(trace.request_ids.tolist(), trace.service_demands.tolist()))
    client.schedule_trace(trace)
    return trace


class TestCrossInstanceLearning:
    def test_all_queries_complete_behind_the_per_packet_edge(self, simulator):
        fabric, tier, servers, client, demands, collector = _build_tier_testbed(simulator)
        _run_workload(simulator, client, demands, 300)
        simulator.run()
        assert collector.totals.completed == 300
        assert collector.totals.failed == 0
        # Every binding was learned exactly once, tier-wide.
        assert sum(i.stats.acceptances_learned for i in tier.instances) == 300
        assert tier.steering_misses() == 0

    def test_syn_acks_reach_a_different_instance_and_are_relayed(self, simulator):
        fabric, tier, servers, client, demands, collector = _build_tier_testbed(simulator)
        _run_workload(simulator, client, demands, 300)
        simulator.run()
        # Per-packet hashing sends ~ (N-1)/N of SYN-ACKs to a non-owner,
        # which must relay them; with 3 instances that is about 2/3.
        assert tier.snapshot()["signals_relayed_out"] > 100
        # The relay resolves to the owner: the instance that dispatched
        # the SYN is the instance that learned the binding.
        for instance in tier.instances:
            assert instance.stats.acceptances_learned <= instance.stats.syn_dispatched

    def test_owner_learns_the_binding_not_the_relay(self, simulator):
        fabric, tier, servers, client, demands, collector = _build_tier_testbed(simulator)
        _run_workload(simulator, client, demands, 200)
        simulator.run()
        learned = sum(i.stats.acceptances_learned for i in tier.instances)
        handled = sum(i.tier_stats.signals_handled_locally for i in tier.instances)
        assert learned == 200
        assert handled == 200  # each signal handled exactly once


class TestChurn:
    def test_kill_requires_a_survivor_and_is_idempotent(self, simulator):
        tier = LoadBalancerTier(
            simulator,
            STEERING,
            [_addr("fd00:400::1"), _addr("fd00:400::2")],
            selector_factory=lambda: ConsistentHashCandidateSelector(2, table_size=251),
        )
        tier.kill_instance("lb-0")
        with pytest.raises(LoadBalancerError):
            tier.kill_instance("lb-0")  # already dead
        with pytest.raises(LoadBalancerError):
            tier.kill_instance("lb-1")  # last alive
        assert [i.name for i in tier.alive_instances()] == ["lb-1"]

    def test_unknown_instance_rejected(self, simulator):
        tier = LoadBalancerTier(
            simulator,
            STEERING,
            [_addr("fd00:400::1")],
            selector_factory=lambda: ConsistentHashCandidateSelector(2, table_size=251),
        )
        with pytest.raises(LoadBalancerError):
            tier.kill_instance("lb-99")

    def test_dead_instance_eats_packets(self, simulator):
        fabric, tier, servers, client, demands, collector = _build_tier_testbed(
            simulator, num_instances=2
        )
        victim = tier.instances[0]
        tier.kill_instance(victim.name)
        from repro.net.packet import make_syn

        victim.receive(make_syn(CLIENT, VIP, 1024, 80))
        assert victim.tier_stats.dropped_while_dead == 1

    def test_mid_run_addition_joins_the_rotation(self, simulator):
        fabric, tier, servers, client, demands, collector = _build_tier_testbed(
            simulator, num_instances=2
        )
        _run_workload(simulator, client, demands, 200, rate=40.0)
        simulator.schedule_at(
            2.0, lambda: tier.add_instance(_addr("fd00:400::77")), label="add"
        )
        simulator.run()
        assert collector.totals.completed == 200
        assert collector.totals.failed == 0
        assert tier.stats.instances_added == 1
        newcomer = tier.instance("lb-2")
        # The newcomer took over a share of the flows arriving after it
        # joined (rendezvous hashing moves ~1/3 of the space to it).
        assert newcomer.stats.syn_dispatched > 0


class TestStatelessRecovery:
    def test_consistent_hash_survives_an_instance_kill(self, simulator):
        fabric, tier, servers, client, demands, collector = _build_tier_testbed(
            simulator,
            num_instances=4,
            request_spread=1.0,
            request_chunks=4,
        )
        _run_workload(simulator, client, demands, 400, rate=30.0, service=0.02)
        def kill():
            victim = max(tier.alive_instances(), key=lambda lb: len(lb.flow_table))
            tier.kill_instance(victim.name)
        simulator.schedule_at(7.0, kill, label="kill")
        simulator.run()
        # Flows owned by the victim missed steering state on the new
        # owner but were recovered by re-deriving the candidate chain.
        assert tier.snapshot()["recovery_hunts"] > 0
        assert collector.totals.failed == 0
        assert collector.totals.completed == 400
        assert client.in_flight == 0

    def test_random_selection_resets_the_victims_flows(self, simulator):
        fabric, tier, servers, client, demands, collector = _build_tier_testbed(
            simulator,
            num_instances=4,
            selector_factory=lambda: RandomCandidateSelector(
                simulator.streams.stream("sel"), num_candidates=2
            ),
            request_spread=1.0,
            request_chunks=4,
        )
        _run_workload(simulator, client, demands, 400, rate=30.0, service=0.02)
        def kill():
            victim = max(tier.alive_instances(), key=lambda lb: len(lb.flow_table))
            tier.kill_instance(victim.name)
        simulator.schedule_at(7.0, kill, label="kill")
        simulator.run()
        # Random candidate lists cannot be re-derived: the remapped
        # flows' steering misses turn into client resets.
        assert tier.snapshot()["recovery_hunts"] == 0
        assert collector.totals.failed > 0
        assert client.in_flight == 0
        assert sum(i.stats.resets_sent for i in tier.instances) >= collector.totals.failed
