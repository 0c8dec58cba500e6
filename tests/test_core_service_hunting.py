"""Unit tests for the Service Hunting decision engine (Algorithms 1 and 2)."""

from repro.core.agent import ApplicationAgent, StaticLoadView
from repro.core.policies import (
    AlwaysAcceptPolicy,
    DynamicThresholdPolicy,
    StaticThresholdPolicy,
)
from repro.core.service_hunting import HuntingDecision, ServiceHuntingProcessor
from repro.net.addressing import IPv6Address
from repro.net.packet import make_syn
from repro.net.srh import SegmentRoutingHeader


def _addr(text):
    return IPv6Address.parse(text)


CLIENT = _addr("fd00:200::1")
VIP = _addr("fd00:300::1")
SERVER1 = _addr("fd00:100::1")
SERVER2 = _addr("fd00:100::2")
SERVER3 = _addr("fd00:100::3")


def _hunting_packet(candidates):
    """A SYN carrying a Service Hunting SR list (candidates then VIP)."""
    packet = make_syn(CLIENT, VIP, 20_000, 80, request_id=1)
    packet.attach_srh(SegmentRoutingHeader.from_traversal(list(candidates) + [VIP]))
    return packet


def _processor(policy, busy=0, slots=32):
    agent = ApplicationAgent(StaticLoadView(busy=busy, slots=slots))
    return ServiceHuntingProcessor(policy, agent)


class TestOptionalDecision:
    def test_accept_sets_segments_left_to_zero(self):
        processor = _processor(StaticThresholdPolicy(4), busy=2)
        packet = _hunting_packet([SERVER1, SERVER2])
        decision = processor.process(packet)
        assert decision is HuntingDecision.ACCEPT
        assert packet.srh.segments_left == 0
        assert packet.dst == VIP
        assert processor.stats.accepted_by_choice == 1

    def test_refuse_forwards_to_second_candidate(self):
        processor = _processor(StaticThresholdPolicy(4), busy=10)
        packet = _hunting_packet([SERVER1, SERVER2])
        decision = processor.process(packet)
        assert decision is HuntingDecision.FORWARD
        assert packet.dst == SERVER2
        assert packet.srh.segments_left == 1
        assert processor.stats.refused == 1

    def test_forced_accept_at_last_candidate(self):
        processor = _processor(StaticThresholdPolicy(0), busy=32)
        packet = _hunting_packet([SERVER1, SERVER2])
        processor.process(packet)          # refused at the first candidate
        decision = processor.process(packet)  # second candidate must accept
        assert decision is HuntingDecision.ACCEPT
        assert packet.dst == VIP
        assert processor.stats.accepted_forced == 1

    def test_policy_not_consulted_on_forced_accept(self):
        class ExplodingPolicy(StaticThresholdPolicy):
            def should_accept(self, agent):
                raise AssertionError("must not be consulted at SegmentsLeft == 1")

        processor = _processor(ExplodingPolicy(0))
        packet = _hunting_packet([SERVER2])  # single candidate: SegmentsLeft == 1
        assert processor.process(packet) is HuntingDecision.ACCEPT

    def test_three_candidate_list_walks_through_refusals(self):
        packet = _hunting_packet([SERVER1, SERVER2, SERVER3])
        refusing = _processor(StaticThresholdPolicy(1), busy=5)
        assert refusing.process(packet) is HuntingDecision.FORWARD
        assert packet.dst == SERVER2
        assert refusing.process(packet) is HuntingDecision.FORWARD
        assert packet.dst == SERVER3
        assert refusing.process(packet) is HuntingDecision.ACCEPT
        assert packet.dst == VIP

    def test_not_applicable_without_srh(self):
        processor = _processor(AlwaysAcceptPolicy())
        packet = make_syn(CLIENT, VIP, 20_000, 80)
        assert processor.process(packet) is HuntingDecision.NOT_APPLICABLE

    def test_not_applicable_when_exhausted(self):
        processor = _processor(AlwaysAcceptPolicy())
        packet = _hunting_packet([SERVER1])
        processor.process(packet)
        assert packet.srh.segments_left == 0
        assert processor.process(packet) is HuntingDecision.NOT_APPLICABLE


class TestStatsAndReset:
    def test_offers_received_counts_everything(self):
        processor = _processor(StaticThresholdPolicy(4), busy=0)
        processor.process(_hunting_packet([SERVER1, SERVER2]))
        processor.process(_hunting_packet([SERVER1]))
        assert processor.stats.offers_received == 2


class TestDynamicPolicyEndToEnd:
    def test_dynamic_policy_adapts_through_the_processor(self):
        policy = DynamicThresholdPolicy(initial_threshold=1, window_size=10)
        agent_view = StaticLoadView(busy=20, slots=32)
        processor = ServiceHuntingProcessor(policy, ApplicationAgent(agent_view))
        for _ in range(60):
            processor.process(_hunting_packet([SERVER1, SERVER2]))
        # Every optional offer was refused, so SRdyn must have raised c.
        assert policy.threshold > 1
