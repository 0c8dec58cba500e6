"""Unit tests for the application agent and the connection-acceptance policies."""

import pytest

from repro.core.agent import ApplicationAgent, StaticLoadView
from repro.core.policies import (
    AlwaysAcceptPolicy,
    DynamicThresholdPolicy,
    StaticThresholdPolicy,
    make_policy,
    register_policy,
)
from repro.errors import PolicyError


class _SettableLoadView(StaticLoadView):
    """A fixed load view whose busy count a test moves."""

    def set_busy(self, busy: int) -> None:
        self._busy = busy


def _idle_threads(agent: ApplicationAgent) -> int:
    """Idle worker threads, read through the agent."""
    return agent.total_threads() - agent.busy_threads()


class TestApplicationAgent:
    def test_busy_and_idle_threads(self):
        agent = ApplicationAgent(StaticLoadView(busy=5, slots=32))
        assert agent.busy_threads() == 5
        assert _idle_threads(agent) == 27
        assert agent.total_threads() == 32

    def test_cpu_load_estimate(self):
        agent = ApplicationAgent(StaticLoadView(busy=6, slots=32), cpu_cores=2)
        assert agent.estimated_cpu_load() == pytest.approx(3.0)

    def test_cpu_cores_below_one_count_as_one(self):
        agent = ApplicationAgent(StaticLoadView(busy=3, slots=4), cpu_cores=0)
        assert agent.estimated_cpu_load() == pytest.approx(3.0)

    def test_agent_tracks_live_scoreboard(self):
        view = _SettableLoadView(busy=0, slots=4)
        agent = ApplicationAgent(view)
        assert agent.busy_threads() == 0
        view.set_busy(3)
        assert agent.busy_threads() == 3


class TestStaticThresholdPolicy:
    def test_accepts_below_threshold(self):
        policy = StaticThresholdPolicy(4)
        agent = ApplicationAgent(StaticLoadView(busy=3, slots=32))
        assert policy.should_accept(agent) is True

    def test_refuses_at_threshold(self):
        policy = StaticThresholdPolicy(4)
        agent = ApplicationAgent(StaticLoadView(busy=4, slots=32))
        assert policy.should_accept(agent) is False

    def test_threshold_zero_never_accepts(self):
        policy = StaticThresholdPolicy(0)
        agent = ApplicationAgent(StaticLoadView(busy=0, slots=32))
        assert policy.should_accept(agent) is False

    def test_threshold_above_pool_always_accepts(self):
        policy = StaticThresholdPolicy(33)
        agent = ApplicationAgent(StaticLoadView(busy=32, slots=32))
        assert policy.should_accept(agent) is True

    def test_decisions_keep_no_state(self):
        """SRc is one comparison: an answer depends on the load alone,
        whatever was decided before."""
        policy = StaticThresholdPolicy(4)
        busy_agent = ApplicationAgent(StaticLoadView(busy=10, slots=32))
        idle_agent = ApplicationAgent(StaticLoadView(busy=0, slots=32))
        answers = [policy.should_accept(busy_agent), policy.should_accept(idle_agent)]
        assert answers == [False, True]
        assert [policy.should_accept(busy_agent), policy.should_accept(idle_agent)] == answers

    def test_negative_threshold_rejected(self):
        with pytest.raises(PolicyError):
            StaticThresholdPolicy(-1)

    def test_name(self):
        assert StaticThresholdPolicy(8).name == "SR8"


class TestDynamicThresholdPolicy:
    def test_threshold_increases_when_refusing_too_much(self):
        policy = DynamicThresholdPolicy(initial_threshold=1, window_size=10)
        busy_agent = ApplicationAgent(StaticLoadView(busy=20, slots=32))
        for _ in range(30):
            policy.should_accept(busy_agent)
        assert policy.threshold > 1

    def test_threshold_decreases_when_accepting_too_much(self):
        policy = DynamicThresholdPolicy(initial_threshold=8, window_size=10)
        idle_agent = ApplicationAgent(StaticLoadView(busy=0, slots=32))
        for _ in range(30):
            policy.should_accept(idle_agent)
        assert policy.threshold < 8

    def test_threshold_never_negative(self):
        policy = DynamicThresholdPolicy(initial_threshold=0, window_size=5)
        idle_agent = ApplicationAgent(StaticLoadView(busy=0, slots=32))
        for _ in range(50):
            policy.should_accept(idle_agent)
        assert policy.threshold >= 0

    def test_threshold_capped_at_pool_size(self):
        policy = DynamicThresholdPolicy(initial_threshold=3, window_size=5, max_threshold=4)
        busy_agent = ApplicationAgent(StaticLoadView(busy=32, slots=32))
        for _ in range(100):
            policy.should_accept(busy_agent)
        assert policy.threshold <= 4

    def test_balanced_acceptance_keeps_threshold(self):
        policy = DynamicThresholdPolicy(initial_threshold=4, window_size=10)
        low = ApplicationAgent(StaticLoadView(busy=0, slots=32))
        high = ApplicationAgent(StaticLoadView(busy=30, slots=32))
        # Alternate accept/refuse: the window ratio stays at 0.5, inside
        # the [0.4, 0.6] dead band, so the threshold must not move.
        for index in range(40):
            policy.should_accept(low if index % 2 == 0 else high)
        assert policy.threshold == 4

    def test_invalid_parameters_rejected(self):
        with pytest.raises(PolicyError):
            DynamicThresholdPolicy(window_size=0)
        with pytest.raises(PolicyError):
            DynamicThresholdPolicy(low_watermark=0.8, high_watermark=0.2)
        with pytest.raises(PolicyError):
            DynamicThresholdPolicy(initial_threshold=-1)


class TestTrivialPolicies:
    def test_always_accept(self):
        agent = ApplicationAgent(StaticLoadView(busy=32, slots=32))
        assert AlwaysAcceptPolicy().should_accept(agent) is True


class TestPolicyFactory:
    def test_make_srn_policies(self):
        policy = make_policy("SR4")
        assert isinstance(policy, StaticThresholdPolicy)
        assert policy.threshold == 4

    def test_make_srdyn(self):
        assert isinstance(make_policy("SRdyn"), DynamicThresholdPolicy)

    def test_make_trivial_policies(self):
        assert isinstance(make_policy("always"), AlwaysAcceptPolicy)

    def test_unknown_policy_rejected(self):
        with pytest.raises(PolicyError):
            make_policy("SRmagic")

    def test_register_custom_policy(self):
        register_policy("custom-test", lambda: StaticThresholdPolicy(7))
        policy = make_policy("custom-test")
        assert isinstance(policy, StaticThresholdPolicy)
        assert policy.threshold == 7
