"""Regression tests for the adversarial scenario's resource hygiene.

A SYN flood is only interesting if the victim *recovers*: after the
attack flows' half-open connections time out and idle housekeeping
reclaims their flow-table entries, no server thread, connection record,
or steering entry may still be held by attack state.  And a gray
failure must be survivable mid-flow: quarantining the degraded server
goes through the same graceful drain as a scale-down, so established
connections complete without resets (the promise pinned for crash-style
churn in ``test_control_drain_midflow.py``).
"""

import pytest

from repro.errors import WorkloadError
from repro.experiments.adversarial_experiment import (
    ADVERSARIAL_SCENARIO,
    _attach_flood,
    _attach_gray_failure,
)
from repro.experiments.config import AdversarialConfig, TestbedConfig
from repro.experiments.platform import build_testbed
from repro.experiments.scenario import ScenarioCell


def _small_config(**overrides):
    defaults = dict(
        testbed=TestbedConfig(
            num_servers=4,
            workers_per_server=8,
            cores_per_server=2,
            backlog_capacity=16,
            num_load_balancers=2,
            flow_idle_timeout=5.0,
            request_timeout=2.0,
        ),
        num_queries=200,
        flood_sources=6,
        collision_flows=48,
        watchdog_interval=0.2,
        watchdog_consecutive=2,
    )
    defaults.update(overrides)
    return AdversarialConfig(**defaults)


def _trace(config):
    return ADVERSARIAL_SCENARIO.make_trace(config, ScenarioCell("baseline"))


def _testbed(config, mode):
    return build_testbed(config.testbed, config.policy, run_name=f"adversarial-{mode}")


def _run_mode(config, mode):
    """Run one attack mode like the spec's ``run_once`` but keep the
    testbed for post-mortem inspection."""
    trace = _trace(config)
    testbed = _testbed(config, mode)
    tier = testbed.lb_tier
    for instance in tier.instances:
        instance.start_housekeeping(config.housekeeping_interval)

    def stop_housekeeping():
        for instance in tier.instances:
            instance.stop_housekeeping()

    testbed.at_horizon(stop_housekeeping)
    attacker = watchdog = None
    if mode in ("syn-flood", "hash-collision"):
        attacker = _attach_flood(testbed, config, mode, trace)
    elif mode == "gray-failure":
        watchdog = _attach_gray_failure(testbed, config, trace)
    testbed.run_trace(trace)
    return testbed, trace, attacker, watchdog


@pytest.mark.parametrize("mode", ["syn-flood", "hash-collision"])
def test_flood_leaks_no_flow_table_or_server_state(mode):
    config = _small_config()
    testbed, trace, attacker, _ = _run_mode(config, mode)
    assert attacker.syns_sent > 0

    # Every half-open attack connection timed out by the horizon: no
    # worker is still pinned and no connection record survives.
    for server in testbed.servers:
        assert server.app.busy_threads == 0
        assert server.app.open_connections == 0
        assert server.app.scoreboard.busy_count == 0
        assert server.app.backlog.depth == 0
    assert sum(
        server.app.stats.connections_timed_out for server in testbed.servers
    ) > 0

    # Accepted attack connections did install flow-table entries on top
    # of the completed legit flows (colliding flows reuse 5-tuples, so
    # entries dedupe; strictly more than the legit count is the bound).
    tier = testbed.lb_tier
    created = sum(
        instance.flow_table.stats.entries_created for instance in tier.instances
    )
    assert created > testbed.collector.totals.completed

    # ...but one idle-timeout later every entry is reclaimable: nothing
    # the attack created is pinned forever.
    deadline = testbed.simulator.now + config.testbed.flow_idle_timeout + 1.0
    for instance in tier.instances:
        instance.flow_table.expire_idle(deadline)
        assert len(instance.flow_table) == 0
        stats = instance.flow_table.stats
        assert stats.entries_created == stats.entries_expired + stats.entries_evicted


def test_housekeeping_reclaims_attack_entries_in_run():
    # In-run idle housekeeping (not just the post-mortem sweep above)
    # must already have expired attack entries: the attack window ends
    # well before the horizon, so their idle timers lapse in-run.
    config = _small_config()
    testbed, _, _, _ = _run_mode(config, "syn-flood")
    expired = sum(
        instance.flow_table.stats.entries_expired
        for instance in testbed.lb_tier.instances
    )
    assert expired > 0


def test_gray_failure_quarantine_drains_mid_flow_without_resets():
    # The scenario's smoke config: its trace is long enough for the
    # watchdog's consecutive-strike detection to fit inside the
    # degradation window (the golden fingerprints pin the same run).
    config = ADVERSARIAL_SCENARIO.smoke_config()
    trace = _trace(config)
    testbed = _testbed(config, "gray-failure")
    victim = testbed.servers[0]
    tier = testbed.lb_tier
    for instance in tier.instances:
        instance.start_housekeeping(config.housekeeping_interval)
    testbed.at_horizon(
        lambda: [i.stop_housekeeping() for i in tier.instances]
    )
    watchdog = _attach_gray_failure(testbed, config, trace)
    testbed.run_trace(trace)

    # The watchdog quarantined exactly the degraded server...
    assert watchdog.quarantined == ("server-0",)
    assert len(watchdog.events) == 1
    event = watchdog.events[0]
    assert event.server == "server-0"
    assert event.time >= trace.duration * config.attack_start_fraction

    # ...which went through a *graceful* drain: it is quiescent, its
    # replacement is active, and no connection anywhere was reset.
    assert victim.draining
    assert victim.quiescent
    assert victim.app.open_connections == 0
    # The victim left every backend pool, and its replacement joined
    # them, so the *serving* fleet is back at full strength.
    for instance in tier.instances:
        backends = instance.backends_for(testbed.vip)
        assert victim.primary_address not in backends
        assert len(backends) == config.testbed.num_servers
    assert testbed.counters()["server.connections_reset"] == 0
    assert sum(server.stray_data_resets for server in testbed.servers) == 0

    # Legitimate traffic survived lossless.
    assert testbed.collector.totals.failed == 0
    assert testbed.collector.totals.completed == config.num_queries
    assert testbed.client.in_flight == 0


def test_retire_server_refuses_a_second_drain():
    config = _small_config()
    testbed = _testbed(config, "baseline")
    victim = testbed.servers[0]
    pools_before = {
        instance.name: list(instance.backends_for(testbed.vip))
        for instance in testbed.lb_tier.instances
    }
    testbed.retire_server(victim)
    assert victim.draining
    with pytest.raises(WorkloadError, match="already draining"):
        testbed.retire_server(victim)
    # The refused second drain changed nothing: the pools lost the
    # victim exactly once and kept everyone else.
    for instance in testbed.lb_tier.instances:
        got = list(instance.backends_for(testbed.vip))
        expected = [
            address
            for address in pools_before[instance.name]
            if address != victim.primary_address
        ]
        assert got == expected
