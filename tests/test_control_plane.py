"""Unit tests for the elastic control plane (:mod:`repro.control`).

Covers the fleet monitor's sampling/smoothing, both scaling policies,
the server lifecycle state machine (provisioning delay, warm-up speed,
graceful drain, capacity accounting), the autoscaler's bounds and
cooldowns, and the mid-run CPU speed change the warm-up relies on.
"""

import pickle
from types import SimpleNamespace

import pytest

from repro.control.autoscaler import Autoscaler
from repro.control.lifecycle import ServerLifecycle, ServerState
from repro.control.monitor import FleetMonitor, FleetSample
from repro.control.policy import (
    PredictiveEwmaPolicy,
    ReactiveThresholdPolicy,
    ScalingPolicy,
    make_scaling_policy,
)
from repro.errors import ExperimentError, ReproError
from repro.experiments.config import TestbedConfig, rr_policy
from repro.experiments.platform import build_testbed
from repro.metrics.capacity import CapacityTracker
from repro.server.cpu import FIFOCPU, ProcessorSharingCPU
from repro.sim.engine import Simulator


def _busy_fraction_series(monitor):
    """``(time, smoothed busy fraction)`` per sample, as a figure plots it."""
    return [(sample.time, sample.smoothed_busy_fraction) for sample in monitor.samples()]


def _sample(time=0.0, smoothed=0.5, servers=4, workers=32):
    return FleetSample(
        time=time,
        serving_servers=servers,
        busy_threads=int(smoothed * workers),
        total_workers=workers,
        backlog_depth=0,
        busy_fraction=smoothed,
        smoothed_busy_fraction=smoothed,
    )


def _stub_server(busy=4, workers=8, backlog=0):
    # What repro.server.fleet_load reads: the scoreboard and the backlog.
    return SimpleNamespace(
        app=SimpleNamespace(
            scoreboard=SimpleNamespace(busy_count=busy, num_slots=workers),
            backlog=SimpleNamespace(depth=backlog),
        ),
    )


def _small_testbed(num_servers=2, policy=None):
    config = TestbedConfig(
        num_servers=num_servers, workers_per_server=4, backlog_capacity=8
    )
    return build_testbed(config, policy or rr_policy())


class TestFleetMonitor:
    def test_observe_aggregates_the_serving_fleet(self):
        monitor = FleetMonitor()
        sample = monitor.observe(
            1.0, [_stub_server(busy=2, backlog=3), _stub_server(busy=6, backlog=1)]
        )
        assert sample.serving_servers == 2
        assert sample.busy_threads == 8
        assert sample.total_workers == 16
        assert sample.backlog_depth == 4
        assert sample.busy_fraction == pytest.approx(0.5)
        # First sample: the EWMA starts at the raw value.
        assert sample.smoothed_busy_fraction == pytest.approx(0.5)

    def test_smoothing_lags_a_step_change(self):
        monitor = FleetMonitor(time_constant=5.0)
        monitor.observe(0.0, [_stub_server(busy=0)])
        sample = monitor.observe(1.0, [_stub_server(busy=8)])
        assert 0.0 < sample.smoothed_busy_fraction < sample.busy_fraction

    def test_empty_fleet_yields_zero_fraction(self):
        monitor = FleetMonitor()
        sample = monitor.observe(0.0, [])
        assert sample.busy_fraction == 0.0
        assert sample.total_workers == 0

    def test_series(self):
        monitor = FleetMonitor()
        monitor.observe(0.0, [_stub_server()])
        monitor.observe(1.0, [_stub_server()])
        assert len(monitor) == 2
        assert monitor.samples()[-1].time == 1.0
        assert [time for time, _ in _busy_fraction_series(monitor)] == [0.0, 1.0]


class TestReactivePolicy:
    def test_threshold_band(self):
        policy = ReactiveThresholdPolicy(low=0.2, high=0.6)
        assert policy.desired_step(_sample(smoothed=0.7)) == 1
        assert policy.desired_step(_sample(smoothed=0.4)) == 0
        assert policy.desired_step(_sample(smoothed=0.1)) == -1

    def test_watermark_validation(self):
        with pytest.raises(ReproError):
            ReactiveThresholdPolicy(low=0.6, high=0.4)
        with pytest.raises(ReproError):
            ReactiveThresholdPolicy(low=-0.1, high=0.5)


class TestPredictivePolicy:
    def test_rising_ramp_triggers_before_the_threshold(self):
        policy = PredictiveEwmaPolicy(
            low=0.2, high=0.6, horizon=10.0, slope_time_constant=1.0
        )
        # Climbing 0.02/s from 0.4: the instantaneous signal stays below
        # high for ten more seconds, but the forecast crosses it.
        steps = [
            policy.desired_step(_sample(time=t, smoothed=0.4 + 0.02 * t))
            for t in range(0, 6)
        ]
        assert steps[0] == 0  # no slope estimate yet
        assert 1 in steps
        assert all(s >= 0 for s in steps)

    def test_falling_signal_scales_down(self):
        policy = PredictiveEwmaPolicy(low=0.3, high=0.7, horizon=5.0)
        steps = [
            policy.desired_step(_sample(time=t, smoothed=0.5 - 0.04 * t))
            for t in range(0, 8)
        ]
        assert -1 in steps


class TestPolicyFactory:
    def test_known_names(self):
        assert isinstance(make_scaling_policy("reactive"), ReactiveThresholdPolicy)
        assert isinstance(make_scaling_policy("predictive"), PredictiveEwmaPolicy)

    def test_unknown_name_is_loud(self):
        with pytest.raises(ReproError, match="unknown scaling policy"):
            make_scaling_policy("psychic")


class TestTestbedElasticHooks:
    def test_add_server_joins_every_layer(self):
        testbed = _small_testbed(num_servers=2)
        server = testbed.add_server()
        assert server.name == "server-2"
        assert len(testbed.servers) == 3
        assert server.primary_address in testbed.load_balancer.backends_for(
            testbed.vip
        )
        # A second addition keeps numbering and addressing sequential.
        another = testbed.add_server()
        assert another.name == "server-3"
        assert another.primary_address.value == server.primary_address.value + 1

    def test_retire_server_leaves_the_pool_and_starts_draining(self):
        testbed = _small_testbed(num_servers=3)
        victim = testbed.servers[-1]
        testbed.retire_server(victim)
        assert victim.draining
        assert victim.primary_address not in testbed.load_balancer.backends_for(
            testbed.vip
        )

    def test_tier_deployment_propagates_backend_changes(self):
        config = TestbedConfig(
            num_servers=3, workers_per_server=4, num_load_balancers=2
        )
        testbed = build_testbed(config, rr_policy())
        server = testbed.add_server()
        for instance in testbed.lb_tier.instances:
            assert server.primary_address in instance.backends_for(testbed.vip)
        testbed.retire_server(server)
        for instance in testbed.lb_tier.instances:
            assert server.primary_address not in instance.backends_for(testbed.vip)


class TestServerLifecycle:
    def test_adopts_the_initial_fleet_as_active(self):
        testbed = _small_testbed(num_servers=2)
        lifecycle = ServerLifecycle(testbed)
        assert lifecycle.committed_count() == 2
        assert len(lifecycle.serving_nodes()) == 2
        assert lifecycle.provisioned_capacity() == pytest.approx(
            2 * testbed.config.cores_per_server
        )

    def test_provision_walks_through_warming_to_active(self):
        testbed = _small_testbed(num_servers=1)
        lifecycle = ServerLifecycle(
            testbed, provisioning_delay=2.0, warmup_duration=3.0, warmup_speed=0.5
        )
        record = lifecycle.provision()
        assert record.state is ServerState.PROVISIONING
        assert lifecycle.committed_count() == 2
        assert len(lifecycle.serving_nodes()) == 1  # not online yet

        testbed.simulator.run(until=2.5)
        assert record.state is ServerState.WARMING
        assert record.node is not None
        assert record.node.app.cpu.speed == pytest.approx(0.5)
        assert len(lifecycle.serving_nodes()) == 2

        testbed.simulator.run(until=5.5)
        assert record.state is ServerState.ACTIVE
        assert record.node.app.cpu.speed == pytest.approx(1.0)

    def test_zero_warmup_goes_straight_to_active(self):
        testbed = _small_testbed(num_servers=1)
        lifecycle = ServerLifecycle(
            testbed, provisioning_delay=1.0, warmup_duration=0.0
        )
        record = lifecycle.provision()
        testbed.simulator.run(until=1.5)
        assert record.state is ServerState.ACTIVE
        assert record.node.app.cpu.speed == pytest.approx(1.0)

    def test_drain_of_an_idle_server_detaches_after_one_grace_interval(self):
        # Even an idle server waits one check interval before detaching:
        # a candidate list naming it may still be in flight.
        testbed = _small_testbed(num_servers=2)
        lifecycle = ServerLifecycle(testbed, drain_check_interval=0.5)
        record = lifecycle.drainable()[0]
        lifecycle.drain(record)
        assert record.state is ServerState.DRAINING
        testbed.simulator.run(until=0.6)
        assert record.state is ServerState.DETACHED
        assert lifecycle.capacity.drain_durations == [0.5]
        assert lifecycle.provisioned_capacity() == pytest.approx(
            testbed.config.cores_per_server
        )

    def test_refused_drain_leaves_the_record_retryable(self):
        # Retiring the only pool member is refused by the LB layer; the
        # record must stay ACTIVE (not stuck in DRAINING) so the drain
        # can be retried once the fleet has grown again.
        testbed = _small_testbed(num_servers=1)
        lifecycle = ServerLifecycle(
            testbed, provisioning_delay=1.0, warmup_duration=0.0
        )
        record = lifecycle.drainable()[0]
        with pytest.raises(Exception):
            lifecycle.drain(record)
        assert record.state is ServerState.ACTIVE
        assert record.drain_started_at is None
        assert lifecycle.committed_count() == 1
        lifecycle.provision()
        testbed.simulator.run(until=1.5)
        lifecycle.drain(record)  # retry succeeds with a second pool member
        assert record.state is ServerState.DRAINING

    def test_drain_rejects_non_serving_records(self):
        testbed = _small_testbed(num_servers=2)
        lifecycle = ServerLifecycle(testbed)
        record = lifecycle.drainable()[0]
        lifecycle.drain(record)
        with pytest.raises(ExperimentError):
            lifecycle.drain(record)

    def test_capacity_seconds_integrates_the_step_function(self):
        testbed = _small_testbed(num_servers=2)
        lifecycle = ServerLifecycle(
            testbed, provisioning_delay=5.0, warmup_duration=0.0
        )
        cores = testbed.config.cores_per_server
        lifecycle.provision()  # paid from t=0 even while booting
        testbed.simulator.run(until=10.0)
        assert lifecycle.capacity.capacity_seconds(through=10.0) == pytest.approx(
            3 * cores * 10.0
        )


class _ScriptedPolicy(ScalingPolicy):
    """Deterministic step sequence for autoscaler unit tests."""

    name = "scripted"

    def __init__(self, steps):
        self._steps = list(steps)

    def desired_step(self, sample):
        return self._steps.pop(0) if self._steps else 0


class TestAutoscaler:
    def _scaler(self, testbed, steps, **kwargs):
        lifecycle = ServerLifecycle(
            testbed, provisioning_delay=0.5, warmup_duration=0.0
        )
        return Autoscaler(
            lifecycle=lifecycle,
            monitor=FleetMonitor(),
            policy=_ScriptedPolicy(steps),
            min_servers=kwargs.pop("min_servers", 1),
            max_servers=kwargs.pop("max_servers", 4),
            interval=1.0,
            **kwargs,
        )

    def test_bounds_suppress_out_of_range_actions(self):
        testbed = _small_testbed(num_servers=1)
        scaler = self._scaler(
            testbed, [-1, 1], min_servers=1, max_servers=1,
            scale_up_cooldown=0.0, scale_down_cooldown=0.0,
        )
        scaler.start(first_delay=0.0)
        testbed.simulator.run(until=2.5)
        scaler.stop()
        assert scaler.suppressed_actions == 2
        assert scaler.lifecycle.committed_count() == 1
        assert scaler.lifecycle.capacity.events == []

    def test_scale_down_waits_for_the_provisioned_server_to_serve(self):
        # committed=2 (one ACTIVE + one still PROVISIONING) clears the
        # min bound, but draining the only *serving* server would empty
        # every backend pool — the autoscaler must suppress the action,
        # not crash the run with a LoadBalancerError.
        testbed = _small_testbed(num_servers=1)
        lifecycle = ServerLifecycle(
            testbed, provisioning_delay=10.0, warmup_duration=0.0
        )
        scaler = Autoscaler(
            lifecycle=lifecycle,
            monitor=FleetMonitor(),
            policy=_ScriptedPolicy([1, -1, -1]),
            min_servers=1,
            max_servers=4,
            interval=1.0,
            scale_up_cooldown=0.0,
            scale_down_cooldown=0.0,
        )
        scaler.start(first_delay=0.0)
        testbed.simulator.run(until=3.5)
        scaler.stop()
        assert scaler.lifecycle.capacity.scale_downs() == 0
        assert scaler.suppressed_actions == 2
        assert testbed.load_balancer.backends_for(testbed.vip)  # pool intact

    def test_scale_down_keeps_the_serving_pool_at_min_servers(self):
        # committed=3 (two ACTIVE + one PROVISIONING) clears the min=2
        # bound, but a drain now would leave only one *serving* server —
        # below the floor that keeps candidate selection satisfiable.
        testbed = _small_testbed(num_servers=2)
        lifecycle = ServerLifecycle(
            testbed, provisioning_delay=10.0, warmup_duration=0.0
        )
        lifecycle.provision()
        scaler = Autoscaler(
            lifecycle=lifecycle,
            monitor=FleetMonitor(),
            policy=_ScriptedPolicy([-1]),
            min_servers=2,
            max_servers=4,
            interval=1.0,
            scale_up_cooldown=0.0,
            scale_down_cooldown=0.0,
        )
        scaler.start(first_delay=0.0)
        testbed.simulator.run(until=1.0)
        scaler.stop()
        assert scaler.lifecycle.capacity.scale_downs() == 0
        assert scaler.suppressed_actions == 1
        assert len(lifecycle.serving_nodes()) == 2

    def test_add_server_refuses_while_a_load_sampler_is_attached(self):
        from repro.errors import WorkloadError

        testbed = _small_testbed(num_servers=2)
        testbed.attach_load_sampler(interval=0.5)
        with pytest.raises(WorkloadError, match="load sampler"):
            testbed.add_server()
        testbed.stop_load_sampler()
        assert testbed.add_server().name == "server-2"

    def test_scale_up_cooldown_spaces_actions(self):
        testbed = _small_testbed(num_servers=1)
        scaler = self._scaler(
            testbed, [1, 1, 1], scale_up_cooldown=2.5, scale_down_cooldown=2.5
        )
        scaler.start(first_delay=0.0)
        testbed.simulator.run(until=2.5)
        scaler.stop()
        # Ticks at t=0, 1, 2: the first scales up, the next two sit
        # inside the cooldown window.
        assert scaler.lifecycle.capacity.scale_ups() == 1
        assert scaler.suppressed_actions == 2

    def test_scale_down_drains_the_newest_server(self):
        testbed = _small_testbed(num_servers=3)
        scaler = self._scaler(
            testbed, [-1], scale_up_cooldown=0.0, scale_down_cooldown=0.0
        )
        scaler.start(first_delay=0.0)
        testbed.simulator.run(until=1.0)
        scaler.stop()
        assert scaler.lifecycle.capacity.scale_downs() == 1
        [event] = scaler.lifecycle.capacity.events
        assert event.action == "scale-down"
        assert (event.servers_before, event.servers_after) == (3, 2)
        assert testbed.servers[-1].draining

    def test_stop_is_idempotent_and_restartable(self):
        testbed = _small_testbed(num_servers=1)
        scaler = self._scaler(testbed, [])
        scaler.start()
        assert scaler.active
        scaler.stop()
        scaler.stop()
        assert not scaler.active
        scaler.start()
        assert scaler.active
        scaler.stop()

    def test_bad_bounds_are_rejected(self):
        testbed = _small_testbed(num_servers=1)
        lifecycle = ServerLifecycle(testbed)
        with pytest.raises(ExperimentError):
            Autoscaler(
                lifecycle=lifecycle,
                monitor=FleetMonitor(),
                policy=_ScriptedPolicy([]),
                min_servers=3,
                max_servers=2,
            )


class TestCpuSetSpeed:
    def test_processor_sharing_replans_the_completion(self):
        simulator = Simulator(seed=1)
        cpu = ProcessorSharingCPU(simulator, num_cores=1)
        done = []
        cpu.add_job(1, 1.0, lambda job_id: done.append(simulator.now))
        simulator.schedule_at(0.5, lambda: cpu.set_speed(2.0))
        simulator.run()
        # Half the demand at speed 1 (0.5 s), the rest at speed 2 (0.25 s).
        assert done == [pytest.approx(0.75)]

    def test_fifo_replans_running_jobs(self):
        simulator = Simulator(seed=1)
        cpu = FIFOCPU(simulator, num_cores=1)
        done = []
        cpu.add_job(1, 1.0, lambda job_id: done.append(simulator.now))
        simulator.schedule_at(0.5, lambda: cpu.set_speed(0.5))
        simulator.run()
        # Half the demand at speed 1, the remaining 0.5 s demand at half
        # speed takes 1.0 s more.
        assert done == [pytest.approx(1.5)]

    def test_rejects_non_positive_speed(self):
        simulator = Simulator(seed=1)
        cpu = ProcessorSharingCPU(simulator, num_cores=1)
        with pytest.raises(Exception):
            cpu.set_speed(0.0)


class TestCapacityTracker:
    def test_integral_of_a_step_function(self):
        tracker = CapacityTracker(start_time=0.0, capacity=4.0)
        tracker.record(10.0, 6.0)
        tracker.record(20.0, 2.0)
        assert tracker.capacity_seconds(through=30.0) == pytest.approx(
            4 * 10 + 6 * 10 + 2 * 10
        )
        assert tracker.mean_capacity(through=30.0) == pytest.approx(4.0)

    def test_horizon_may_cut_a_step_short(self):
        tracker = CapacityTracker(start_time=0.0, capacity=4.0)
        tracker.record(10.0, 8.0)
        assert tracker.capacity_seconds(through=15.0) == pytest.approx(
            4 * 10 + 8 * 5
        )

    def test_same_instant_correction_overwrites(self):
        tracker = CapacityTracker(start_time=0.0, capacity=4.0)
        tracker.record(5.0, 6.0)
        tracker.record(5.0, 8.0)
        assert tracker.series() == [(0.0, 4.0), (5.0, 8.0)]

    def test_unchanged_capacity_is_not_recorded(self):
        tracker = CapacityTracker(start_time=0.0, capacity=4.0)
        tracker.record(5.0, 4.0)
        assert tracker.series() == [(0.0, 4.0)]

    def test_time_ordering_enforced(self):
        tracker = CapacityTracker(start_time=5.0, capacity=1.0)
        with pytest.raises(ReproError):
            tracker.record(4.0, 2.0)
        with pytest.raises(ReproError):
            tracker.capacity_seconds(through=4.0)

    def test_time_ordering_survives_deduplicated_records(self):
        # A no-op record (unchanged capacity) still advances the time
        # watermark, so a later out-of-order record is caught instead of
        # slipping past the last *recorded* step.
        tracker = CapacityTracker(start_time=0.0, capacity=3.0)
        tracker.record(10.0, 3.0)  # deduplicated, but time was seen
        with pytest.raises(ReproError):
            tracker.record(5.0, 2.0)

    def test_payload_roundtrip(self):
        tracker = CapacityTracker(start_time=0.0, capacity=4.0)
        tracker.record(10.0, 6.0)
        tracker.record_drain(1.5)
        rebuilt = pickle.loads(pickle.dumps(tracker))
        assert rebuilt.series() == tracker.series()
        assert rebuilt.drain_durations == [1.5]
        assert rebuilt.capacity_seconds(through=20.0) == pytest.approx(
            tracker.capacity_seconds(through=20.0)
        )
