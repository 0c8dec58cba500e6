"""End-to-end tests for the telemetry plane.

Pins the subsystem's three load-bearing promises on real testbeds:

* **Determinism** — a run with a probe attached is bit-identical to the
  same run without one (the probe only reads), including the decisions
  of the gray-failure watchdog and the autoscaler, and the payloads the
  run results carry home are equal across ``jobs`` worker processes;
* **The black box** — an SLO breach freezes a flight dump that
  round-trips through JSON;
* **Uniform counters** — every tier exposes the flat
  ``snapshot() -> {name: number}`` API the sampler is built on, and the
  chaos scenario's per-reason fault accounting stays internally
  consistent when streamed through it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.experiments.adversarial_experiment import (
    ADVERSARIAL_SCENARIO,
    HOUSEKEEPING_INTERVAL,
    _attach_gray_failure,
)
from repro.experiments.autoscale_experiment import AUTOSCALE_SCENARIO
from repro.experiments.chaos_experiment import (
    CHAOS_SCENARIO,
    fault_config_for,
    outcome_fingerprint,
)
from repro.experiments.config import TestbedConfig, sr_policy
from repro.experiments.platform import SETTLE_MARGIN, build_testbed
from repro.experiments.scenario import RunResult, ScenarioCell, run_scenario
from repro.net.faults import install_fault_channel
from repro.telemetry.probe import DEFAULT_WATCHED, SAMPLE_INTERVAL, attach_telemetry
from repro.workload.requests import Request
from repro.workload.trace import Trace


def _observed(config):
    """``config`` (a testbed config, or a family config's testbed) with
    the probe switched on."""
    if isinstance(config, TestbedConfig):
        return dataclasses.replace(config, telemetry=True)
    return dataclasses.replace(config, testbed=_observed(config.testbed))


def _burst_trace(count=40):
    """Overlapping fixed-demand requests: enough load to move gauges."""
    return Trace(
        [
            Request(
                request_id=1 + index,
                arrival_time=index * 0.01,
                service_demand=0.05,
                kind="php",
            )
            for index in range(count)
        ]
    )


class TestProbeLifecycle:
    def test_probe_attaches_only_when_the_config_asks(
        self, small_testbed_config, monkeypatch
    ):
        # The variable that once switched the probe on is not read.
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        plain = build_testbed(small_testbed_config, sr_policy(4))
        assert plain.telemetry is None
        assert plain.telemetry_payload() is None

    def test_build_testbed_attaches_and_starts_probe(self, small_testbed_config):
        testbed = build_testbed(_observed(small_testbed_config), sr_policy(4))
        assert testbed.telemetry is not None
        assert testbed.telemetry.active
        assert testbed.telemetry.interval == SAMPLE_INTERVAL
        # The traffic generator's cold-path events feed the black box.
        assert testbed.client.flight_recorder is testbed.telemetry.recorder

    def test_the_run_result_carries_the_payload(self, small_testbed_config, series_of):
        with build_testbed(_observed(small_testbed_config), sr_policy(4)) as testbed:
            duration = testbed.run_trace(_burst_trace())
            assert not testbed.telemetry.active  # stopped at the horizon
        payload = RunResult.of(testbed, duration).telemetry
        assert payload.meta["samples"] == testbed.telemetry.samples_taken > 0
        names = set(payload.names)
        assert set(DEFAULT_WATCHED) <= names
        assert {"lb.syn_dispatched", "client.syn_retransmits"} <= names
        assert "fabric.packets_delivered" in names
        times, values = series_of(payload, "server.busy_fraction")
        assert times.size == values.size > 0

    def test_a_second_attach_stops_the_first_probe(self):
        testbed = build_testbed(_observed(TestbedConfig(num_servers=4)), sr_policy(4))
        first = testbed.telemetry
        second = attach_telemetry(testbed)
        assert not first.active
        assert testbed.telemetry is second and second.active
        # The replaced probe no longer reschedules, so the run ends.
        testbed.run_trace(_burst_trace(50))
        assert not second.active
        assert first.samples_taken == 1
        assert testbed.telemetry_payload().meta["samples"] == second.samples_taken

    def test_the_probe_stops_at_the_horizon_with_a_final_sample(
        self, small_testbed_config, series_of
    ):
        trace = _burst_trace()
        testbed = build_testbed(_observed(small_testbed_config), sr_policy(4))
        end = testbed.run_trace(trace)
        probe = testbed.telemetry
        times, _values = series_of(probe.export_payload(), "server.busy_fraction")
        # One sample per interval up to the horizon, plus the final one
        # the stop takes there; nothing samples while the heap drains.
        horizon = trace.duration + SETTLE_MARGIN
        assert times[-1] == horizon <= end
        assert probe.samples_taken == len(times) == int(horizon / SAMPLE_INTERVAL) + 2


class TestRunResultsCarryThePayload:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_cell_brings_its_payload_home(self, jobs):
        config = _observed(
            dataclasses.replace(CHAOS_SCENARIO.smoke_config(), num_queries=100)
        )
        result = run_scenario("chaos", config, jobs=jobs)
        items = result.telemetry_items()
        assert [key for key, _payload in items] == list(config.modes)
        for key, payload in items:
            assert payload is result.run(key).telemetry
            assert payload.meta["run"] == f"chaos-{key}"
            assert payload.meta["samples"] > 0

    def test_a_run_without_telemetry_carries_none(self):
        config = dataclasses.replace(CHAOS_SCENARIO.smoke_config(), num_queries=100)
        result = run_scenario("chaos", config)
        assert result.telemetry_items() == []
        assert all(result.run(key).telemetry is None for key in config.modes)


class TestDeterminism:
    def test_run_outcome_bit_identical_with_probe_attached(self, small_testbed_config):
        plain = build_testbed(small_testbed_config, sr_policy(4))
        assert plain.telemetry is None  # the control run samples nothing
        plain.run_trace(_burst_trace())

        sampled = build_testbed(_observed(small_testbed_config), sr_policy(4))
        assert sampled.telemetry is not None
        sampled.run_trace(_burst_trace())

        assert outcome_fingerprint(sampled.collector) == outcome_fingerprint(
            plain.collector
        )
        assert sampled.collector.totals.completed == plain.collector.totals.completed

    def test_chaos_payloads_are_identical_across_jobs(self):
        config = _observed(
            dataclasses.replace(
                CHAOS_SCENARIO.smoke_config(),
                num_queries=200,
                modes=("baseline", "loss"),
            )
        )
        comparisons = {jobs: run_scenario("chaos", config, jobs=jobs) for jobs in (1, 2)}
        for mode in config.modes:
            assert outcome_fingerprint(
                comparisons[1].run(mode).collector
            ) == outcome_fingerprint(comparisons[2].run(mode).collector)
            serial = comparisons[1].run(mode).telemetry
            pooled = comparisons[2].run(mode).telemetry
            assert serial.names == pooled.names
            assert serial.kinds == pooled.kinds
            for index in range(len(serial.names)):
                np.testing.assert_array_equal(serial.times[index], pooled.times[index])
                np.testing.assert_array_equal(
                    serial.values[index], pooled.values[index]
                )
            assert serial.anomalies == pooled.anomalies


def _gray_failure_cell(telemetry):
    """adversarial ``gray-failure`` at its smoke config: the collector, the
    watchdog's quarantine events and the probe's payload."""
    config = ADVERSARIAL_SCENARIO.smoke_config()
    if telemetry:
        config = _observed(config)
    trace = ADVERSARIAL_SCENARIO.make_trace(config, ScenarioCell("gray-failure"))
    testbed = build_testbed(config.testbed, config.policy, run_name="adversarial-gray-failure")
    tier = testbed.lb_tier
    for instance in tier.instances:
        instance.start_housekeeping(HOUSEKEEPING_INTERVAL)
    testbed.at_horizon(lambda: [i.stop_housekeeping() for i in tier.instances])
    watchdog = _attach_gray_failure(testbed, config, trace)
    testbed.run_trace(trace)
    assert watchdog.quarantined == ("server-0",)
    return testbed.collector, watchdog.events, testbed.telemetry_payload()


def _reactive_cell(telemetry):
    """autoscale ``reactive`` at its smoke config: the collector, the
    monitor's samples with the capacity steps and scaling actions, and
    the probe's payload."""
    config = AUTOSCALE_SCENARIO.smoke_config()
    if telemetry:
        config = _observed(config)
    cell = ScenarioCell("reactive")
    run = AUTOSCALE_SCENARIO.run_once(
        config, cell, AUTOSCALE_SCENARIO.make_trace(config, cell)
    )
    assert run.monitor_series and run.capacity.scale_ups() > 0
    decisions = (run.monitor_series, run.capacity.series(), run.capacity.events)
    return run.collector, decisions, run.telemetry


@pytest.mark.parametrize(
    "run_cell,dump_reasons",
    [(_gray_failure_cell, ["quarantine:server-0"]), (_reactive_cell, [])],
    ids=["adversarial-gray-failure", "autoscale-reactive"],
)
def test_control_decisions_identical_with_telemetry_on_and_off(run_cell, dump_reasons):
    """The control loops read the same state whether or not a probe is
    attached, so their decisions and the run's outcomes are equal."""
    plain_collector, plain_decisions, no_payload = run_cell(telemetry=False)
    assert no_payload is None
    sampled_collector, sampled_decisions, payload = run_cell(telemetry=True)

    assert sampled_decisions == plain_decisions
    assert outcome_fingerprint(sampled_collector) == outcome_fingerprint(
        plain_collector
    )
    # Only a quarantine trips the black box.
    reasons = [dump["reason"] for dump in payload.meta["flight_dumps"]]
    assert reasons == dump_reasons


class TestFlightDump:
    def test_a_tripped_dump_rides_in_the_payload(self, small_testbed_config):
        testbed = build_testbed(_observed(small_testbed_config), sr_policy(4))
        probe = testbed.telemetry
        probe.recorder.record(0.0, "marker", "before-trip", 1.0)
        testbed.run_trace(_burst_trace())
        dump = probe.recorder.trip("manual", testbed.simulator.now, window=30.0)

        assert any(event.label == "before-trip" for event in dump.events)
        payload = probe.export_payload()
        assert payload.meta["flight_dumps"] == [dump.to_json_dict()]


class TestUniformSnapshotAPI:
    def test_every_tier_exposes_flat_numeric_counters(self):
        config = TestbedConfig(
            num_servers=4,
            workers_per_server=8,
            cores_per_server=2,
            backlog_capacity=16,
            num_load_balancers=2,
            telemetry=True,
        )
        testbed = build_testbed(config, sr_policy(4))
        testbed.run_trace(_burst_trace())

        snapshots = {
            "edge": testbed.lb_tier.router.stats.snapshot(),
            "fabric": testbed.fabric.stats.snapshot(),
        }
        for instance in testbed.load_balancers():
            snapshots[f"lb.{instance.name}"] = instance.stats.snapshot()
        for server in testbed.servers:
            snapshots[f"http.{server.name}"] = server.app.stats.snapshot()
        for tier, snapshot in snapshots.items():
            assert snapshot, tier
            for name, value in snapshot.items():
                assert isinstance(name, str), tier
                assert isinstance(value, (int, float)), f"{tier}.{name}"

    def test_counters_use_the_probe_series_names(self):
        config = TestbedConfig(
            num_servers=4,
            workers_per_server=8,
            cores_per_server=2,
            backlog_capacity=16,
            num_load_balancers=2,
            telemetry=True,
        )
        testbed = build_testbed(config, sr_policy(4))
        testbed.run_trace(_burst_trace())
        payload = testbed.telemetry.export_payload()
        streamed = {
            name
            for name, kind in zip(payload.names, payload.kinds)
            if kind == "counter"
        }
        assert {"edge.forward_packets", "lb.steering_misses"} <= streamed
        assert streamed <= set(testbed.counters())

    def test_the_series_cover_every_counter_and_the_three_gauges(self):
        """On a 2-LB tier under chaos loss every ``counters()`` entry is
        streamed under its own name, next to the three gauges."""
        config = _observed(CHAOS_SCENARIO.smoke_config())
        assert config.testbed.num_load_balancers == 2
        trace = _burst_trace()
        with build_testbed(config.testbed, sr_policy(4)) as testbed:
            testbed.fault_pipeline = install_fault_channel(
                testbed.simulator,
                testbed.fabric,
                fault_config_for(config, "loss", trace.duration),
            )
            testbed.run_trace(trace)
            payload = testbed.telemetry.export_payload()
            counters = testbed.counters()
        assert any(name.startswith("fault.") for name in counters)
        assert any(name.startswith("edge.") for name in counters)
        gauges = {"server.busy_fraction", "server.backlog_depth", "edge.spread"}
        assert set(payload.names) == set(counters) | gauges
        for name, values in zip(payload.names, payload.values):
            if name in counters:
                assert values[-1] == counters[name], name
