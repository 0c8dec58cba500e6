"""End-to-end tests for the telemetry plane.

Pins the subsystem's three load-bearing promises on real testbeds:

* **Determinism** — a run with a probe attached is bit-identical to the
  same run without one (the probe only reads), including when the
  gray-failure watchdog consumes its busy counts *through* the bus and
  when per-cell payloads merge across ``jobs`` worker processes;
* **The black box** — an SLO breach freezes a flight dump that
  round-trips through JSON;
* **Uniform counters** — every tier exposes the flat
  ``snapshot() -> {name: number}`` API the sampler is built on, and the
  chaos scenario's per-reason fault accounting stays internally
  consistent when streamed through it.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing

import numpy as np
import pytest

from repro.cli import main
from repro.errors import TelemetryError
from repro.experiments.adversarial_experiment import (
    ADVERSARIAL_SCENARIO,
    HOUSEKEEPING_INTERVAL,
    _attach_gray_failure,
)
from repro.experiments.chaos_experiment import CHAOS_SCENARIO, outcome_fingerprint
from repro.experiments.config import TestbedConfig, sr_policy
from repro.experiments.platform import build_testbed
from repro.experiments.scenario import ScenarioCell, run_scenario
from repro.telemetry import runtime
from repro.telemetry.probe import DEFAULT_WATCHED
from repro.telemetry.recorder import FlightDump
from repro.workload.requests import Request
from repro.workload.trace import Trace


@pytest.fixture
def telemetry_on():
    """Enable telemetry for one test, restoring a clean runtime after."""
    already = runtime.telemetry_enabled()
    runtime.enable()
    runtime.drain()
    yield
    if not already:
        runtime.disable()
    runtime.drain()
    runtime.set_last_report(None)


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
    def test_probe_attaches_only_when_enabled(self, small_testbed_config):
        plain = build_testbed(small_testbed_config, sr_policy(4))
        assert plain.telemetry is None

    def test_build_testbed_attaches_and_starts_probe(
        self, small_testbed_config, telemetry_on
    ):
        testbed = build_testbed(small_testbed_config, sr_policy(4))
        assert testbed.telemetry is not None
        assert testbed.telemetry.active
        # The traffic generator's cold-path events feed the black box.
        assert testbed.client.flight_recorder is testbed.telemetry.recorder

    def test_run_trace_publishes_one_payload(
        self, small_testbed_config, telemetry_on
    ):
        testbed = build_testbed(small_testbed_config, sr_policy(4))
        testbed.run_trace(_burst_trace())
        assert not testbed.telemetry.active  # stopped at the horizon
        published = runtime.drain()
        assert len(published) == 1
        _name, payload = published[0]
        assert payload.meta["samples"] == testbed.telemetry.samples_taken > 0
        names = set(payload.names)
        assert set(DEFAULT_WATCHED) <= names
        assert {"lb.syn_dispatched", "client.syn_retransmits"} <= names
        assert "fabric.packets_delivered" in names
        times, values = payload.series("server.busy_fraction")
        assert times.size == values.size > 0


class TestEnvironmentKnobs:
    """``REPRO_TELEMETRY_INTERVAL`` / ``_CAPACITY``: unset and empty mean
    the default, a usable value is used, anything else fails loudly."""

    @pytest.mark.parametrize("raw", [None, ""])
    def test_unset_or_empty_means_the_default(self, monkeypatch, raw):
        for name in (runtime.ENV_INTERVAL, runtime.ENV_CAPACITY):
            if raw is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, raw)
        assert runtime.sampling_interval() == runtime.DEFAULT_INTERVAL
        assert runtime.ring_capacity() is None

    def test_usable_values_are_used(self, monkeypatch):
        monkeypatch.setenv(runtime.ENV_INTERVAL, "0.5")
        monkeypatch.setenv(runtime.ENV_CAPACITY, "128")
        assert runtime.sampling_interval() == 0.5
        assert runtime.ring_capacity() == 128

    @pytest.mark.parametrize("raw", ["abc", "-1", "0", "nan", "inf", " "])
    def test_bad_interval_names_the_variable_and_the_value(self, monkeypatch, raw):
        monkeypatch.setenv(runtime.ENV_INTERVAL, raw)
        with pytest.raises(TelemetryError, match=f"^REPRO_TELEMETRY_INTERVAL={raw}:"):
            runtime.sampling_interval()

    @pytest.mark.parametrize("raw", ["abc", "0", "-5", "1.5", " "])
    def test_bad_capacity_names_the_variable_and_the_value(self, monkeypatch, raw):
        monkeypatch.setenv(runtime.ENV_CAPACITY, raw)
        with pytest.raises(TelemetryError, match=f"^REPRO_TELEMETRY_CAPACITY={raw}:"):
            runtime.ring_capacity()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "name,raw",
        [(runtime.ENV_INTERVAL, "inf"), (runtime.ENV_CAPACITY, "abc")],
    )
    def test_cli_prints_one_error_line_and_exits_2(
        self, monkeypatch, capsys, telemetry_on, jobs, name, raw
    ):
        monkeypatch.setenv(name, raw)
        fan_outs = []
        monkeypatch.setattr(multiprocessing, "get_context", fan_outs.append)
        argv = ["poisson", "--servers", "4", "--workers", "8", "--queries", "50"]
        status = main(argv + ["--rho", "0.5", "--jobs", jobs])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {name}={raw}:")
        # A usage error of the whole run: no worker process was started for it.
        assert fan_outs == []


class TestDeterminism:
    def test_run_outcome_bit_identical_with_probe_attached(
        self, small_testbed_config, telemetry_on
    ):
        runtime.disable()
        plain = build_testbed(small_testbed_config, sr_policy(4))
        assert plain.telemetry is None  # the control run samples nothing
        plain.run_trace(_burst_trace())

        runtime.enable()
        sampled = build_testbed(small_testbed_config, sr_policy(4))
        assert sampled.telemetry is not None
        sampled.run_trace(_burst_trace())

        assert outcome_fingerprint(sampled.collector) == outcome_fingerprint(
            plain.collector
        )
        assert sampled.collector.totals.completed == plain.collector.totals.completed

    def test_chaos_report_merges_identically_across_jobs(self, telemetry_on):
        config = dataclasses.replace(
            CHAOS_SCENARIO.smoke_config(),
            num_queries=200,
            modes=("baseline", "loss"),
        )
        reports = {}
        comparisons = {}
        for jobs in (1, 2):
            comparisons[jobs] = run_scenario("chaos", config, jobs=jobs)
            reports[jobs] = runtime.last_report()
            runtime.drain()
        for mode in config.modes:
            assert outcome_fingerprint(
                comparisons[1].run(mode).collector
            ) == outcome_fingerprint(comparisons[2].run(mode).collector)
            serial, pooled = reports[1].payload(mode), reports[2].payload(mode)
            assert serial.names == pooled.names
            assert serial.kinds == pooled.kinds
            for index in range(len(serial.names)):
                np.testing.assert_array_equal(serial.times[index], pooled.times[index])
                np.testing.assert_array_equal(
                    serial.values[index], pooled.values[index]
                )
            assert serial.anomalies == pooled.anomalies


def _run_gray_failure(config):
    """One gray-failure run, regression-test style (keeps the testbed)."""
    trace = ADVERSARIAL_SCENARIO.make_trace(config, ScenarioCell("gray-failure"))
    testbed = build_testbed(config.testbed, config.policy, run_name="adversarial-gray-failure")
    tier = testbed.lb_tier
    for instance in tier.instances:
        instance.start_housekeeping(HOUSEKEEPING_INTERVAL)
    testbed.at_horizon(lambda: [i.stop_housekeeping() for i in tier.instances])
    watchdog = _attach_gray_failure(testbed, config, trace)
    testbed.run_trace(trace)
    return testbed, watchdog


class TestWatchdogOverTelemetry:
    def test_quarantine_decisions_identical_through_the_bus(self, telemetry_on):
        """The watchdog fed from telemetry series reproduces the direct
        scoreboard-fed decisions bit-for-bit."""
        config = ADVERSARIAL_SCENARIO.smoke_config()

        runtime.disable()
        plain_testbed, plain_watchdog = _run_gray_failure(config)
        runtime.enable()
        fed_testbed, fed_watchdog = _run_gray_failure(config)

        assert fed_watchdog.quarantined == plain_watchdog.quarantined == ("server-0",)
        assert [
            (event.server, event.time) for event in fed_watchdog.events
        ] == [(event.server, event.time) for event in plain_watchdog.events]
        assert outcome_fingerprint(fed_testbed.collector) == outcome_fingerprint(
            plain_testbed.collector
        )

        # The fed run's inputs really went through the bus, and the
        # quarantine tripped a black-box dump.
        probe = fed_testbed.telemetry
        assert "watchdog.busy.server-0" in probe.bus
        reasons = [dump.reason for dump in probe.recorder.dumps]
        assert "quarantine:server-0" in reasons


class TestFlightDump:
    def test_a_tripped_dump_rides_in_the_published_payload(
        self, small_testbed_config, telemetry_on
    ):
        testbed = build_testbed(small_testbed_config, sr_policy(4))
        probe = testbed.telemetry
        probe.recorder.record(0.0, "marker", "before-trip", 1.0)
        testbed.run_trace(_burst_trace())
        dump = probe.recorder.trip("manual", testbed.simulator.now, window=30.0)

        assert any(event.label == "before-trip" for event in dump.events)
        clone = FlightDump.from_json_dict(json.loads(json.dumps(dump.to_json_dict())))
        assert clone == dump
        payload = probe.export_payload()
        assert payload.meta["flight_dumps"] == [dump.to_json_dict()]


class TestUniformSnapshotAPI:
    def test_every_tier_exposes_flat_numeric_counters(self, telemetry_on):
        config = TestbedConfig(
            num_servers=4,
            workers_per_server=8,
            cores_per_server=2,
            backlog_capacity=16,
            num_load_balancers=2,
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
            snapshots[f"board.{server.name}"] = server.app.scoreboard.snapshot()
        for tier, snapshot in snapshots.items():
            assert snapshot, tier
            for name, value in snapshot.items():
                assert isinstance(name, str), tier
                assert isinstance(value, (int, float)), f"{tier}.{name}"

    def test_counters_use_the_probe_series_names(self, telemetry_on):
        config = TestbedConfig(
            num_servers=4,
            workers_per_server=8,
            cores_per_server=2,
            backlog_capacity=16,
            num_load_balancers=2,
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
