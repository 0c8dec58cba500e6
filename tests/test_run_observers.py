"""Every observer of a run is part of the run.

The telemetry probe and Figure 4's load sampler are switched on by the
run's :class:`~repro.experiments.config.TestbedConfig` (``telemetry``,
``sample_load``), stop at the run's one horizon (``Testbed.at_horizon``)
and come home in the run's result.  The two fleet-load readers (the
probe's gauges and the autoscaler's monitor) share one function,
:func:`repro.server.fleet_load`.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import main
from repro.control.monitor import FleetMonitor
from repro.errors import ExperimentError, WorkloadError
from repro.experiments import figures, platform
from repro.experiments.config import (
    AutoscaleConfig,
    HeterogeneousFleetConfig,
    PoissonSweepConfig,
    TestbedConfig,
    rr_policy,
    sr_policy,
)
from repro.experiments.platform import LOAD_SAMPLE_INTERVAL, SETTLE_MARGIN, build_testbed
from repro.experiments.scale_experiment import SCALE_SCENARIO
from repro.experiments.scenario import ScenarioResult, run_scenario
from repro.server.virtual_router import fleet_load
from repro.workload.requests import Request
from repro.workload.trace import Trace


def _burst_trace(count=40):
    """Overlapping fixed-demand requests: enough load to move the gauges."""
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


@pytest.fixture
def built_testbeds(monkeypatch):
    """Every testbed a run replays on, as ``run_trace`` sees it."""
    seen = []
    replay = platform.Testbed.run_trace

    def recording(testbed, trace, until=None):
        seen.append(testbed)
        return replay(testbed, trace, until)

    monkeypatch.setattr(platform.Testbed, "run_trace", recording)
    return seen


# ----------------------------------------------------------------------
# switched on by the config
# ----------------------------------------------------------------------
POISSON_ARGV = ["poisson", "--servers", "4", "--workers", "8", "--queries", "60"]


def test_a_cli_run_without_telemetry_builds_no_probe(
    monkeypatch, capsys, built_testbeds
):
    # The variable that once attached probes to every testbed is inert.
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    assert main(POISSON_ARGV + ["--rho", "0.5"]) == 0
    assert "telemetry" not in capsys.readouterr().out
    assert built_testbeds
    assert all(testbed.telemetry is None for testbed in built_testbeds)


def test_cli_telemetry_prints_one_summary_per_cell(capsys, built_testbeds):
    argv = POISSON_ARGV + ["--rho", "0.5", "--policy", "RR", "--policy", "SR4"]
    assert main(argv + ["--telemetry"]) == 0
    out = capsys.readouterr().out
    assert "telemetry [('RR', 0.5)]" in out and "telemetry [('SR4', 0.5)]" in out
    assert all(testbed.telemetry is not None for testbed in built_testbeds)


def test_figure_4_samples_through_the_testbed_config(capsys, built_testbeds):
    argv = ["figure", "4", "--servers", "4", "--workers", "8", "--queries", "150"]
    assert main(argv) == 0
    assert "fairness" in capsys.readouterr().out
    assert len(built_testbeds) == 2
    for testbed in built_testbeds:
        assert testbed.config.sample_load and not testbed.config.telemetry
        assert testbed.load_sampler is not None and testbed.load_sampler.times


def test_a_sweep_without_sample_load_has_no_figure_4(small_testbed_config):
    config = PoissonSweepConfig(
        testbed=small_testbed_config,
        load_factors=(0.5,),
        num_queries=60,
        policies=(rr_policy(),),
    )
    run = run_scenario("poisson", config).run(("RR", 0.5))
    assert run.load_sampler is None
    with pytest.raises(ExperimentError, match="sample_load"):
        figures.figure4_series({"RR": run})


@pytest.mark.parametrize(
    "derive",
    [
        lambda testbed: testbed.with_seed(9),
        lambda testbed: PoissonSweepConfig(testbed=testbed).fleet,
        lambda testbed: HeterogeneousFleetConfig(testbed=testbed).fleet,
        lambda testbed: AutoscaleConfig(testbed=testbed).testbed_for("reactive"),
    ],
    ids=["with_seed", "poisson-fleet", "heterogeneous-fleet", "autoscale-testbed_for"],
)
def test_the_observer_switches_ride_into_every_derived_testbed(derive):
    testbed = TestbedConfig(telemetry=True, sample_load=True)
    derived = derive(testbed)
    assert derived.telemetry and derived.sample_load


# ----------------------------------------------------------------------
# one horizon
# ----------------------------------------------------------------------
def test_without_a_hook_the_run_ends_when_the_heap_drains(small_testbed_config):
    trace = _burst_trace()
    with build_testbed(small_testbed_config, sr_policy(4)) as testbed:
        end = testbed.run_trace(trace)
    assert end < trace.duration + SETTLE_MARGIN


def test_a_hook_runs_once_at_the_horizon(small_testbed_config):
    trace = _burst_trace()
    with build_testbed(small_testbed_config, sr_policy(4)) as testbed:
        seen = []
        testbed.at_horizon(lambda: seen.append(testbed.simulator.now))
        end = testbed.run_trace(trace)
    assert seen == [trace.duration + SETTLE_MARGIN]
    assert end >= seen[0]


def test_the_observers_stop_first_at_the_horizon(small_testbed_config):
    config = dataclasses.replace(small_testbed_config, telemetry=True, sample_load=True)
    with build_testbed(config, sr_policy(4)) as testbed:
        states = []
        # A family's hook registers after the build, so it runs after
        # the probe's and the sampler's stops.
        testbed.at_horizon(
            lambda: states.append((testbed.telemetry.active, testbed._sampler_task))
        )
        testbed.run_trace(_burst_trace())
    assert states == [(False, None)]


def test_the_load_sampler_stops_at_the_horizon(small_testbed_config):
    trace = _burst_trace()
    config = dataclasses.replace(small_testbed_config, sample_load=True)
    with build_testbed(config, sr_policy(4)) as testbed:
        testbed.run_trace(trace)
    horizon = trace.duration + SETTLE_MARGIN
    times = testbed.load_sampler.times
    assert times[0] == 0.0 and times[-1] <= horizon
    assert len(times) == int(horizon / LOAD_SAMPLE_INTERVAL) + 1


def test_a_configured_sampler_refuses_to_grow_the_fleet(small_testbed_config):
    config = dataclasses.replace(small_testbed_config, sample_load=True)
    testbed = build_testbed(config, sr_policy(4))
    with pytest.raises(WorkloadError, match="load sampler"):
        testbed.add_server()


# ----------------------------------------------------------------------
# home in the result
# ----------------------------------------------------------------------
def test_telemetry_items_keep_cell_order_and_skip_runs_without_a_payload():
    class Run:
        def __init__(self, telemetry):
            self.telemetry = telemetry

    result = ScenarioResult(
        scenario="s",
        config=None,
        runs={"b": Run("payload-b"), "a": Run(None), "c": Run("payload-c")},
    )
    assert result.telemetry_items() == [("b", "payload-b"), ("c", "payload-c")]


@pytest.fixture(scope="module")
def observed_scale_runs():
    config = SCALE_SCENARIO.smoke_config()
    config = dataclasses.replace(
        config, testbed=dataclasses.replace(config.testbed, telemetry=True)
    )
    return config, {jobs: run_scenario("scale", config, jobs=jobs) for jobs in (1, 2)}


@pytest.mark.parametrize("jobs", [1, 2])
def test_scale_folds_its_pods_into_one_payload(observed_scale_runs, jobs):
    config, runs = observed_scale_runs
    ((key, payload),) = runs[jobs].telemetry_items()
    assert key == "scale"
    assert payload.meta["merged_from"] == config.pods
    assert payload.meta["run"] == "pod-0"  # the merge keeps the first pod's meta


def test_scale_payload_is_the_same_at_any_partition_count(observed_scale_runs):
    _config, runs = observed_scale_runs
    serial, pooled = runs[1].telemetry, runs[2].telemetry
    assert serial.names == pooled.names
    for index in range(len(serial.names)):
        assert serial.times[index].tolist() == pooled.times[index].tolist()
        assert serial.values[index].tolist() == pooled.values[index].tolist()


def test_scale_without_telemetry_has_no_payload():
    result = run_scenario("scale", SCALE_SCENARIO.smoke_config())
    assert result.telemetry is None and result.telemetry_items() == []


# ----------------------------------------------------------------------
# one fleet-load reader
# ----------------------------------------------------------------------
def test_fleet_load_of_no_servers_is_zero():
    assert fleet_load([]) == (0, 0, 0)


def test_fleet_load_sums_every_server(small_testbed_config):
    testbed = build_testbed(small_testbed_config, sr_policy(4))
    testbed.schedule_trace(_burst_trace())
    testbed.simulator.run(until=0.3)
    busy, slots, backlog = fleet_load(testbed.servers)
    assert busy == sum(server.busy_threads for server in testbed.servers) > 0
    assert slots == small_testbed_config.total_workers
    assert backlog == sum(server.app.backlog.depth for server in testbed.servers)


def test_the_probe_and_the_monitor_read_the_same_fleet_load(small_testbed_config):
    config = dataclasses.replace(small_testbed_config, telemetry=True)
    testbed = build_testbed(config, sr_policy(4))
    testbed.schedule_trace(_burst_trace())
    testbed.simulator.run(until=0.3)
    probe = testbed.telemetry
    probe.sample()
    now = testbed.simulator.now
    sample = FleetMonitor().observe(now, testbed.servers)
    busy, slots, backlog = fleet_load(testbed.servers)
    assert probe.bus.series("server.busy_fraction").latest == busy / slots
    assert probe.bus.series("server.backlog_depth").latest == backlog
    assert (sample.busy_threads, sample.total_workers, sample.backlog_depth) == (
        busy,
        slots,
        backlog,
    )
