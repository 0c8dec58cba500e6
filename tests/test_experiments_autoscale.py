"""Tests for the autoscale scenario family.

Includes the PR's acceptance criterion: on the fixed-seed smoke config,
the reactive policy demonstrably tracks the diurnal load — strictly
fewer capacity-seconds than static over-provisioning at equal-or-better
p99 (and inside the configured SLO).
"""

import pickle

import pytest

from repro.errors import ExperimentError
from repro.experiments.autoscale_experiment import (
    AUTOSCALE_SCENARIO,
    make_diurnal_workload,
)
from repro.experiments.config import AutoscaleConfig
from repro.experiments.scenario import run_scenario


@pytest.fixture(scope="module")
def smoke_result():
    """One serial smoke run shared by every test in the module."""
    return run_scenario("autoscale", AUTOSCALE_SCENARIO.smoke_config(), jobs=1)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        AutoscaleConfig()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(min_servers=0),
            dict(min_servers=6, max_servers=4),
            dict(min_servers=1),  # floor below num_candidates (2)
            dict(mean_load=0.0),
            dict(load_amplitude=-0.1),
            dict(load_amplitude=0.6),  # exceeds mean_load
            dict(mean_load=0.8, load_amplitude=0.3),  # peak over capacity
            dict(scale_up_fraction=0.04, scale_down_fraction=0.12),
            dict(modes=()),
            dict(modes=("static", "clairvoyant")),
        ],
    )
    def test_bad_configs_are_loud(self, overrides):
        with pytest.raises(ExperimentError):
            AutoscaleConfig(**overrides)

    def test_testbed_sizes_per_mode(self):
        config = AutoscaleConfig(min_servers=3, max_servers=9)
        assert config.testbed_for("static").num_servers == 9
        assert config.testbed_for("reactive").num_servers == 3
        assert config.testbed_for("predictive").num_servers == 3

    def test_scaled_compresses_every_control_clock(self):
        config = AutoscaleConfig().scaled(0.5)
        base = AutoscaleConfig()
        assert config.duration == base.duration * 0.5
        assert config.provisioning_delay == base.provisioning_delay * 0.5
        assert config.scale_up_cooldown == base.scale_up_cooldown * 0.5
        assert config.prediction_horizon == base.prediction_horizon * 0.5
        # The controller's own clocks compress too — a scaled run is the
        # same trajectory on a faster clock, not a lazier controller.
        assert config.monitor_interval == base.monitor_interval * 0.5
        assert config.drain_check_interval == base.drain_check_interval * 0.5
        assert config.slope_time_constant == base.slope_time_constant * 0.5

    @pytest.mark.parametrize("time_factor", [1e308, float("inf")])
    def test_overflowing_time_factor_is_rejected_not_hung(self, time_factor):
        # An infinite duration would make the trace generator draw
        # arrivals forever; the config must refuse it up front.
        with pytest.raises(ExperimentError):
            AutoscaleConfig().scaled(time_factor)


class TestDiurnalTrace:
    def test_trace_is_deterministic(self):
        config = AUTOSCALE_SCENARIO.smoke_config()
        static, reactive, _ = AUTOSCALE_SCENARIO.cells(config)
        first = AUTOSCALE_SCENARIO.make_trace(config, static)
        second = AUTOSCALE_SCENARIO.make_trace(config, reactive)
        assert len(first) == len(second)
        assert [r.arrival_time for r in first] == [r.arrival_time for r in second]

    def test_rates_normalised_against_the_max_fleet(self):
        config = AUTOSCALE_SCENARIO.smoke_config()
        workload = make_diurnal_workload(config)
        # max fleet: 5 servers x 1 core / 0.1 s mean demand = 50 q/s.
        assert workload.mean_rate == pytest.approx(config.mean_load * 50.0)


def _capacity_seconds(run, config):
    return run.capacity.capacity_seconds(through=config.duration)


class TestSmokeRun:
    def test_all_modes_ran_and_served(self, smoke_result):
        config = smoke_result.config
        assert list(smoke_result.keys()) == list(config.modes)
        for mode in smoke_result.keys():
            run = smoke_result.run(mode)
            assert run.counters["server.requests_served"] > 0
            assert run.collector.totals.completed > 0

    def test_static_bill_is_the_full_fleet_for_the_full_day(self, smoke_result):
        config = smoke_result.config
        static = smoke_result.run("static")
        assert static.capacity.capacity_seconds(through=config.duration) == pytest.approx(
            config.max_servers * config.testbed.cores_per_server * config.duration
        )
        assert static.capacity.events == []
        assert static.monitor_series == []

    def test_elastic_fleets_actually_scaled(self, smoke_result):
        for mode in ("reactive", "predictive"):
            run = smoke_result.run(mode)
            assert run.capacity.scale_ups() > 0
            assert run.capacity.scale_downs() > 0
            assert run.capacity.drain_durations  # at least one graceful drain
            assert run.monitor_series  # the control loop sampled the fleet
            capacities = [value for _, value in run.capacity.series()]
            floor = smoke_result.config.min_servers
            assert min(capacities) >= floor * smoke_result.config.testbed.cores_per_server

    def test_acceptance_reactive_beats_static_on_cost_at_slo(self, smoke_result):
        """The PR's headline criterion, pinned on the fixed-seed config."""
        config = smoke_result.config
        static = smoke_result.run("static")
        reactive = smoke_result.run("reactive")
        # Demonstrably cheaper: a real saving, not a rounding artefact.
        assert _capacity_seconds(reactive, config) < 0.9 * _capacity_seconds(
            static, config
        )
        # At equal-or-better p99, and both inside the SLO.
        assert reactive.collector.summary().p99 <= static.collector.summary().p99
        assert static.collector.summary().p99 <= config.slo_p99
        assert reactive.collector.summary().p99 <= config.slo_p99

    def test_predictive_is_cheaper_than_static_inside_the_slo(self, smoke_result):
        config = smoke_result.config
        static = smoke_result.run("static")
        predictive = smoke_result.run("predictive")
        assert _capacity_seconds(predictive, config) < _capacity_seconds(static, config)
        assert predictive.collector.summary().p99 <= config.slo_p99

    def test_payload_roundtrip_preserves_the_metrics(self, smoke_result):
        run = smoke_result.run("reactive")
        rebuilt = pickle.loads(pickle.dumps(run))
        config = smoke_result.config
        assert _capacity_seconds(rebuilt, config) == _capacity_seconds(run, config)
        assert rebuilt.collector.summary().p99 == run.collector.summary().p99
        assert rebuilt.counters == run.counters
        assert rebuilt.capacity.series() == run.capacity.series()
        assert rebuilt.collector.totals.completed == run.collector.totals.completed

    def test_render_produces_both_tables(self, smoke_result):
        text = AUTOSCALE_SCENARIO.render(smoke_result)
        assert "capacity-s" in text
        assert "provisioned servers" in text
        for mode in smoke_result.keys():
            assert mode in text
