"""Tests for the LB-churn resilience experiment family."""

import dataclasses
import multiprocessing.process

import pytest

from repro.errors import ExperimentError
from repro.experiments import registry
from repro.experiments.config import ChurnEvent, ResilienceConfig, TestbedConfig
from repro.experiments.resilience_experiment import (
    RESILIENCE_SCENARIO,
    render_resilience_table,
    resilience_saturation_rate,
)
from repro.experiments.scenario import run_scenario


def _small_config(**overrides):
    defaults = dict(
        testbed=TestbedConfig(
            num_servers=6,
            workers_per_server=8,
            num_load_balancers=4,
            request_spread=1.5,
            request_chunks=4,
        ),
        load_factor=0.6,
        num_queries=800,
        service_mean=0.05,
    )
    defaults.update(overrides)
    return ResilienceConfig(**defaults)


class TestConfigValidation:
    def test_needs_a_tier(self):
        with pytest.raises(ExperimentError):
            ResilienceConfig(testbed=TestbedConfig(num_load_balancers=1))

    def test_churn_event_bounds(self):
        with pytest.raises(ExperimentError):
            ChurnEvent(at_fraction=0.0)
        with pytest.raises(ExperimentError):
            ChurnEvent(at_fraction=0.5, action="explode")

    def test_overkilling_churn_schedule_rejected_at_config_time(self):
        with pytest.raises(ExperimentError):
            _small_config(
                testbed=TestbedConfig(
                    num_load_balancers=2,
                    request_spread=1.5,
                    request_chunks=4,
                ),
                churn=(
                    ChurnEvent(at_fraction=0.3),
                    ChurnEvent(at_fraction=0.6),
                ),
            )

    def test_adds_can_fund_later_kills(self):
        config = _small_config(
            testbed=TestbedConfig(
                num_load_balancers=2,
                request_spread=1.5,
                request_chunks=4,
            ),
            churn=(
                ChurnEvent(at_fraction=0.2, action="add"),
                ChurnEvent(at_fraction=0.4),
                ChurnEvent(at_fraction=0.6),
            ),
        )
        assert len(config.churn) == 3

    def test_testbed_rejects_bad_tier_fields(self):
        with pytest.raises(ExperimentError):
            TestbedConfig(num_load_balancers=0)
        with pytest.raises(ExperimentError):
            TestbedConfig(ecmp_hash="crc32")
        with pytest.raises(ExperimentError):
            TestbedConfig(request_spread=-1.0)
        with pytest.raises(ExperimentError):
            TestbedConfig(request_chunks=0)

    def test_one_candidate_under_random_is_rejected_before_any_process(
        self, monkeypatch
    ):
        def no_process(process):
            raise AssertionError(f"{process.name} was started")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
        smoke = registry.get("resilience").smoke_config()
        with pytest.raises(ExperimentError, match="at least 2 candidates"):
            run_scenario(
                "resilience", dataclasses.replace(smoke, num_candidates=1), jobs=2
            )

    def test_saturation_is_worker_bound_under_spread(self):
        testbed = TestbedConfig(request_spread=2.0, request_chunks=5)
        rate = resilience_saturation_rate(testbed, service_mean=0.1)
        assert rate == pytest.approx(testbed.total_workers / 2.1)

    def test_saturation_is_cpu_bound_without_spread(self):
        testbed = TestbedConfig()
        rate = resilience_saturation_rate(testbed, service_mean=0.1)
        assert rate == pytest.approx(testbed.total_cores / 0.1)


class TestResilienceRuns:
    @pytest.fixture(scope="class")
    def comparison(self):
        return run_scenario("resilience", _small_config())

    def test_consistent_hash_breaks_under_five_percent(self, comparison):
        run = comparison.run("consistent-hash")
        assert run.in_flight_at_churn > 0
        assert run.broken_fraction < 0.05
        assert run.counters["lb.recovery_hunts"] > 0
        assert run.counters["client.queries_swept"] == 0

    def test_random_breaks_a_macroscopic_fraction(self, comparison):
        run = comparison.run("random")
        consistent = comparison.run("consistent-hash")
        assert run.broken_fraction > consistent.broken_fraction
        assert run.broken_flows > 0
        assert run.counters["client.queries_swept"] == 0

    def test_kill_observation_is_recorded(self, comparison):
        for scheme in comparison.keys():
            observations = comparison.run(scheme).observations
            assert len(observations) == 1
            assert observations[0].event.action == "kill"
            assert observations[0].instance.startswith("lb-")
            assert observations[0].flow_entries_lost > 0

    def test_table_reports_every_scheme(self, comparison):
        table = render_resilience_table(comparison)
        assert "random" in table
        assert "consistent-hash" in table
        assert "broken %" in table

    def test_same_workload_across_schemes(self, comparison):
        totals = [
            len(comparison.run(scheme).collector)
            + comparison.run(scheme).counters["client.queries_swept"]
            for scheme in comparison.keys()
        ]
        assert all(total == totals[0] for total in totals)


class TestChurnVariants:
    def test_instance_addition_mid_run(self):
        config = _small_config(
            num_queries=500,
            selection_schemes=("consistent-hash",),
            churn=(
                ChurnEvent(at_fraction=0.4, action="kill"),
                ChurnEvent(at_fraction=0.6, action="add"),
            ),
        )
        run = run_scenario("resilience", config).run("consistent-hash")
        assert len(run.observations) == 2
        assert run.observations[1].event.action == "add"
        assert run.broken_fraction < 0.05
        assert run.counters["client.queries_swept"] == 0

    def test_named_victim(self):
        config = _small_config(
            num_queries=400,
            selection_schemes=("consistent-hash",),
            churn=(ChurnEvent(at_fraction=0.5, instance="lb-1"),),
        )
        run = run_scenario("resilience", config).run("consistent-hash")
        assert run.observations[0].instance == "lb-1"

    def test_trace_is_deterministic(self):
        config = _small_config()
        (cell, _) = RESILIENCE_SCENARIO.cells(config)
        first = RESILIENCE_SCENARIO.make_trace(config, cell)
        second = RESILIENCE_SCENARIO.make_trace(config, cell)
        assert [r.arrival_time for r in first] == [r.arrival_time for r in second]
