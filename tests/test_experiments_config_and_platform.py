"""Unit tests for experiment configuration, calibration and the testbed builder."""

import dataclasses
import multiprocessing

import pytest

from repro.errors import ExperimentError, SimulationError, WorkloadError
from repro.experiments import registry
from repro.experiments.calibration import analytic_saturation_rate
from repro.experiments.config import (
    HIGH_LOAD_FACTOR,
    LIGHT_LOAD_FACTOR,
    PAPER_LOAD_FACTORS,
    PoissonSweepConfig,
    PolicySpec,
    TestbedConfig,
    WikipediaReplayConfig,
    paper_policy_suite,
    rr_policy,
    sr_policy,
    srdyn_policy,
)
from repro.experiments import platform
from repro.experiments.platform import HEARTBEAT_SLICES, build_testbed
from repro.experiments.scenario import run_scenario
from repro.net.addressing import VIP_PREFIX
from repro.workload.requests import Request
from repro.workload.trace import Trace


def _poisson_trace(testbed, load_factor, num_queries, service_mean, workload_seed):
    """The ``poisson`` family's trace of one load factor on ``testbed``."""
    spec = registry.get("poisson")
    config = PoissonSweepConfig(
        testbed=testbed,
        load_factors=(load_factor,),
        num_queries=num_queries,
        service_mean=service_mean,
        workload_seed=workload_seed,
    )
    return spec.make_trace(config, spec.cells(config)[0])


class TestTestbedConfig:
    def test_paper_defaults(self):
        config = TestbedConfig()
        assert config.num_servers == 12
        assert config.workers_per_server == 32
        assert config.cores_per_server == 2
        assert config.backlog_capacity == 128
        assert config.total_cores == 24
        assert config.total_workers == 384

    def test_with_seed(self):
        assert TestbedConfig().with_seed(9).seed == 9

    def test_invalid_values_rejected(self):
        with pytest.raises(ExperimentError):
            TestbedConfig(num_servers=0)
        with pytest.raises(ExperimentError):
            TestbedConfig(workers_per_server=0)
        with pytest.raises(ExperimentError):
            TestbedConfig(backlog_capacity=0)


class TestPolicySpecs:
    def test_paper_suite_names(self):
        names = [spec.name for spec in paper_policy_suite()]
        assert names == ["RR", "SR4", "SR8", "SR16", "SRdyn"]

    def test_rr_uses_single_candidate(self):
        spec = rr_policy()
        assert spec.num_candidates == 1
        assert spec.acceptance_policy == "always"

    def test_sr_policy(self):
        spec = sr_policy(8)
        assert spec.num_candidates == 2
        assert spec.acceptance_policy == "SR8"

    def test_srdyn_policy(self):
        assert srdyn_policy().acceptance_policy == "SRdyn"

    def test_invalid_specs_rejected(self):
        with pytest.raises(ExperimentError):
            PolicySpec(name="", acceptance_policy="SR4")
        with pytest.raises(ExperimentError):
            PolicySpec(name="x", acceptance_policy="SR4", num_candidates=0)
        with pytest.raises(ExperimentError):
            sr_policy(-1)


class TestSweepConfigs:
    def test_paper_load_factors(self):
        assert len(PAPER_LOAD_FACTORS) == 24
        assert all(0 < rho < 1 for rho in PAPER_LOAD_FACTORS)
        assert HIGH_LOAD_FACTOR in PAPER_LOAD_FACTORS
        assert 0 < LIGHT_LOAD_FACTOR < 1

    def test_poisson_defaults(self):
        config = PoissonSweepConfig()
        assert config.num_queries == 20_000
        assert config.service_mean == pytest.approx(0.1)
        assert len(config.policies) == 5

    def test_poisson_fleet_is_its_testbed(self):
        config = PoissonSweepConfig()
        assert config.fleet is config.testbed

    def test_heterogeneous_service_mean_is_a_class_constant_not_a_field(self):
        from repro.experiments.config import HeterogeneousFleetConfig

        assert HeterogeneousFleetConfig().service_mean == 0.1
        names = {field.name for field in dataclasses.fields(HeterogeneousFleetConfig)}
        assert "service_mean" not in names

    def test_poisson_invalid(self):
        with pytest.raises(ExperimentError):
            PoissonSweepConfig(load_factors=())
        with pytest.raises(ExperimentError):
            PoissonSweepConfig(num_queries=0)
        with pytest.raises(ExperimentError):
            PoissonSweepConfig(load_factors=(0.0,))

    def test_wikipedia_defaults(self):
        config = WikipediaReplayConfig()
        assert config.duration == pytest.approx(86_400.0)
        assert config.replay_fraction == pytest.approx(0.5)
        assert config.bin_width == pytest.approx(600.0)

    def test_wikipedia_compressed_scales_bin_width(self):
        config = WikipediaReplayConfig().compressed(duration=8_640.0)
        assert config.duration == pytest.approx(8_640.0)
        assert config.bin_width == pytest.approx(60.0)

    def test_wikipedia_invalid(self):
        with pytest.raises(ExperimentError):
            WikipediaReplayConfig(duration=0.0)
        with pytest.raises(ExperimentError):
            WikipediaReplayConfig(replay_fraction=1.5)


class TestCalibration:
    def test_analytic_rate_matches_capacity(self):
        assert analytic_saturation_rate(TestbedConfig(), 0.1) == pytest.approx(240.0)

    def test_analytic_rate_scales_with_servers(self):
        small = dataclasses.replace(TestbedConfig(), num_servers=6)
        assert analytic_saturation_rate(small, 0.1) == pytest.approx(120.0)


class TestBuildTestbed:
    def test_testbed_shape(self, small_testbed_config):
        testbed = build_testbed(small_testbed_config, sr_policy(4))
        assert len(testbed.servers) == small_testbed_config.num_servers
        assert VIP_PREFIX.contains(testbed.vip)
        assert testbed.load_balancer.backends_for(testbed.vip) == [
            server.primary_address for server in testbed.servers
        ]
        assert testbed.client.vip == testbed.vip

    def test_each_server_gets_its_own_policy_instance(self, small_testbed_config):
        testbed = build_testbed(small_testbed_config, srdyn_policy())
        policies = {id(server.policy) for server in testbed.servers}
        assert len(policies) == small_testbed_config.num_servers

    def test_rr_spec_uses_single_candidate_selector(self, small_testbed_config):
        testbed = build_testbed(small_testbed_config, rr_policy())
        assert testbed.load_balancer.selector.num_candidates == 1

    def test_sr_spec_uses_two_candidates(self, small_testbed_config):
        testbed = build_testbed(small_testbed_config, sr_policy(4))
        assert testbed.load_balancer.selector.num_candidates == 2

    def test_run_trace_serves_every_request(self, small_testbed_config):
        testbed = build_testbed(small_testbed_config, sr_policy(4))
        trace = _poisson_trace(
            load_factor=0.3,
            num_queries=100,
            testbed=small_testbed_config,
            service_mean=0.05,
            workload_seed=3,
        )
        testbed.run_trace(trace)
        assert testbed.collector.totals.completed == 100
        counters = testbed.counters()
        assert counters["server.requests_served"] == 100
        assert counters["server.connections_reset"] == 0

    def test_load_sampler_records_samples(self, small_testbed_config):
        testbed = build_testbed(small_testbed_config, sr_policy(4))
        sampler = testbed.attach_load_sampler(interval=0.1)
        trace = _poisson_trace(
            load_factor=0.3,
            num_queries=50,
            testbed=small_testbed_config,
            service_mean=0.05,
            workload_seed=3,
        )
        testbed.run_trace(trace)
        assert len(sampler) > 0
        assert all(len(row) == small_testbed_config.num_servers for row in sampler.samples)

    def test_reattaching_load_sampler_stops_the_previous_task(self, small_testbed_config):
        """Regression: a second ``attach_load_sampler`` used to leak the
        first PeriodicTask, which kept rescheduling forever, so the
        event heap never drained and ``run_trace`` hung."""
        testbed = build_testbed(small_testbed_config, sr_policy(4))
        first = testbed.attach_load_sampler(interval=0.1)
        second = testbed.attach_load_sampler(interval=0.1)
        assert second is not first
        assert testbed.load_sampler is second
        trace = _poisson_trace(
            load_factor=0.3,
            num_queries=20,
            testbed=small_testbed_config,
            service_mean=0.05,
            workload_seed=3,
        )
        # With the leaked task this call never returned; now the heap
        # drains, only the second sampler records, and the first stays
        # frozen where the re-attach stopped it.
        testbed.run_trace(trace)
        assert len(second) > 0
        assert len(first) == 0

    def test_run_trace_rejects_second_trace_with_conflicting_ids(
        self, small_testbed_config
    ):
        """Generated traces number their requests 1..N, so replaying a
        *different* trace on the same testbed would make servers look up
        the first trace's CPU demands; the catalog guard rejects it."""
        trace_kwargs = dict(
            testbed=small_testbed_config,
            load_factor=0.3,
            num_queries=10,
            service_mean=0.05,
        )
        testbed = build_testbed(small_testbed_config, sr_policy(4))
        testbed.run_trace(_poisson_trace(workload_seed=3, **trace_kwargs))
        with pytest.raises(WorkloadError):
            testbed.run_trace(_poisson_trace(workload_seed=4, **trace_kwargs))

    def test_run_trace_refuses_ids_past_the_demand_table(self, small_testbed_config):
        """Demands are a table indexed by request id, so an id in the
        billions is refused instead of allocating gigabytes."""
        trace = Trace([Request(request_id=2**40, arrival_time=0.0, service_demand=0.1)])
        with build_testbed(small_testbed_config, sr_policy(4)) as testbed:
            with pytest.raises(WorkloadError, match="indexed by request id"):
                testbed.run_trace(trace)
            assert len(testbed.demands) == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_overlapping_ids_are_rejected_at_any_jobs(self, jobs, monkeypatch):
        """A cell that replays a second trace whose ids repeat the first's
        with other demands fails with the same error, in process or from
        a worker process (which names the cell and the cause)."""
        spec = registry.get("poisson")

        def run_once(self, config, cell, trace):
            doubled = Trace.from_columns(
                trace.request_ids,
                trace.arrival_times,
                2.0 * trace.service_demands,
                trace.kind_codes,
                trace.kinds,
            )
            with build_testbed(config.testbed, rr_policy()) as testbed:
                testbed.run_trace(trace)
                testbed.run_trace(trace)  # the same trace again is fine
                testbed.run_trace(doubled)

        monkeypatch.setattr(type(spec), "run_once", run_once)
        fork = multiprocessing.get_context("fork")
        monkeypatch.setattr(multiprocessing, "get_context", lambda: fork)
        config = dataclasses.replace(spec.smoke_config(), num_queries=20)
        expected = WorkloadError if jobs == 1 else SimulationError
        with pytest.raises(expected, match="request id 1 is already registered"):
            run_scenario(spec, config, jobs=jobs)
        assert not multiprocessing.active_children()

    def test_deterministic_given_seed(self, small_testbed_config):
        trace_kwargs = dict(
            load_factor=0.5,
            num_queries=200,
            testbed=small_testbed_config,
            service_mean=0.05,
            workload_seed=11,
        )
        results = []
        for _ in range(2):
            testbed = build_testbed(small_testbed_config, sr_policy(4))
            testbed.run_trace(_poisson_trace(**trace_kwargs))
            results.append(tuple(sorted(testbed.collector.response_times())))
        assert results[0] == results[1]


class TestRunTraceSlicing:
    """``run_trace`` replays the arrival phase in heartbeat slices, which
    change nothing but how often a supervised worker ticks."""

    @staticmethod
    def _trace(config):
        return _poisson_trace(
            load_factor=0.6,
            num_queries=200,
            testbed=config,
            service_mean=0.05,
            workload_seed=5,
        )

    @staticmethod
    def _outcome(testbed, duration):
        table = testbed.collector.columns()
        return (
            duration,
            testbed.simulator.events_executed,
            table.request_ids.tolist(),
            table.response_times.tolist(),
            testbed.counters(),
        )

    @pytest.mark.parametrize("until", [None, 60.0], ids=["drain", "horizon"])
    def test_a_sliced_replay_equals_an_unsliced_one(self, small_testbed_config, until):
        trace = self._trace(small_testbed_config)
        with build_testbed(small_testbed_config, sr_policy(4)) as testbed:
            sliced = self._outcome(testbed, testbed.run_trace(trace, until=until))
        with build_testbed(small_testbed_config, sr_policy(4)) as testbed:
            testbed.schedule_trace(trace)
            if until is not None:
                testbed.simulator.run(until=until)
            duration = testbed.simulator.run()
            testbed.client.sweep_unfinished()
            whole = self._outcome(testbed, duration)
        assert sliced == whole
        if until is not None:
            # Past the last event, the run ends at the horizon it was given.
            assert sliced[0] == until

    def test_ticks_once_per_slice_up_to_the_last_arrival(
        self, small_testbed_config, monkeypatch
    ):
        trace = self._trace(small_testbed_config)
        ticks = []
        with build_testbed(small_testbed_config, sr_policy(4)) as testbed:
            monkeypatch.setattr(platform, "tick", lambda: ticks.append(testbed.simulator.now))
            testbed.run_trace(trace)
        assert len(ticks) == HEARTBEAT_SLICES
        assert ticks == sorted(ticks) and ticks[-1] == trace.duration


class TestTestbedCounters:
    """``Testbed.counters()``: one flat ``<tier>.<counter>`` view of a run."""

    @pytest.fixture
    def finished(self, small_testbed_config):
        testbed = build_testbed(small_testbed_config, sr_policy(4))
        testbed.run_trace(
            _poisson_trace(
                load_factor=0.5,
                num_queries=60,
                testbed=small_testbed_config,
                service_mean=0.05,
                workload_seed=3,
            )
        )
        return testbed

    def test_names_are_tier_dot_counter_and_values_are_numbers(self, finished):
        counters = finished.counters()
        tiers = {name.split(".", 1)[0] for name in counters}
        assert tiers == {"lb", "flow", "server", "hunt", "fabric", "client"}
        assert all(isinstance(value, (int, float)) for value in counters.values())
        assert counters["client.queries_completed"] == 60

    def test_one_lb_testbed_has_no_edge_or_tier_counters(self, finished):
        counters = finished.counters()
        assert not [name for name in counters if name.startswith("edge.")]
        assert "lb.recovery_hunts" not in counters

    def test_no_fault_pipeline_means_no_fault_counters(self, finished):
        assert not [name for name in finished.counters() if name.startswith("fault.")]

    def test_values_are_equal_before_and_after_close(self, finished):
        before = finished.counters()
        finished.close()
        assert finished.counters() == before
