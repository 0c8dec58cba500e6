"""Tests for the partitioned ``scale`` scenario family."""

import multiprocessing
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import registry
from repro.experiments.config import ScaleConfig, TestbedConfig
from repro.experiments.scale_experiment import (
    SCALE_SCENARIO,
    PodResult,
    ScaleRunResult,
    _FRONTEND_CLIENT,
    _FRONTEND_VIP,
    make_pod_trace,
    make_scale_stream,
    merge_pods,
    run_scale,
    simulate_pod,
)
from repro.experiments.scenario import run_scenario
from repro.net.ecmp import select_next_hop_name
from repro.net.packet import FlowKey
from repro.net.tcp import EPHEMERAL_PORT_BASE, EPHEMERAL_PORT_RANGE, HTTP_PORT
from repro.sim.partition import PartitionTask, run_partitioned


@pytest.fixture(scope="module")
def small_config():
    """A config small enough to replay in well under a second per pod."""
    return ScaleConfig(
        testbed=TestbedConfig(
            num_servers=4, workers_per_server=8, backlog_capacity=16
        ),
        pods=4,
        num_queries=600,
    )


@pytest.fixture(scope="module")
def reference_run(small_config):
    return run_scale(small_config, partitions=1)


class TestScaleConfig:
    def test_defaults_are_million_scale(self):
        config = ScaleConfig()
        assert config.num_queries == 1_000_000
        assert config.pods == 4

    def test_pod_names_are_stable(self):
        assert ScaleConfig(pods=2).pod_names() == ("pod-0", "pod-1")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pods": 0},
            {"num_queries": 2, "pods": 4},
            {"load_factor": 0.0},
            {"service_mean": -1.0},
            {"ecmp_hash": "crc32"},
            {"load_factor": -0.5},
            {"service_mean": 0.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ExperimentError):
            ScaleConfig(**kwargs)


def _pod_of_query(config, query_index):
    """The pod the live router's scalar hash deals aggregate query
    ``query_index`` to: the reference the stream's port table must match."""
    port = EPHEMERAL_PORT_BASE + (query_index % EPHEMERAL_PORT_RANGE)
    names = config.pod_names()
    flow = FlowKey(_FRONTEND_CLIENT, port, _FRONTEND_VIP, HTTP_PORT)
    return names.index(select_next_hop_name(names, flow, config.ecmp_hash))


class TestFrontendSharding:
    def test_stream_is_a_pure_function_of_the_config(self, small_config):
        first = make_scale_stream(small_config)
        second = make_scale_stream(small_config)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_pod_assignment_matches_the_scalar_hash(self, small_config):
        _, _, pods = make_scale_stream(small_config)
        for index in range(0, 50, 7):
            assert pods[index] == _pod_of_query(small_config, index)

    def test_pod_traces_partition_the_aggregate_stream(self, small_config):
        seen = {}
        horizons = set()
        for pod in range(small_config.pods):
            trace, horizon = make_pod_trace(small_config, pod)
            horizons.add(horizon)
            for request in trace:
                assert request.request_id not in seen
                seen[request.request_id] = pod
        assert len(seen) == small_config.num_queries
        # Every pod must replay the same span of simulated time.
        assert len(horizons) == 1

    def test_out_of_range_pod_rejected(self, small_config):
        with pytest.raises(ExperimentError):
            make_pod_trace(small_config, small_config.pods)


class TestRunScale:
    def test_every_query_gets_an_outcome(self, small_config, reference_run):
        assert reference_run.completed + reference_run.failed == (
            small_config.num_queries
        )
        assert reference_run.times.size == small_config.num_queries

    def test_outcomes_arrive_in_merge_order(self, reference_run):
        assert np.all(np.diff(reference_run.times) >= 0)

    def test_partitions_do_not_change_the_fingerprint(
        self, small_config, reference_run
    ):
        partitioned = run_scale(small_config, partitions=2)
        assert partitioned.fingerprint() == reference_run.fingerprint()
        assert partitioned.pod_summaries.keys() == (
            reference_run.pod_summaries.keys()
        )

    def test_more_partitions_than_pods_do_not_change_the_fingerprint(
        self, small_config, reference_run
    ):
        partitioned = run_scale(small_config, partitions=8)
        assert partitioned.fingerprint() == reference_run.fingerprint()

    def test_spawn_start_method_does_not_change_the_outcome_stream(
        self, small_config, reference_run
    ):
        tasks = [
            PartitionTask(index=pod, payload=(small_config, pod))
            for pod in range(small_config.pods)
        ]
        pods = run_partitioned(
            simulate_pod,
            tasks,
            processes=2,
            mp_context=multiprocessing.get_context("spawn"),
        )
        merged = merge_pods(pods)
        reference = (
            reference_run.times,
            reference_run.request_ids,
            reference_run.response_times,
            reference_run.pod_indices,
        )
        for column, expected in zip(merged, reference):
            np.testing.assert_array_equal(column, expected)

    def test_summaries_cover_every_pod(self, small_config, reference_run):
        assert sorted(reference_run.pod_summaries) == list(
            range(small_config.pods)
        )
        assert reference_run.events_executed > 0
        assert reference_run.busy_seconds > 0

    def test_nonpositive_partitions_rejected(self, small_config):
        with pytest.raises(ExperimentError):
            run_scale(small_config, partitions=0)


def _pod(times, ids, responses):
    return PodResult(
        times=np.array(times, dtype=np.float64),
        request_ids=np.array(ids, dtype=np.int64),
        response_times=np.array(responses, dtype=np.float64),
        summary={},
    )


class TestMergePods:
    def test_orders_by_time_then_partition_then_seq(self):
        times, ids, _responses, pods = merge_pods(
            [
                _pod([1.0, 2.0, 2.0], [10, 11, 12], [0.1, 0.1, 0.1]),
                _pod([0.5, 2.0], [20, 21], [0.1, 0.1]),
            ]
        )
        assert times.tolist() == [0.5, 1.0, 2.0, 2.0, 2.0]
        assert pods.tolist() == [1, 0, 0, 0, 1]
        assert ids.tolist() == [20, 10, 11, 12, 21]

    def test_equal_times_within_a_partition_keep_emission_order(self):
        _times, ids, _responses, _pods = merge_pods(
            [_pod([3.0, 3.0, 3.0], [7, 5, 6], [0.1, 0.2, 0.3])]
        )
        assert ids.tolist() == [7, 5, 6]

    def test_empty_pods_and_failures_pass_through(self):
        _times, ids, responses, pods = merge_pods(
            [_pod([], [], []), _pod([1.0, 2.0], [1, 2], [float("nan"), 0.4])]
        )
        assert ids.tolist() == [1, 2] and pods.tolist() == [1, 1]
        assert np.isnan(responses[0]) and responses[1] == 0.4
        assert ids.dtype == np.int64 and pods.dtype == np.int64


class TestTransportBudget:
    """Pods ship columns: the cost per outcome is bytes, not objects."""

    @pytest.fixture(scope="class")
    def pod_result(self):
        config = SCALE_SCENARIO.smoke_config()
        return simulate_pod(PartitionTask(0, (config, 0)), lambda: None)

    def test_a_pod_pickles_within_32_bytes_per_outcome(self, pod_result):
        blob = ForkingPickler.dumps(pod_result)
        outcomes = pod_result.times.size
        assert outcomes == pod_result.summary["queries"] > 0
        assert len(blob) <= 32 * outcomes + 4096

    def test_no_field_is_a_per_outcome_python_container(self, pod_result):
        for column in (
            pod_result.times, pod_result.request_ids, pod_result.response_times
        ):
            assert isinstance(column, np.ndarray)
            assert column.dtype in (np.float64, np.int64)
            assert column.shape == (pod_result.summary["queries"],)
        # The summary is a handful of numbers, whatever the run length.
        assert len(pod_result.summary) < 16
        assert all(
            isinstance(value, (int, float)) for value in pod_result.summary.values()
        )

    def test_the_run_result_is_its_own_picklable_payload(self, reference_run):
        clone = ForkingPickler.loads(ForkingPickler.dumps(reference_run))
        assert isinstance(clone, ScaleRunResult)
        assert clone.fingerprint() == reference_run.fingerprint()
        assert clone.pod_summaries == reference_run.pod_summaries


class TestScenarioIntegration:
    def test_registered_in_the_registry(self):
        assert registry.get("scale") is SCALE_SCENARIO
        assert "scale" in registry.names()

    def test_scenario_front_renders_with_fingerprint(self, small_config):
        result = run_scenario("scale", small_config, partitions=1)
        text = SCALE_SCENARIO.render(result)
        assert "fingerprint" in text
        assert "aggregate events/sec" in text

    def test_smoke_config_is_small(self):
        smoke = SCALE_SCENARIO.smoke_config()
        assert smoke.num_queries <= 5_000
