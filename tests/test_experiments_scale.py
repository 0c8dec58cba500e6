"""Tests for the ``scale`` scenario family: one cell per pod."""

import multiprocessing
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from repro.errors import ExperimentError, SimulationError
from repro.experiments import registry
from repro.experiments.config import ScaleConfig, TestbedConfig
from repro.experiments.scale_experiment import (
    SCALE_SCENARIO,
    PodResult,
    _FRONTEND_CLIENT,
    _FRONTEND_VIP,
    make_scale_stream,
    merge_pods,
)
from repro.experiments.scenario import ScenarioCell, run_scenario
from repro.net.ecmp import select_next_hop_name
from repro.net.packet import FlowKey
from repro.net.tcp import EPHEMERAL_PORT_BASE, EPHEMERAL_PORT_RANGE, HTTP_PORT

#: ``small_config``'s fingerprint, as the partitioned engine computed it
#: before pods became scenario cells: whatever runs the pods, and on
#: however many processes, the merged outcome stream must not move.
SMALL_CONFIG_FINGERPRINT = (
    "b101fbfb1bec12ad174d5bcc005609c90a5a6af015b72ef5fbe3a1e852ff6c9e"
)


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
    return run_scenario("scale", small_config, jobs=1)


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
        for cell in SCALE_SCENARIO.cells(small_config):
            trace = SCALE_SCENARIO.make_trace(small_config, cell)
            for request in trace:
                assert request.request_id not in seen
                seen[request.request_id] = cell.key
        assert len(seen) == small_config.num_queries

    def test_out_of_range_pod_rejected(self, small_config):
        with pytest.raises(ExperimentError):
            SCALE_SCENARIO.make_trace(small_config, ScenarioCell(small_config.pods))


class TestScaleRun:
    def test_cells_are_the_pods_keyed_by_index(self, small_config):
        cells = SCALE_SCENARIO.cells(small_config)
        assert [cell.key for cell in cells] == list(range(small_config.pods))
        assert {SCALE_SCENARIO.trace_key(small_config, cell) for cell in cells} == {
            0, 1, 2, 3
        }

    def test_every_query_gets_an_outcome(self, small_config, reference_run):
        assert reference_run.completed + reference_run.failed == (
            small_config.num_queries
        )
        assert reference_run.times.size == small_config.num_queries

    def test_outcomes_arrive_in_merge_order(self, reference_run):
        assert np.all(np.diff(reference_run.times) >= 0)

    @pytest.mark.parametrize("jobs, processes", [(1, 1), (2, 2), (8, 4)])
    def test_the_process_count_does_not_change_the_fingerprint(
        self, small_config, jobs, processes
    ):
        run = run_scenario("scale", small_config, jobs=jobs)
        assert run.fingerprint() == SMALL_CONFIG_FINGERPRINT
        assert sorted(run.pod_summaries) == list(range(small_config.pods))
        # The header's partitions= counts the processes that ran pods.
        assert len({summary["pid"] for summary in run.pod_summaries.values()}) == processes
        assert f"partitions={processes})" in SCALE_SCENARIO.render(run)

    def test_spawn_start_method_does_not_change_the_outcome_stream(
        self, small_config, reference_run, monkeypatch
    ):
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(multiprocessing, "get_context", lambda: spawn)
        spawned = run_scenario("scale", small_config, jobs=2)
        for column in ("times", "request_ids", "response_times", "pod_indices"):
            np.testing.assert_array_equal(
                getattr(spawned, column), getattr(reference_run, column)
            )
        assert not multiprocessing.active_children()

    def test_a_failed_pod_is_named_by_its_index(self, small_config, monkeypatch):
        original = type(SCALE_SCENARIO).run_once

        def run_once(self, config, cell, trace):
            if cell.key == 1:
                raise ValueError("boom")
            return original(self, config, cell, trace)

        monkeypatch.setattr(type(SCALE_SCENARIO), "run_once", run_once)
        fork = multiprocessing.get_context("fork")
        monkeypatch.setattr(multiprocessing, "get_context", lambda: fork)
        with pytest.raises(SimulationError, match=r"^task 1 failed: ValueError: boom$"):
            run_scenario("scale", small_config, jobs=2)
        assert not multiprocessing.active_children()

    def test_summaries_cover_every_pod(self, small_config, reference_run):
        assert sorted(reference_run.pod_summaries) == list(
            range(small_config.pods)
        )
        assert all(
            summary["events_executed"] > 0 for summary in reference_run.pod_summaries.values()
        )
        assert reference_run.busy_seconds > 0
        assert reference_run.wall_seconds >= max(
            summary["wall_seconds"] for summary in reference_run.pod_summaries.values()
        )


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
        cell = SCALE_SCENARIO.cells(config)[0]
        trace = SCALE_SCENARIO.make_trace(config, cell)
        return SCALE_SCENARIO.run_once(config, cell, trace)

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


class TestScenarioIntegration:
    def test_registered_in_the_registry(self):
        assert registry.get("scale") is SCALE_SCENARIO
        assert "scale" in registry.names()

    def test_scenario_front_renders_with_fingerprint(self, small_config):
        result = run_scenario("scale", small_config)
        text = SCALE_SCENARIO.render(result)
        assert "fingerprint" in text
        assert "aggregate events/sec" in text

    def test_smoke_config_is_small(self):
        smoke = SCALE_SCENARIO.smoke_config()
        assert smoke.num_queries <= 5_000
