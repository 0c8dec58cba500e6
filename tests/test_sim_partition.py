"""Unit tests for the partitioned-run driver (:mod:`repro.sim.partition`)."""

import ast
import multiprocessing
import os
import pathlib
import time

import pytest

import repro

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.partition import (
    HEARTBEAT_SLICES,
    PartitionSupervisionError,
    PartitionTask,
    _partition_process_main,
    run_partition_serially,
    run_partitioned,
    run_to_horizon,
)


class TestRunToHorizon:
    def test_clock_reads_exactly_the_horizon_afterwards(self):
        simulator = Simulator()
        run_to_horizon(simulator, 7.3, lambda: None)
        assert simulator.now == 7.3

    def test_ticks_once_per_slice(self):
        ticks = []
        run_to_horizon(Simulator(), 100.0, lambda: ticks.append(None))
        assert len(ticks) == HEARTBEAT_SLICES

    def test_slicing_executes_the_same_events_as_one_run(self):
        def replay(run):
            simulator = Simulator()
            fired = []
            for step in range(50):
                at = step * 0.37
                simulator.schedule_at(at, lambda at=at: fired.append((simulator.now, at)))
            run(simulator)
            return fired, simulator.events_executed

        sliced = replay(lambda sim: run_to_horizon(sim, 10.0, lambda: None))
        whole = replay(lambda sim: sim.run(until=10.0))
        assert sliced == whole

    def test_events_past_the_horizon_stay_pending(self):
        simulator = Simulator()
        simulator.schedule_at(12.0, lambda: None)
        run_to_horizon(simulator, 10.0, lambda: None)
        assert simulator.pending_events == 1


def reporting_worker(task, tick):
    """Tick a few times, then return a result derived from the payload."""
    for _ in range(3):
        tick()
    return {"pod": task.index, "rows": [task.payload + step for step in range(3)]}


def failing_worker(task, tick):
    if task.index == 0:
        raise ValueError("pod 0 exploded")
    return reporting_worker(task, tick)


def crashing_worker(task, tick):
    """Partition 1's process dies without a word; the others finish."""
    if task.index == 1:
        os._exit(3)
    return reporting_worker(task, tick)


def hanging_worker(task, tick):
    """Partition 1 never ticks; the others finish cleanly."""
    if task.index == 1:
        time.sleep(60.0)
    return {"pod": task.index}


def slow_but_ticking_worker(task, tick):
    """Runs longer than the heartbeat deadline, ticking well inside it."""
    for _ in range(6):
        time.sleep(0.1)
        tick()
    return {"pod": task.index}


TASKS = [PartitionTask(index=i, payload=i * 10.0) for i in range(4)]


class TestRunPartitioned:
    def test_serial_run_returns_the_result_as_a_one_element_list(self):
        assert run_partition_serially(reporting_worker, TASKS[1]) == [
            {"pod": 1, "rows": [10.0, 11.0, 12.0]}
        ]

    def test_processes_equals_one_returns_results_in_task_order(self):
        results = run_partitioned(reporting_worker, TASKS, processes=1)
        assert [result["pod"] for result in results] == [0, 1, 2, 3]

    def test_multiprocess_run_is_identical_to_serial(self):
        serial = run_partitioned(reporting_worker, TASKS, processes=1)
        parallel = run_partitioned(reporting_worker, TASKS, processes=2)
        assert parallel == serial

    def test_results_follow_task_order_not_index_order(self):
        shuffled = [TASKS[2], TASKS[0], TASKS[3]]
        for processes in (1, 2):
            results = run_partitioned(reporting_worker, shuffled, processes=processes)
            assert [result["pod"] for result in results] == [2, 0, 3]

    def test_worker_summaries_are_collected(self):
        def summarizing(task, tick):
            return {"pod": task.index}

        results = run_partitioned(summarizing, TASKS[:3], processes=1)
        assert results == [{"pod": 0}, {"pod": 1}, {"pod": 2}]

    def test_no_tasks_is_an_empty_result(self):
        assert run_partitioned(reporting_worker, [], processes=4) == []

    def test_duplicate_indices_rejected(self):
        with pytest.raises(SimulationError):
            run_partitioned(
                reporting_worker,
                [PartitionTask(0, 0.0), PartitionTask(0, 1.0)],
            )

    def test_nonpositive_processes_rejected(self):
        with pytest.raises(SimulationError):
            run_partitioned(reporting_worker, TASKS, processes=0)

    def test_more_processes_than_tasks_is_fine(self):
        result = run_partitioned(reporting_worker, TASKS[:2], processes=8)
        reference = run_partitioned(reporting_worker, TASKS[:2], processes=1)
        assert result == reference

    def test_serial_worker_failure_propagates(self):
        with pytest.raises(SimulationError) as excinfo:
            run_partitioned(failing_worker, TASKS, processes=1)
        # The original exception rides along for the traceback.
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_multiprocess_worker_failure_is_relayed(self):
        with pytest.raises(SimulationError, match="ValueError: pod 0 exploded"):
            run_partitioned(failing_worker, TASKS[:3], processes=3)

    def test_spawn_start_method_gives_the_same_results(self):
        spawned = run_partitioned(
            reporting_worker,
            TASKS,
            processes=2,
            mp_context=multiprocessing.get_context("spawn"),
        )
        assert spawned == run_partitioned(reporting_worker, TASKS, processes=1)


class TestWorkerFailure:
    """One failure -> one SimulationError naming the pod and the cause."""

    @pytest.mark.parametrize(
        "tasks, processes",
        [
            # More pods than processes: the failing pod's sibling on the
            # same process never runs; its silence must not mask the cause.
            pytest.param(TASKS, 2, id="4-over-2"),
            pytest.param(TASKS[:2], 2, id="2-over-2"),
            pytest.param(TASKS, 1, id="in-process"),
        ],
    )
    def test_failure_is_reported_as_itself(self, tasks, processes):
        with pytest.raises(SimulationError) as excinfo:
            run_partitioned(failing_worker, tasks, processes=processes)
        assert str(excinfo.value) == (
            "task 0 failed: ValueError: pod 0 exploded"
        )
        assert not multiprocessing.active_children()

    def test_crashed_process_names_the_partitions_it_owed(self):
        with pytest.raises(SimulationError) as excinfo:
            run_partitioned(crashing_worker, TASKS, processes=2)
        # Process 1 ran partitions 1 and 3 and reported neither.
        assert "task(s) 1, 3" in str(excinfo.value)
        assert not multiprocessing.active_children()

    def test_labels_are_listed_in_plan_order_and_need_not_be_orderable(self):
        labels = ["a", 1, ("b", 0.5), ("c", 0.5)]
        tasks = [PartitionTask(label, 0.0) for label in labels]
        with pytest.raises(SimulationError, match=r"task\(s\) 1, \('c', 0\.5\)$"):
            run_partitioned(crashing_worker, tasks, processes=2)


class RecordingConnection:
    """Stands in for the child's end of the pipe."""

    def __init__(self):
        self.sent = []
        self.closed = False

    def send(self, message):
        self.sent.append(message)

    def close(self):
        self.closed = True


class TestChildProcessMain:
    def test_failed_child_reports_once_and_exits_silently(self):
        # The coordinator has the message; an exception escaping here too
        # would have multiprocessing print the child's traceback whenever
        # the child outruns the coordinator's terminate().
        connection = RecordingConnection()
        _partition_process_main(failing_worker, TASKS[:2], connection)
        assert connection.sent == [
            (False, "task 0 failed: ValueError: pod 0 exploded")
        ]
        assert connection.closed


class TestOneFanOut:
    """``repro.sim.partition`` is the only module that starts a process."""

    def test_only_the_executor_touches_process_machinery(self):
        root = pathlib.Path(repro.__file__).parent
        uses = set()
        for path in sorted(root.rglob("*.py")):
            module = path.relative_to(root).as_posix()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    uses.update((module, alias.name.split(".")[0]) for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    uses.add((module, (node.module or "").split(".")[0]))
                elif isinstance(node, ast.Attribute) and node.attr == "fork":
                    uses.add((module, "fork"))
        process_machinery = {"multiprocessing", "concurrent", "subprocess", "fork"}
        assert {use for use in uses if use[1] in process_machinery} == {
            ("sim/partition.py", "multiprocessing")
        }


class SpyContext:
    """Wraps the real multiprocessing context, counting Process() calls."""

    def __init__(self):
        self._context = multiprocessing.get_context()
        self.process_count = 0

    def Pipe(self, duplex=False):
        return self._context.Pipe(duplex=duplex)

    def Process(self, *args, **kwargs):
        self.process_count += 1
        return self._context.Process(*args, **kwargs)


class TestProcessClamp:
    def test_spawns_at_most_one_process_per_task(self):
        # Regression: processes > len(tasks) must not spawn idle workers.
        spy = SpyContext()
        result = run_partitioned(
            reporting_worker, TASKS[:2], processes=8, mp_context=spy
        )
        assert spy.process_count == 2
        assert result == run_partitioned(reporting_worker, TASKS[:2], processes=1)


class TestSupervision:
    def test_hung_partition_raises_supervision_error(self):
        with pytest.raises(PartitionSupervisionError) as excinfo:
            run_partitioned(
                hanging_worker, TASKS[:3], processes=3, heartbeat_timeout=0.5
            )
        error = excinfo.value
        assert error.partitions == (1,)
        assert "task(s) 1" in str(error)
        # The healthy partitions' results rode along.
        assert error.results == {0: {"pod": 0}, 2: {"pod": 2}}
        assert not multiprocessing.active_children()

    def test_ticks_keep_a_slow_partition_alive(self):
        # 0.6 s of work against a 0.4 s deadline: only the ticks save it,
        # and a partition queued behind another on the same process is
        # not mistaken for a hung one.
        results = run_partitioned(
            slow_but_ticking_worker, TASKS, processes=2, heartbeat_timeout=0.4
        )
        assert [result["pod"] for result in results] == [0, 1, 2, 3]

    def test_healthy_run_is_unchanged_under_supervision(self):
        supervised = run_partitioned(
            reporting_worker, TASKS, processes=2, heartbeat_timeout=30.0
        )
        assert supervised == run_partitioned(reporting_worker, TASKS, processes=1)

    def test_supervision_ignores_the_serial_path(self):
        # processes=1 never blocks on pipes, so the heartbeat is moot —
        # but passing one must not break the serial path.
        results = run_partitioned(
            reporting_worker, TASKS, processes=1, heartbeat_timeout=0.001
        )
        assert len(results) == len(TASKS)

    def test_invalid_heartbeat_rejected(self):
        with pytest.raises(SimulationError):
            run_partitioned(
                reporting_worker, TASKS, processes=2, heartbeat_timeout=0.0
            )
