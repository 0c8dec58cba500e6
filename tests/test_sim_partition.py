"""Unit tests for the partitioned-run driver (:mod:`repro.sim.partition`)."""

import ast
import multiprocessing
import os
import pathlib
import time

import pytest

import repro

from repro.errors import SimulationError
from repro.sim import partition
from repro.sim.partition import (
    PartitionTask,
    _partition_process_main,
    run_partition_serially,
    run_partitioned,
)


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


def _in_process(worker, tasks):
    """The serial twin of a fan-out: every task run in this process."""
    return [run_partition_serially(worker, task)[0] for task in tasks]


class TestRunPartitioned:
    def test_serial_run_returns_the_result_as_a_one_element_list(self):
        assert run_partition_serially(reporting_worker, TASKS[1]) == [
            {"pod": 1, "rows": [10.0, 11.0, 12.0]}
        ]

    def test_processes_equals_one_returns_results_in_task_order(self):
        results = run_partitioned(reporting_worker, TASKS, processes=1)
        assert [result["pod"] for result in results] == [0, 1, 2, 3]

    def test_multiprocess_run_is_identical_to_serial(self):
        serial = _in_process(reporting_worker, TASKS)
        for processes in (1, 2):
            assert run_partitioned(reporting_worker, TASKS, processes=processes) == serial

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
        reference = _in_process(reporting_worker, TASKS[:2])
        assert result == reference

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
        assert spawned == _in_process(reporting_worker, TASKS)


class TestWorkerFailure:
    """One failure -> one SimulationError naming the pod and the cause."""

    @pytest.mark.parametrize(
        "tasks, processes",
        [
            # More pods than processes: the failing pod's sibling on the
            # same process never runs; its silence must not mask the cause.
            pytest.param(TASKS, 2, id="4-over-2"),
            pytest.param(TASKS[:2], 2, id="2-over-2"),
            pytest.param(TASKS, 1, id="one-process"),
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
        assert result == _in_process(reporting_worker, TASKS[:2])


class TestSupervision:
    """Always on: a process silent past ``HEARTBEAT_TIMEOUT`` is hung."""

    def test_hung_partition_raises_one_error_naming_it(self, monkeypatch):
        monkeypatch.setattr(partition, "HEARTBEAT_TIMEOUT", 0.5)
        with pytest.raises(SimulationError) as excinfo:
            run_partitioned(hanging_worker, TASKS[:3], processes=3)
        assert str(excinfo.value) == (
            "task(s) 1 sent no heartbeat for more than 0.5s (hung worker); "
            "2 task(s) had already completed"
        )
        assert not multiprocessing.active_children()

    def test_ticks_keep_a_slow_partition_alive(self, monkeypatch):
        # 0.6 s of work against a 0.4 s deadline: only the ticks save it,
        # and a partition queued behind another on the same process is
        # not mistaken for a hung one.
        monkeypatch.setattr(partition, "HEARTBEAT_TIMEOUT", 0.4)
        results = run_partitioned(slow_but_ticking_worker, TASKS, processes=2)
        assert [result["pod"] for result in results] == [0, 1, 2, 3]
