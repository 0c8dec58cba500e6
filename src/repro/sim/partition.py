"""The process fan-out: independent tasks over supervised worker processes.

The only module of the package that starts a process, with one caller:
:func:`repro.experiments.scenario.run_scenario`, which runs one task per
scenario cell (``--jobs``, spelled ``--partitions`` by ``scale``, whose
cells are its pods), labelled with the cell's key.  A task is an
independent run: the worker builds its world, replays it and returns
**one** picklable result.

This module only fans out and supervises: it starts at most one process
per task, deals each process its tasks round-robin, receives one result
per task over the process's pipe, and returns the results in task
order.  What a result holds and how results combine is the caller's
business.  A failed task, a dead process, a hung process or an
interrupted coordinator each end in one :class:`SimulationError` (or
the interrupt itself) and no surviving child — see
:func:`run_partitioned`.

Determinism does not depend on scheduling: every task's result is a pure
function of the task, and :func:`run_partition_serially` runs the *same*
worker in this process (a serial run of the caller), so multi-process
and serial runs are bit-identical by construction — pinned by the
golden tests of the scenario families.

Supervision rides on a heartbeat and is always on: the worker is handed
a ``tick`` callable and calls it as it makes progress (a scenario cell
ticks when it starts, once its trace is made, and
:data:`~repro.experiments.platform.HEARTBEAT_SLICES` times while its
testbed replays).  A process that neither ticks nor reports for
:data:`HEARTBEAT_TIMEOUT` wall-clock seconds is declared hung.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.context import BaseContext

#: Heartbeat: called by a worker whenever it has made progress.
Tick = Callable[[], None]

#: A worker: builds the task's world from the payload, replays it
#: (ticking as it goes, if it ticks at all) and returns one picklable
#: result.  Must be a module-level callable so it pickles to worker
#: processes.
PartitionWorker = Callable[["PartitionTask", Tick], Any]

#: Seconds a worker process may send nothing before it is declared hung:
#: 10x the longest silent gap measured on the families' default configs,
#: 58 s (generating the full-day Wikipedia trace; docs/architecture.md).
HEARTBEAT_TIMEOUT = 600.0


@dataclass(frozen=True)
class PartitionTask:
    """One independent unit of work.

    ``index`` labels the task in failure messages: any hashable value
    unique within the call (a scenario cell's key; for ``scale``, the
    pod index).  ``payload`` is an opaque picklable description of the
    work.
    """

    index: Any
    payload: Any = None


def _no_tick() -> None:
    """The in-process heartbeat: nobody is listening."""


def run_partition_serially(worker: PartitionWorker, task: PartitionTask) -> List[Any]:
    """Run one task in this process; returns its result as ``[result]``.

    The one-element list is what a task "ships".  The serial path
    calls this through the module global, and the repository benchmark's
    tracer (``benchmarks/perf/tracing.py``) rebinds that global to
    pickle each element, which is how ``experiments.transport_*`` is
    measured in a one-process run — keep the name and the shape.
    """
    return [worker(task, _no_tick)]


def _failure(index: Any, exc: BaseException) -> str:
    """The one message a failed task is reported with."""
    return f"task {index!r} failed: {type(exc).__name__}: {exc}"


def _labels(indices: Sequence[Any]) -> str:
    return ", ".join(repr(index) for index in indices)


def _partition_process_main(
    worker: PartitionWorker, tasks: Sequence[PartitionTask], connection: Any
) -> None:
    """Child-process entry: run the assigned tasks, report each.

    Messages on the pipe: ``None`` is a tick; ``(True, result)`` the
    task being run has finished (tasks run in plan order, so the
    coordinator knows which); ``(False, message)`` it failed, after
    which the process stops (the run is lost anyway) — quietly, since a
    traceback of its own would only race the coordinator's
    ``terminate()``.
    """

    def tick() -> None:
        connection.send(None)

    try:
        for task in tasks:
            try:
                connection.send((True, worker(task, tick)))
            except BaseException as exc:  # noqa: BLE001 - relayed
                connection.send((False, _failure(task.index, exc)))
                return
    finally:
        connection.close()


def run_partitioned(
    worker: PartitionWorker,
    tasks: Sequence[PartitionTask],
    processes: int = 1,
    mp_context: Optional[BaseContext] = None,
) -> List[Any]:
    """Execute every task on worker processes; returns the results in task order.

    Tasks are dealt round-robin over ``processes`` worker processes — at
    most ``len(tasks)`` of them, so extra processes never spawn idle
    workers.  The results are identical for any ``processes`` value.

    A worker that raises ends the run with one :class:`SimulationError`
    naming the task and the cause; the remaining children are terminated
    and joined.  A process that sends nothing (neither a tick nor a
    result) for :data:`HEARTBEAT_TIMEOUT` wall-clock seconds is declared
    hung, every child is terminated, and one :class:`SimulationError`
    names the tasks that were running — instead of the coordinator
    blocking in its receive loop forever.
    """
    indices = [task.index for task in tasks]
    if len(set(indices)) != len(indices):
        raise SimulationError(f"task labels must be unique, got {indices!r}")
    if processes < 1:
        raise SimulationError(f"processes must be positive, got {processes!r}")

    # Loaded here, not with the module: a serial run starts no process.
    import multiprocessing

    context = mp_context if mp_context is not None else multiprocessing.get_context()
    num_processes = min(processes, len(tasks))
    children: List[Any] = []
    connections: List[Any] = []
    #: receive end -> labels the process has yet to report, running one first.
    pending: Dict[Any, Deque[Any]] = {}
    results: Dict[Any, Any] = {}
    try:
        for position in range(num_processes):
            plan = tasks[position::num_processes]
            receive_end, send_end = context.Pipe(duplex=False)
            connections.append(receive_end)
            child = context.Process(
                target=_partition_process_main,
                args=(worker, plan, send_end),
                daemon=True,
            )
            child.start()
            children.append(child)
            # The parent's copy of the send end must be closed, or EOF
            # on a crashed child would never be observable.
            send_end.close()
            pending[receive_end] = deque(task.index for task in plan)
        _receive(pending, results)
    except BaseException:
        # A failure must not leave the finally-block joining a hung (or
        # merely still busy) child: the run is lost, stop them all.
        for child in children:
            if child.is_alive():
                child.terminate()
        raise
    finally:
        for child in children:
            child.join()
        for connection in connections:
            connection.close()
    return [results[index] for index in indices]


def _receive(pending: Dict[Any, Deque[Any]], results: Dict[Any, Any]) -> None:
    """Fill ``results`` until every process has reported all its tasks.

    A relayed worker failure raises :class:`SimulationError` with the
    task's own message; a process that exits without reporting (killed,
    ``os._exit``) raises one naming the tasks it still owed, in plan
    order (labels need not be orderable); a process silent for longer
    than :data:`HEARTBEAT_TIMEOUT` raises one naming the task it was
    running.
    """
    from multiprocessing.connection import wait

    timeout = HEARTBEAT_TIMEOUT
    last_heard = {connection: time.monotonic() for connection in pending}
    while pending:
        ready = wait(list(pending), timeout=timeout)
        now = time.monotonic()
        lost: List[Any] = []
        for connection in ready:
            last_heard[connection] = now
            try:
                message = connection.recv()
            except EOFError:
                lost.extend(pending.pop(connection))
                continue
            if message is None:
                continue
            succeeded, value = message
            if not succeeded:
                raise SimulationError(value)
            owed = pending[connection]
            results[owed.popleft()] = value
            if not owed:
                del pending[connection]
        if lost:
            raise SimulationError(
                f"a worker process exited without reporting task(s) {_labels(lost)}"
            )
        stalled = [
            owed[0]
            for connection, owed in pending.items()
            if now - last_heard[connection] > timeout
        ]
        if stalled:
            raise SimulationError(
                f"task(s) {_labels(stalled)} sent no heartbeat for more than "
                f"{timeout:g}s (hung worker); "
                f"{len(results)} task(s) had already completed"
            )
