"""Partitioned intra-run simulation: one run, several simulator processes.

:mod:`repro.experiments.runner` parallelises *across* independent runs;
this module parallelises *within* one run.  The testbed is sliced at its
natural boundary — the front-end ECMP stage that spreads flows over
load-balancer/server pods — into partitions that never exchange a
packet, so a partition is an independent run: the worker builds its
world, replays it to the horizon and returns **one** picklable result.

This module only fans out and supervises: it starts at most one process
per partition, hands each process its partitions round-robin, receives
one result per partition over the process's pipe, and returns the
results in task order.  What a result holds and how results combine is
the caller's business (the ``scale`` family ships outcome columns and
merges them by ``(time, pod, emission order)``).

Determinism does not depend on scheduling: every partition's result is a
pure function of its task, and ``processes=1`` runs the *same* worker in
this process, so partitioned and serial runs are bit-identical by
construction — pinned by the golden tests of the ``scale`` scenario
family.

Supervision rides on a heartbeat: the worker is handed a ``tick``
callable and calls it as it makes progress (:func:`run_to_horizon` ticks
:data:`HEARTBEAT_SLICES` times per replay).  A process that neither
ticks nor reports for ``heartbeat_timeout`` wall-clock seconds is
declared hung.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.sim.engine import Simulator

#: Heartbeat: called by a worker whenever it has made progress.
Tick = Callable[[], None]

#: A partition worker: builds the partition's world from the task
#: payload, replays it (ticking as it goes) and returns one picklable
#: result.  Must be a module-level callable so it pickles to worker
#: processes.
PartitionWorker = Callable[["PartitionTask", Tick], Any]

#: Slices :func:`run_to_horizon` cuts a replay into, i.e. heartbeats per
#: partition.  Results never depend on it (slicing a run executes the
#: same events in the same order); it only sets how soon a hung worker
#: is noticed relative to a partition's run time.
HEARTBEAT_SLICES = 16


class PartitionSupervisionError(SimulationError):
    """A partition process stalled past the heartbeat deadline.

    Carries the indices of the partitions that were running in the
    stalled processes and whatever results the healthy partitions had
    already delivered, so callers can report partial progress instead of
    blocking forever on a hung child.
    """

    def __init__(
        self,
        message: str,
        partitions: Sequence[int],
        results: Optional[Dict[int, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.partitions = tuple(partitions)
        self.results: Dict[int, Any] = dict(results or {})


@dataclass(frozen=True)
class PartitionTask:
    """One partition's slice of the run.

    ``payload`` is an opaque picklable description of the slice (for the
    ``scale`` family: the scenario config plus the pod index).
    """

    index: int
    payload: Any = None


def run_to_horizon(simulator: Simulator, horizon: float, tick: Tick) -> None:
    """Replay ``simulator`` up to ``horizon``, ticking between slices.

    The last slice ends at exactly ``horizon``, so the clock reads the
    horizon when this returns — whatever a caller samples next is taken
    there.
    """
    for step in range(1, HEARTBEAT_SLICES):
        simulator.run(until=horizon * step / HEARTBEAT_SLICES)
        tick()
    simulator.run(until=horizon)
    tick()


def _no_tick() -> None:
    """The in-process heartbeat: nobody is listening."""


def run_partition_serially(worker: PartitionWorker, task: PartitionTask) -> List[Any]:
    """Run one partition in this process; returns its result as ``[result]``.

    The one-element list is what a partition "ships".  The serial path
    calls this through the module global, and the repository benchmark's
    tracer (``benchmarks/perf/tracing.py``) rebinds that global to
    pickle each element, which is how ``experiments.transport_*`` is
    measured in a one-process run — keep the name and the shape.
    """
    return [worker(task, _no_tick)]


def _failure(index: int, exc: BaseException) -> str:
    """The one message a failed partition is reported with."""
    return f"partition {index} failed: {type(exc).__name__}: {exc}"


def _partition_process_main(
    worker: PartitionWorker, tasks: Sequence[PartitionTask], connection: Any
) -> None:
    """Child-process entry: run the assigned partitions, report each.

    Messages on the pipe: ``None`` is a tick; ``(True, result)`` the
    partition being run has finished (partitions run in plan order, so
    the coordinator knows which); ``(False, message)`` it failed, after
    which the process stops (the run is lost anyway).
    """

    def tick() -> None:
        connection.send(None)

    try:
        for task in tasks:
            try:
                connection.send((True, worker(task, tick)))
            except BaseException as exc:  # noqa: BLE001 - relayed, then re-raised
                connection.send((False, _failure(task.index, exc)))
                raise
    finally:
        connection.close()


def run_partitioned(
    worker: PartitionWorker,
    tasks: Sequence[PartitionTask],
    processes: int = 1,
    mp_context: Optional[multiprocessing.context.BaseContext] = None,
    heartbeat_timeout: Optional[float] = None,
) -> List[Any]:
    """Execute every partition task; returns the results in task order.

    ``processes=1`` runs all partitions serially in this process (no
    pipes, no pickling); ``processes=N`` distributes partitions
    round-robin over N worker processes — at most ``len(tasks)`` of
    them, so extra processes never spawn idle workers.  Both paths run
    the same worker code, so the results are identical for any
    ``processes`` value.

    A worker that raises ends the run with one :class:`SimulationError`
    naming the partition and the cause, whatever ``processes`` is; the
    remaining children are terminated and joined.

    ``heartbeat_timeout`` supervises the multi-process path: a process
    that sends nothing (neither a tick nor a result) for that many
    wall-clock seconds is declared hung, every child is terminated, and
    :class:`PartitionSupervisionError` is raised naming the partitions
    that were running, with the results collected so far attached —
    instead of the coordinator blocking in its receive loop forever.
    ``None`` (the default) disables supervision.
    """
    indices = [task.index for task in tasks]
    if len(set(indices)) != len(indices):
        raise SimulationError(f"partition indices must be unique, got {indices!r}")
    if processes < 1:
        raise SimulationError(f"processes must be positive, got {processes!r}")
    if heartbeat_timeout is not None and heartbeat_timeout <= 0:
        raise SimulationError(
            f"heartbeat_timeout must be positive, got {heartbeat_timeout!r}"
        )

    if processes == 1 or len(tasks) <= 1:
        shipped: List[Any] = []
        for task in tasks:
            try:
                shipped.extend(run_partition_serially(worker, task))
            except Exception as exc:
                raise SimulationError(_failure(task.index, exc)) from exc
        return shipped

    context = mp_context if mp_context is not None else multiprocessing.get_context()
    num_processes = min(processes, len(tasks))
    children: List[Any] = []
    connections: List[Any] = []
    #: receive end -> indices the process has yet to report, running one first.
    pending: Dict[Any, Deque[int]] = {}
    results: Dict[int, Any] = {}
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
        _receive(pending, results, heartbeat_timeout)
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


def _receive(
    pending: Dict[Any, Deque[int]],
    results: Dict[int, Any],
    heartbeat_timeout: Optional[float],
) -> None:
    """Fill ``results`` until every process has reported all its partitions.

    A relayed worker failure raises :class:`SimulationError` with the
    partition's own message; a process that exits without reporting
    (killed, ``os._exit``) raises one naming the partitions it still
    owed; with ``heartbeat_timeout`` set, a process silent for longer
    raises :class:`PartitionSupervisionError`.
    """
    from multiprocessing.connection import wait

    last_heard = {connection: time.monotonic() for connection in pending}
    while pending:
        ready = wait(list(pending), timeout=heartbeat_timeout)
        now = time.monotonic()
        lost: List[int] = []
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
            names = ", ".join(str(index) for index in sorted(lost))
            raise SimulationError(
                f"a partition process exited without reporting partition(s) {names}"
            )
        if heartbeat_timeout is None:
            continue
        stalled = sorted(
            owed[0]
            for connection, owed in pending.items()
            if now - last_heard[connection] > heartbeat_timeout
        )
        if stalled:
            names = ", ".join(str(index) for index in stalled)
            raise PartitionSupervisionError(
                f"partition(s) {names} sent no heartbeat for more than "
                f"{heartbeat_timeout:g}s (hung worker); "
                f"{len(results)} partition(s) had already completed",
                partitions=stalled,
                results=results,
            )
