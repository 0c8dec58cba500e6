"""CPU models for the application servers.

The paper's application servers are 2-core VMs running a CPU-bound PHP
workload under Apache's ``mpm_prefork``: each request occupies a worker
process and needs a given amount of CPU time, and the operating system
time-slices the runnable workers across the two cores.  The dominant
effect on response times is therefore *processor sharing*: when ``k``
workers are runnable on ``m`` cores, each progresses at rate
``min(1, m/k)``.

Two CPU models are provided:

* :class:`ProcessorSharingCPU` — the default, faithful to the testbed
  (time-sliced cores).
* :class:`FIFOCPU` — an ablation model where each core runs one job to
  completion (run-to-completion scheduling).

Both expose the same interface, ``add_job(job_id, demand, on_complete)``
and ``set_speed``.  Neither keeps utilization history: the load a figure
plots is sampled off the scoreboard by ``ServerLoadSampler``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ServerError
from repro.sim.engine import NO_ARG, EventHandle, HeapEntry, Simulator

#: Completion callback: receives the job id.
JobCompletionCallback = Callable[[int], None]

#: Numerical tolerance when deciding that a job's remaining demand is zero.
_REMAINING_EPSILON = 1e-12

_INFINITY = float("inf")


@dataclass(slots=True)
class _Job:
    """Internal per-job state."""

    remaining: float
    on_complete: JobCompletionCallback


class CPUModel:
    """Common bookkeeping shared by the CPU scheduling models.

    ``speed`` is a multiplier on execution rate: a job with demand ``d``
    seconds finishes in ``d / speed`` seconds of dedicated core time.
    The default of 1.0 is the paper's homogeneous fleet; the
    heterogeneous-fleet scenario mixes speed tiers.
    """

    def __init__(
        self,
        simulator: Simulator,
        num_cores: int,
        name: str = "cpu",
        speed: float = 1.0,
    ) -> None:
        if num_cores <= 0:
            raise ServerError(f"number of cores must be positive, got {num_cores!r}")
        if speed <= 0:
            raise ServerError(f"CPU speed must be positive, got {speed!r}")
        self.simulator = simulator
        self.num_cores = num_cores
        self.speed = speed
        self.name = name
        #: Event label shared by every completion this CPU schedules
        #: (completions are rescheduled on every job arrival, so the
        #: label is formatted once, not once per reschedule).
        self._completion_label = f"{name}-completion"

    # -- interface ------------------------------------------------------
    def add_job(
        self, job_id: int, demand: float, on_complete: JobCompletionCallback
    ) -> None:
        """Submit a job requiring ``demand`` seconds of CPU time."""
        raise NotImplementedError

    def set_speed(self, speed: float) -> None:
        """Change the execution-rate multiplier mid-run.

        The server lifecycle uses this for warm-up: a freshly provisioned
        server executes at a reduced speed until its caches/JIT are warm,
        then is restored to nominal.  Subclasses that keep scheduled
        completion events must re-plan them for the new rate.
        """
        raise NotImplementedError


class ProcessorSharingCPU(CPUModel):
    """Egalitarian processor sharing over ``num_cores`` cores.

    All active jobs progress simultaneously at rate
    ``min(1, num_cores / active_jobs)``.  The implementation advances the
    remaining demand of every job lazily whenever the job set changes and
    keeps a single scheduled event (a raw heap entry) for the earliest completion.
    """

    def __init__(
        self,
        simulator: Simulator,
        num_cores: int,
        name: str = "cpu",
        speed: float = 1.0,
    ) -> None:
        super().__init__(simulator, num_cores, name, speed)
        self._jobs: Dict[int, _Job] = {}
        self._last_progress = simulator.now
        self._completion: Optional[HeapEntry] = None

    def _replan(
        self,
        job_id: Optional[int] = None,
        job: Optional[_Job] = None,
        speed: Optional[float] = None,
    ) -> None:
        """The one place the job set or the rate changes, in one frame.

        Charges the CPU progress made since the last change to every
        active job, applies the change —
        an arriving ``job``, a new ``speed``, or, called with neither,
        the completion event firing — and re-arms the single completion
        entry for the earliest finish.  Completed jobs' callbacks run
        last, once the plan is consistent again.
        """
        simulator = self.simulator
        now = simulator.clock._now
        jobs = self._jobs
        active = len(jobs)
        cores = self.num_cores
        rate = self.speed * (1.0 if cores >= active else cores / active)
        # Charge elapsed progress to every job at the per-job rate
        # ``speed * min(1, cores / active)``.
        elapsed = now - self._last_progress
        # ``remaining - 0.0`` is ``remaining``, bit for bit: one loop
        # charges the progress (if any), retires what the completion
        # entry finished and finds the earliest finish.
        progress = elapsed * rate if elapsed > 0 and active else 0.0
        self._last_progress = now
        fired = job is None and speed is None
        if fired:
            self._completion = None
        completed: List[Tuple[int, _Job]] = []
        min_remaining = _INFINITY
        for running_id, running in jobs.items():
            remaining = running.remaining = running.remaining - progress
            # A job is done when its remaining demand is negligible, or
            # when the clock cannot resolve it: ``now + remaining / rate
            # == now`` would re-arm this completion at ``now`` with no
            # progress to charge, forever (late in a long replay,
            # ``ulp(now)`` exceeds the epsilon).
            if fired and (
                remaining <= _REMAINING_EPSILON or now + remaining / rate <= now
            ):
                completed.append((running_id, running))
            elif remaining < min_remaining:
                min_remaining = remaining
        for running_id, _ in completed:
            del jobs[running_id]
        if job is not None:
            jobs[job_id] = job
            if job.remaining < min_remaining:
                min_remaining = job.remaining
        elif speed is not None:
            self.speed = speed

        # Re-arm the completion for the earliest finish.
        if self._completion is not None:
            simulator._cancel(self._completion)
            self._completion = None
        if jobs:
            if not min_remaining > 0.0:
                min_remaining = 0.0
            active = len(jobs)
            rate = self.speed * (1.0 if cores >= active else cores / active)
            self._completion = simulator._schedule_raw(
                self._replan, NO_ARG, min_remaining / rate, self._completion_label
            )

        for done_id, done in completed:
            done.on_complete(done_id)

    def add_job(
        self, job_id: int, demand: float, on_complete: JobCompletionCallback
    ) -> None:
        if demand <= 0:
            raise ServerError(f"job demand must be positive, got {demand!r}")
        if job_id in self._jobs:
            raise ServerError(f"job {job_id!r} is already running on {self.name!r}")
        # Positional: a class call with keywords allocates a dict per job.
        self._replan(job_id, _Job(demand, on_complete))

    def set_speed(self, speed: float) -> None:
        if speed <= 0:
            raise ServerError(f"CPU speed must be positive, got {speed!r}")
        if speed == self.speed:
            return
        # Charge progress at the old rate up to now, then re-plan the
        # earliest completion at the new rate.
        self._replan(speed=speed)


class FIFOCPU(CPUModel):
    """Run-to-completion scheduling: each core runs one job at a time.

    Jobs queue in FIFO order behind the cores.  Used as an ablation of
    the CPU scheduling assumption.
    """

    def __init__(
        self,
        simulator: Simulator,
        num_cores: int,
        name: str = "cpu",
        speed: float = 1.0,
    ) -> None:
        super().__init__(simulator, num_cores, name, speed)
        self._running: Dict[int, _Job] = {}
        self._running_events: Dict[int, EventHandle] = {}
        self._queue: Deque[int] = deque()
        self._queued_jobs: Dict[int, _Job] = {}

    def add_job(
        self, job_id: int, demand: float, on_complete: JobCompletionCallback
    ) -> None:
        if demand <= 0:
            raise ServerError(f"job demand must be positive, got {demand!r}")
        if job_id in self._running or job_id in self._queued_jobs:
            raise ServerError(f"job {job_id!r} is already running on {self.name!r}")
        job = _Job(demand, on_complete)
        if len(self._running) < self.num_cores:
            self._start(job_id, job)
        else:
            self._queue.append(job_id)
            self._queued_jobs[job_id] = job

    def _start(self, job_id: int, job: _Job) -> None:
        self._running[job_id] = job
        handle = self.simulator.schedule_in(
            job.remaining / self.speed,
            lambda: self._complete(job_id),
            label=self._completion_label,
        )
        self._running_events[job_id] = handle

    def _complete(self, job_id: int) -> None:
        job = self._running.pop(job_id)
        self._running_events.pop(job_id, None)
        self._dequeue_next()
        job.on_complete(job_id)

    def _dequeue_next(self) -> None:
        while self._queue and len(self._running) < self.num_cores:
            next_id = self._queue.popleft()
            next_job = self._queued_jobs.pop(next_id)
            self._start(next_id, next_job)

    def set_speed(self, speed: float) -> None:
        if speed <= 0:
            raise ServerError(f"CPU speed must be positive, got {speed!r}")
        if speed == self.speed:
            return
        old_speed = self.speed
        self.speed = speed
        now = self.simulator.now
        # Re-plan every running job's completion for the new rate: the
        # remaining wall time at the old rate encodes the remaining
        # demand exactly (run-to-completion, no sharing).
        for job_id, handle in list(self._running_events.items()):
            remaining_demand = max(0.0, handle.time - now) * old_speed
            handle.cancel()
            self._running_events[job_id] = self.simulator.schedule_in(
                remaining_demand / speed,
                lambda jid=job_id: self._complete(jid),
                label=self._completion_label,
            )


_CPU_CLASSES = {"processor-sharing": ProcessorSharingCPU, "fifo": FIFOCPU}

#: The names :func:`make_cpu` builds, and ``TestbedConfig.cpu_model``'s choices.
CPU_MODELS = tuple(_CPU_CLASSES)


def make_cpu(
    simulator: Simulator,
    num_cores: int,
    model: str = "processor-sharing",
    name: str = "cpu",
    speed: float = 1.0,
) -> CPUModel:
    """Factory for CPU models, keyed by a configuration string."""
    cpu_class = _CPU_CLASSES.get(model)
    if cpu_class is None:
        raise ServerError(f"unknown CPU model {model!r}")
    return cpu_class(simulator, num_cores, name, speed)
