"""Parallel experiment runner: fan independent runs out over processes.

The paper's evaluation is a grid of *independent, deterministic* runs —
five policies × many load factors for Figure 2, one run per policy for
the Wikipedia replay, one run per candidate-selection scheme for the
resilience family.  Each cell builds its own simulator from a seed, so
nothing is shared between cells and the whole grid parallelises
trivially across processes.  :class:`SweepRunner` is that fan-out: a
thin wrapper around a :mod:`multiprocessing` pool that maps a picklable
*task* description to a picklable result.

Determinism contract
--------------------
``jobs`` never changes results, only wall-clock time:

* every task carries the full, seeded description of its run (configs
  are frozen dataclasses); workers rebuild the simulator, regenerate the
  workload trace from the seed, and run exactly the same code path as an
  in-process run;
* workers return the same run results a serial run builds; the
  collector inside pickles itself as :mod:`numpy` arrays plus scalars
  (see :class:`~repro.metrics.collector.CollectorPayload`), so the
  floats cross the process boundary verbatim and every derived series
  is bit-for-bit identical;
* ``jobs=1`` does not create a pool at all — it falls back to the exact
  serial in-process path (nothing is pickled), which is what the
  determinism tests pin the parallel path against.

The experiment entry points (:meth:`PoissonSweep.run
<repro.experiments.poisson_experiment.PoissonSweep.run>`,
:meth:`WikipediaReplay.run
<repro.experiments.wikipedia_experiment.WikipediaReplay.run>` and
:func:`run_resilience_comparison
<repro.experiments.resilience_experiment.run_resilience_comparison>`)
accept a ``jobs`` argument and route through this module; the CLI
exposes it as ``--jobs``.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.errors import ExperimentError

TaskT = TypeVar("TaskT")
PayloadT = TypeVar("PayloadT")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` request to a concrete worker count.

    ``None`` and ``0`` both mean "all cores" (``os.cpu_count()``);
    anything below zero is rejected.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ExperimentError(f"jobs must be >= 0, got {jobs!r}")
    return jobs


class SweepRunner:
    """Maps a worker function over independent experiment tasks.

    Parameters
    ----------
    jobs:
        Worker processes to fan out over.  ``1`` runs every task
        in-process (no pool, no pickling); ``None`` or ``0`` uses all
        cores.  Results are returned in task order in every mode.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = resolve_jobs(jobs)

    @property
    def serial(self) -> bool:
        """Whether this runner executes tasks in-process."""
        return self.jobs == 1

    def map(
        self,
        worker: Callable[[TaskT], PayloadT],
        tasks: Sequence[TaskT],
    ) -> List[PayloadT]:
        """Run ``worker`` over every task and return results in order.

        ``worker`` must be a module-level callable and the tasks (and
        results) picklable when ``jobs > 1``; with one task or one job
        everything stays in-process and no pickling happens.
        """
        tasks = list(tasks)
        if self.serial or len(tasks) <= 1:
            return [worker(task) for task in tasks]
        processes = min(self.jobs, len(tasks))
        with multiprocessing.get_context().Pool(processes=processes) as pool:
            return pool.map(worker, tasks)
