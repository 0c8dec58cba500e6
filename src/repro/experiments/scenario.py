"""Declarative scenario framework: one experiment pipeline, many families.

The paper's evaluation — and every workload family grown on top of it —
is structurally the same experiment: *build a trace, replay it against a
fresh testbed per cell, collect response-time/load metrics, aggregate
into figures*.  This module captures that pipeline once, so a scenario
family is a small declarative spec instead of ~300 lines of bespoke
sweep plumbing.

A family subclasses :class:`ScenarioSpec` and declares its grid: the
config tuple its cells enumerate (:attr:`ScenarioSpec.grid` —
``policies``, ``modes`` or ``selection_schemes``), from which the
default ``cells(config)`` makes one key-only, picklable
:class:`ScenarioCell` per entry.  It provides:

* ``make_trace(config, cell)`` — the deterministic workload trace of a
  cell (cells may share a trace, see :meth:`ScenarioSpec.trace_key`);
* ``run_once(config, cell, trace)`` — build a fresh testbed (``with
  build_testbed(...) as testbed:``, so it is freed when the run is
  done), replay the trace on it and return a :class:`RunResult` (or a
  family subclass carrying data that is not a counter).  The result is
  what crosses the process boundary, so it must pickle — and pickle
  compactly, which it does by holding its outcomes in a
  :class:`~repro.metrics.collector.ResponseTimeCollector` and its
  testbed's counters in one flat dict;
* ``render(result)`` — the family's headline figure;

and may override ``meta(config, trace_for)`` (scenario-wide values for
the result), ``cells`` (a grid that is not one tuple: the Poisson
load-factor × policy grid, scale's pods) or
``aggregate(config, cells, runs, trace_for)``, whose default keys each
run by its cell into a :class:`ScenarioResult`.  The
family's sub-command is generated from its config's fields (see
:mod:`repro.experiments.params`); ``config_from_flags`` and ``report``
are the two places a family may bend it.

:func:`run_scenario` is the only entry point: it resolves the spec (by
name through :mod:`repro.experiments.registry`), enumerates the cells,
and runs them — in this process, or one task per cell on the supervised
worker processes of :func:`repro.sim.partition.run_partitioned`.  The
CLI, the benchmarks, the examples and the tests all run a family through
it.

Determinism contract
--------------------
``jobs`` never changes results, only wall-clock time.  Every cell
carries the full, seeded description of its run (configs are frozen
dataclasses) and builds its own simulator, so nothing is shared between
cells.  A serial run (``jobs=1``, or a single cell) starts no process
and pickles nothing, and shares each trace across the cells that declare
the same :meth:`~ScenarioSpec.trace_key`; a parallel run regenerates the
trace inside the worker from ``(config, cell)`` — which must be (and for
every built-in family is) bit-for-bit the same trace.  An explicit
``trace=`` handed to :func:`run_scenario` is shipped to the workers
verbatim instead.  A parallel run's results come home pickled (a
collector pickles as arrays and scalars, so the floats cross verbatim);
a serial run's are not pickled at all.  Both carry the same outcome
fields.

A cell that raises in a worker, a worker that dies and a worker that
stops ticking each end the run in one
:class:`~repro.errors.SimulationError` naming the cell(s) and no
surviving process (see :mod:`repro.sim.partition`).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ExperimentError
from repro.experiments import registry
from repro.experiments.config import PolicySpec
from repro.metrics.collector import ResponseTimeCollector
from repro.telemetry import runtime as telemetry_runtime
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.platform import Testbed
    from repro.sim.partition import PartitionTask, Tick


@dataclass(frozen=True)
class ScenarioCell:
    """One independent run of a scenario.

    ``key`` identifies the cell inside its family's result (e.g.
    ``("SR4", 0.75)`` for a Poisson sweep cell, ``"consistent-hash"``
    for a resilience cell); ``params`` carries whatever the spec's
    ``make_trace``/``run_once`` need to execute the cell.  Both must be
    picklable — cells cross the process boundary when ``jobs > 1``.
    """

    key: Any
    params: Mapping[str, Any] = field(default_factory=dict)

    def param(self, name: str) -> Any:
        """A required parameter of the cell (loud when missing)."""
        try:
            return self.params[name]
        except KeyError as exc:
            raise ExperimentError(
                f"scenario cell {self.key!r} has no parameter {name!r}"
            ) from exc


@dataclass
class RunResult:
    """One cell's run: its outcomes, its testbed's counters, how long it ran.

    ``counters`` is :meth:`~repro.experiments.platform.Testbed.counters`
    read once the run is over (``server.requests_served``,
    ``client.queries_gave_up``, ...), and ``duration`` the simulated
    time the run ended at.  A family whose run also yields data that is
    not a counter subclasses this with only that data; the cell key and
    the family config live in the :class:`ScenarioResult`.
    """

    collector: ResponseTimeCollector
    counters: Dict[str, float]
    duration: float

    @classmethod
    def of(cls, testbed: Testbed, duration: float, **data: Any) -> "RunResult":
        """The result of a finished ``testbed``'s run."""
        return cls(testbed.collector, testbed.counters(), duration, **data)

    def completion_rate(self, queries: int) -> float:
        """Fraction of ``queries`` that completed."""
        return self.collector.totals.completed / queries


def policy_named(config: Any, name: str) -> PolicySpec:
    """The entry of ``config.policies`` called ``name`` (a policy cell's key)."""
    for policy in config.policies:
        if policy.name == name:
            return policy
    raise ExperimentError(f"no policy named {name!r} in the configuration")


#: ``aggregate`` receives this callable to obtain the parent-side trace
#: of a cell on demand (cached per trace key, generated lazily so a
#: parallel run does not regenerate traces it never reads).
TraceProvider = Callable[[ScenarioCell], Trace]


@dataclass
class ScenarioResult:
    """Generic aggregate of a scenario run: one entry per cell key.

    What :meth:`ScenarioSpec.aggregate` builds by default; scenario-wide
    data (the Wikipedia replay's trace summary, the heavy-tail user
    profile, a saturation rate) goes in :attr:`meta`.  Only ``scale``,
    whose cells are the pods of one run, aggregates into a class of its
    own.
    """

    scenario: str
    config: Any
    runs: Dict[Any, Any] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def run(self, key: Any) -> Any:
        """The run recorded under ``key``."""
        try:
            return self.runs[key]
        except KeyError as exc:
            raise ExperimentError(
                f"scenario {self.scenario!r} has no run for key {key!r}"
            ) from exc

    def keys(self) -> List[Any]:
        """Cell keys, in execution order."""
        return list(self.runs)


class ScenarioSpec(ABC):
    """Declarative description of one experiment family.

    Subclasses set :attr:`name` (the registry key, also the CLI-facing
    identifier), implement the abstract pipeline methods, and register
    themselves via :func:`repro.experiments.registry.register`.  A
    built-in family's title and default config are its catalogue row's
    (:mod:`repro.experiments.registry`); a spec defined elsewhere sets
    ``title`` and overrides :meth:`default_config` itself.
    """

    #: Registry key; stable, CLI-facing (e.g. ``"flash-crowd"``).
    name: str = ""

    #: The config tuple whose entries are the family's cells:
    #: ``policies`` (keyed by name), ``modes`` or ``selection_schemes``.
    grid: str = "policies"

    @property
    def title(self) -> str:
        """One-line human description shown by ``srlb-repro scenarios``."""
        return registry.family(self.name).title

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def default_config(self) -> Any:
        """The family's paper-faithful default: its config class's defaults."""
        return registry.family(self.name).config()

    @abstractmethod
    def smoke_config(self) -> Any:
        """A deliberately tiny configuration for tests and smoke runs."""

    # ------------------------------------------------------------------
    # the pipeline
    # ------------------------------------------------------------------
    def cells(self, config: Any) -> List[ScenarioCell]:
        """The grid of independent runs described by ``config``.

        One key-only cell per entry of the config tuple :attr:`grid`
        names, in config order; a policy's key is its name.  A family
        that takes run-time switches (the Poisson sweep's
        ``sample_load``) overrides this and puts them in the cells'
        ``params``, because workers only see the cells.
        """
        return [
            ScenarioCell(getattr(entry, "name", entry))
            for entry in getattr(config, self.grid)
        ]

    @abstractmethod
    def make_trace(self, config: Any, cell: ScenarioCell) -> Trace:
        """The cell's workload trace.

        Must be a pure, deterministic function of ``(config, cell)`` —
        worker processes regenerate the trace from exactly these arguments,
        and the determinism contract requires both paths to agree.
        """

    def trace_key(self, config: Any, cell: ScenarioCell) -> Hashable:
        """Cells with equal trace keys share one trace in a serial run.

        The default (a single shared key) matches families that replay
        one trace under every cell; the Poisson sweep keys by load
        factor instead.
        """
        return None

    @abstractmethod
    def run_once(self, config: Any, cell: ScenarioCell, trace: Trace) -> Any:
        """Replay ``trace`` on a fresh testbed; return the (picklable) run result."""

    def meta(self, config: Any, trace_for: TraceProvider) -> Dict[str, Any]:
        """Scenario-wide values the default :meth:`aggregate` records.

        ``trace_for`` gives the parent-side trace of a cell, for values
        read off the workload rather than the runs.
        """
        return {}

    def aggregate(
        self,
        config: Any,
        cells: Sequence[ScenarioCell],
        runs: Sequence[Any],
        trace_for: TraceProvider,
    ) -> Any:
        """Fold per-cell runs (in cell order) into the family result.

        The default keys each run by its cell's key.
        """
        return ScenarioResult(
            scenario=self.name,
            config=config,
            runs={cell.key: run for cell, run in zip(cells, runs)},
            meta=self.meta(config, trace_for),
        )

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------
    def render(self, result: Any) -> str:
        """The family's headline figure, as a text table."""
        raise ExperimentError(f"scenario {self.name!r} defines no figure")

    # ------------------------------------------------------------------
    # the sub-command (generated by repro.cli from the config's fields)
    # ------------------------------------------------------------------
    def config_from_flags(self, config: Any, flags: Any) -> Any:
        """Finish ``config`` from parsed flags that are not fields.

        ``config`` already holds every flag a field declares; ``flags``
        is the parsed namespace.  Override where a flag derives fields
        instead of being one (a churn schedule, a time factor).
        """
        return config

    def report(self, result: Any) -> str:
        """Everything the sub-command prints for a finished run.

        The headline figure by default; override where the shell shows
        more (or something other) than :meth:`render`.
        """
        return self.render(result)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass(frozen=True)
class ScenarioTask:
    """Picklable description of one cell's run, shipped to worker processes.

    Only the scenario *name* crosses the boundary; the worker re-resolves
    the spec through the registry (built-in families are imported on
    demand, so this works under any multiprocessing start method).
    """

    scenario: str
    config: Any
    cell: ScenarioCell
    trace: Optional[Trace] = None


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


def _run_scenario_cell(task: PartitionTask, tick: Tick) -> Tuple[Any, List[Any]]:
    """Worker: resolve the spec, rebuild the trace, run one cell.

    Returns the run and the ``(run_name, TelemetryPayload)`` pairs the
    cell published (none when telemetry is off).  Ticks at the start,
    once the trace is made, and between the slices of the replay.
    """
    from repro.experiments import platform

    previous, platform.tick = platform.tick, tick
    try:
        tick()
        work: ScenarioTask = task.payload
        spec = registry.get(work.scenario)
        trace = (
            work.trace
            if work.trace is not None
            else spec.make_trace(work.config, work.cell)
        )
        tick()
        return spec.run_once(work.config, work.cell, trace), telemetry_runtime.drain()
    finally:
        platform.tick = previous


def run_scenario(
    scenario: Union[str, ScenarioSpec],
    config: Any = None,
    jobs: Optional[int] = 1,
    trace: Optional[Trace] = None,
    **options: Any,
) -> Any:
    """Run a scenario end to end and return its aggregated result.

    Parameters
    ----------
    scenario:
        A registered scenario name or a :class:`ScenarioSpec` instance.
    config:
        The family's configuration; ``None`` uses its default.
    jobs:
        Worker processes for the independent cells (``1`` = in-process,
        ``None``/``0`` = all cores).  Results are identical for any
        value — see the module docstring.
    trace:
        Optional explicit workload trace replayed by *every* cell
        (shipped to workers verbatim); ``None`` lets the spec generate
        per-cell traces.
    options:
        Family-specific switches forwarded to
        :meth:`ScenarioSpec.cells` (the Poisson sweep's ``sample_load``).
    """
    spec = scenario if isinstance(scenario, ScenarioSpec) else registry.get(scenario)
    if config is None:
        config = spec.default_config()
    cells = list(spec.cells(config, **options))
    if not cells:
        raise ExperimentError(f"scenario {spec.name!r} produced no cells to run")
    # Results are keyed by cell: a repeated key would run the cell twice
    # and keep one of the two.
    keys = set()
    for cell in cells:
        if cell.key in keys:
            raise ExperimentError(
                f"scenario {spec.name!r} lists cell {cell.key!r} more than once"
            )
        keys.add(cell.key)

    trace_cache: Dict[Hashable, Trace] = {}

    def trace_for(cell: ScenarioCell) -> Trace:
        key = spec.trace_key(config, cell)
        if key not in trace_cache:
            trace_cache[key] = (
                trace if trace is not None else spec.make_trace(config, cell)
            )
        return trace_cache[key]

    report = None
    if telemetry_runtime.telemetry_enabled():
        # A bad REPRO_TELEMETRY_* value is a usage error of the whole
        # run: raise it here, not from inside every worker process.
        telemetry_runtime.sampling_interval()
        telemetry_runtime.ring_capacity()
        report = telemetry_runtime.TelemetryReport()

    processes = resolve_jobs(jobs)
    # The executor loads on a run's first use; multiprocessing only with
    # a fan-out.
    from repro.sim.partition import PartitionTask, run_partition_serially, run_partitioned

    if processes == 1 or len(cells) == 1:
        # Each cell is a task run in this process, on the shared traces;
        # the benchmark's tracer measures transport by wrapping this call.
        def run_cell(task: PartitionTask, tick: Tick) -> Tuple[Any, List[Any]]:
            cell = task.payload
            run = spec.run_once(config, cell, trace_for(cell))
            return run, telemetry_runtime.drain()

        outcomes = [
            run_partition_serially(run_cell, PartitionTask(cell.key, cell))[0]
            for cell in cells
        ]
    else:
        tasks = [
            PartitionTask(cell.key, ScenarioTask(spec.name, config, cell, trace))
            for cell in cells
        ]
        outcomes = run_partitioned(_run_scenario_cell, tasks, processes=processes)
    runs = []
    for cell, (run, published) in zip(cells, outcomes):
        runs.append(run)
        if report is not None:
            report.add(cell.key, published)
    # Before the aggregate, which may fold the cells' entries (scale).
    telemetry_runtime.set_last_report(report)
    return spec.aggregate(config, cells, runs, trace_for)
