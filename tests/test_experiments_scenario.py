"""Tests for the declarative scenario framework, registry, and the two
new workload families (flash-crowd and heterogeneous-fleet)."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import multiprocessing
import os
import pathlib
import pickle
import signal
import subprocess
import sys
from multiprocessing.reduction import ForkingPickler

import pytest

from repro.errors import ExperimentError, SimulationError
from repro.experiments import registry
from repro.experiments.config import (
    FlashCrowdConfig,
    HeterogeneousFleetConfig,
    TestbedConfig,
    rr_policy,
    sr_policy,
)
from repro.experiments.flash_crowd_experiment import (
    FLASH_CROWD_SCENARIO,
    phase_summary,
    phase_window,
)
from repro.experiments.heterogeneous_experiment import (
    HETEROGENEOUS_SCENARIO,
    capacity_fairness_index,
    tier_acceptance_shares,
)
from repro.experiments.scenario import (
    RunResult,
    ScenarioResult,
    ScenarioSpec,
    ScenarioTask,
    run_scenario,
)
from repro.workload.flash_crowd import RatePhase, SteppedPoissonWorkload

import numpy as np


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_families_are_registered(self):
        names = registry.names()
        for expected in (
            "poisson",
            "wikipedia",
            "resilience",
            "flash-crowd",
            "heterogeneous-fleet",
        ):
            assert expected in names

    def test_get_unknown_scenario_is_loud(self):
        with pytest.raises(ExperimentError, match="unknown scenario"):
            registry.get("nope")

    def test_reregistering_the_same_spec_is_idempotent(self):
        spec = registry.get("poisson")
        assert registry.register(spec) is spec

    def test_conflicting_name_is_rejected(self):
        class Impostor(ScenarioSpec):
            name = "poisson"

            def default_config(self):
                raise NotImplementedError

            def smoke_config(self):
                raise NotImplementedError

            def cells(self, config, **options):
                raise NotImplementedError

            def make_trace(self, config, cell):
                raise NotImplementedError

            def run_once(self, config, cell, trace):
                raise NotImplementedError

            def aggregate(self, config, cells, payloads, trace_for):
                raise NotImplementedError

        with pytest.raises(ExperimentError, match="already registered"):
            registry.register(Impostor())

    def test_every_spec_has_name_title_and_smoke_config(self):
        for spec in registry.specs():
            assert spec.name
            assert spec.title
            assert spec.smoke_config() is not None
            assert spec.default_config() is not None


# ----------------------------------------------------------------------
# framework plumbing
# ----------------------------------------------------------------------
class TestScenarioCell:
    def test_cells_and_tasks_are_picklable(self):
        spec = registry.get("poisson")
        config = spec.smoke_config()
        for cell in spec.cells(config):
            task = ScenarioTask(scenario=spec.name, config=config, cell=cell)
            restored = pickle.loads(pickle.dumps(task))
            assert restored.cell.key == cell.key


class TestScenarioResult:
    def test_run_lookup_and_keys(self):
        result = ScenarioResult(scenario="s", config=None, runs={"a": 1, "b": 2})
        assert result.run("a") == 1
        assert result.keys() == ["a", "b"]

    def test_missing_key_is_loud(self):
        with pytest.raises(ExperimentError, match="no run"):
            ScenarioResult(scenario="s", config=None).run("missing")


class TestRunScenario:
    def test_unknown_name_is_loud(self):
        with pytest.raises(ExperimentError, match="unknown scenario"):
            run_scenario("not-a-scenario")

    def test_serial_path_shares_traces_per_key(self):
        """Cells with equal trace keys see the identical Trace object."""
        spec = registry.get("poisson")
        config = spec.smoke_config()
        seen = []
        original = type(spec).run_once

        def spy(self, config, cell, trace):
            seen.append(trace)
            return original(self, config, cell, trace)

        type(spec).run_once = spy
        try:
            run_scenario(spec, config, jobs=1)
        finally:
            type(spec).run_once = original
        # One load factor, two policies -> both cells share one trace.
        assert len(seen) == 2
        assert seen[0] is seen[1]


    @pytest.mark.parametrize("jobs", (1, 2))
    def test_repeated_cell_key_is_refused_before_anything_runs(self, jobs, monkeypatch):
        spec = registry.get("poisson")
        config = dataclasses.replace(
            spec.smoke_config(), policies=(rr_policy(), sr_policy(4), rr_policy())
        )
        monkeypatch.setattr(
            type(spec), "run_once", lambda *args: pytest.fail("a cell ran")
        )
        with pytest.raises(ExperimentError, match=r"\('RR', 0\.5\).*more than once"):
            run_scenario(spec, config, jobs=jobs)


class TestRunResultWireFormat:
    """A run result crosses a process boundary as itself, for every family.

    ``scale`` is left out: its result is columns already (PR 16) and its
    table prints wall-clock.
    """

    @pytest.mark.parametrize(
        "name", [name for name in registry.names() if name != "scale"]
    )
    def test_every_run_survives_the_pool_pickle_compactly(self, name):
        spec = registry.get(name)
        config = spec.smoke_config()
        cells = spec.cells(config)
        traces = {}

        def trace_for(cell):
            key = spec.trace_key(config, cell)
            if key not in traces:
                traces[key] = spec.make_trace(config, cell)
            return traces[key]

        runs = [spec.run_once(config, cell, trace_for(cell)) for cell in cells]
        blobs = [bytes(ForkingPickler.dumps(run)) for run in runs]
        shipped = [ForkingPickler.loads(blob) for blob in blobs]

        assert spec.render(
            spec.aggregate(config, cells, shipped, trace_for)
        ) == spec.render(spec.aggregate(config, cells, runs, trace_for))
        for run, blob in zip(runs, blobs):
            # Arrays, not an object graph (~490 B per outcome).
            assert len(blob) <= 40 * len(run.collector) + 8 * 1024


MULTI_CELL_FAMILIES = [
    spec.name for spec in registry.specs() if len(spec.cells(spec.smoke_config())) > 1
]


@contextlib.contextmanager
def _deadline(seconds):
    """Turn a hang into a failure: a fan-out must never wait on a dead worker."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _fan_out_free(spec, result):
    """What a run prints that must not depend on the fan-out: the figure,
    or ``scale``'s fingerprint (its table prints wall-clock and the
    process count)."""
    return result.fingerprint() if spec.name == "scale" else spec.render(result)


@pytest.mark.parametrize("name", MULTI_CELL_FAMILIES)
class TestFanOutRobustness:
    """What goes wrong in a worker process ends in one error naming the
    cell and no surviving process — for every family, through the registry."""

    @staticmethod
    def _sabotage_second_cell(monkeypatch, spec, action):
        """``run_once`` of the second smoke cell calls ``action`` (forked
        workers inherit the patch); returns ``(config, cells)``."""
        config = spec.smoke_config()
        cells = spec.cells(config)
        original = type(spec).run_once

        def run_once(self, config, cell, trace):
            if cell.key == cells[1].key:
                action()
            return original(self, config, cell, trace)

        monkeypatch.setattr(type(spec), "run_once", run_once)
        fork = multiprocessing.get_context("fork")
        monkeypatch.setattr(multiprocessing, "get_context", lambda: fork)
        return config, cells

    def test_raising_cell_is_named_with_its_cause(self, name, monkeypatch):
        def boom():
            raise ValueError("boom")

        spec = registry.get(name)
        config, cells = self._sabotage_second_cell(monkeypatch, spec, boom)
        with _deadline(5), pytest.raises(SimulationError) as excinfo:
            run_scenario(spec, config, jobs=2)
        assert str(excinfo.value) == (
            f"task {cells[1].key!r} failed: ValueError: boom"
        )
        assert not multiprocessing.active_children()

    def test_dead_worker_names_every_cell_it_owed(self, name, monkeypatch):
        spec = registry.get(name)
        config, cells = self._sabotage_second_cell(
            monkeypatch, spec, lambda: os._exit(1)
        )
        with _deadline(5), pytest.raises(SimulationError) as excinfo:
            run_scenario(spec, config, jobs=2)
        # Two processes, cells dealt round-robin: the dead one held every
        # second cell.
        owed = ", ".join(repr(cell.key) for cell in cells[1::2])
        assert str(excinfo.value) == (
            f"a worker process exited without reporting task(s) {owed}"
        )
        assert not multiprocessing.active_children()

    def test_spawned_workers_render_the_same_bytes(self, name, monkeypatch):
        spec = registry.get(name)
        config = spec.smoke_config()
        serial = _fan_out_free(spec, run_scenario(spec, config, jobs=1))
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(multiprocessing, "get_context", lambda: spawn)
        assert _fan_out_free(spec, run_scenario(spec, config, jobs=2)) == serial
        assert not multiprocessing.active_children()


def test_a_forked_fan_out_loads_the_family_before_the_first_fork():
    """Families load on first use; a ``--jobs 2`` run uses its family in the
    parent first, so forked workers inherit it instead of each compiling it."""
    family = "repro.experiments.poisson_experiment"
    probe = f"""
import contextlib, io, json, multiprocessing, sys
import repro.cli
before = {family!r} in sys.modules
at_fork = []
start = multiprocessing.process.BaseProcess.start
def spy(self):
    at_fork.append({family!r} in sys.modules)
    return start(self)
multiprocessing.process.BaseProcess.start = spy
with contextlib.redirect_stdout(io.StringIO()):
    status = repro.cli.main(["poisson", "--servers", "2", "--workers", "4", "--queries", "20",
                             "--rho", "0.5", "--policy", "RR", "--policy", "SR4", "--jobs", "2"])
print(json.dumps([before, status, at_fork, multiprocessing.get_start_method()]))
"""
    source = str(pathlib.Path(registry.__file__).parents[2])
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=source),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout) == [False, 0, [True, True], "fork"]


# ----------------------------------------------------------------------
# stepped workload generator
# ----------------------------------------------------------------------
class TestSteppedPoissonWorkload:
    def test_phase_validation(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            RatePhase(duration=0.0, rate=10.0)
        with pytest.raises(WorkloadError):
            RatePhase(duration=1.0, rate=0.0)
        with pytest.raises(WorkloadError):
            SteppedPoissonWorkload(phases=())

    def test_generation_is_deterministic(self):
        workload = SteppedPoissonWorkload(
            phases=(RatePhase(10.0, 50.0), RatePhase(5.0, 200.0))
        )
        first = workload.generate(np.random.default_rng(9))
        second = workload.generate(np.random.default_rng(9))
        assert [r.arrival_time for r in first] == [r.arrival_time for r in second]
        assert [r.service_demand for r in first] == [r.service_demand for r in second]

    def test_requests_are_numbered_trace_locally(self):
        workload = SteppedPoissonWorkload(phases=(RatePhase(5.0, 100.0),))
        trace = workload.generate(np.random.default_rng(1))
        assert [r.request_id for r in trace] == list(range(1, len(trace) + 1))

    def test_spike_phase_is_denser(self):
        workload = SteppedPoissonWorkload(
            phases=(RatePhase(20.0, 20.0), RatePhase(20.0, 200.0))
        )
        trace = workload.generate(np.random.default_rng(3))
        first = sum(1 for r in trace if r.arrival_time < 20.0)
        second = len(trace) - first
        assert second > 5 * first

    def test_arrivals_stay_inside_their_phases(self):
        workload = SteppedPoissonWorkload(phases=(RatePhase(4.0, 30.0),))
        trace = workload.generate(np.random.default_rng(11))
        assert all(0.0 < r.arrival_time < 4.0 for r in trace)

    def test_total_duration(self):
        workload = SteppedPoissonWorkload(
            phases=(RatePhase(10.0, 50.0), RatePhase(2.0, 100.0))
        )
        assert workload.total_duration == pytest.approx(12.0)


# ----------------------------------------------------------------------
# flash-crowd family
# ----------------------------------------------------------------------

def _median_series(run, config):
    """Per-bin median response time of a flash-crowd run."""
    binned = run.collector.binned(bin_width=config.bin_width)
    return binned.median_series(through=config.total_duration)

class TestFlashCrowdScenario:
    def test_config_validation(self):
        with pytest.raises(ExperimentError, match="spike must exceed"):
            FlashCrowdConfig(baseline_load=0.8, spike_load=0.5)
        with pytest.raises(ExperimentError, match="must be positive"):
            FlashCrowdConfig(spike_duration=0.0)

    def test_trace_matches_schedule(self):
        config = FLASH_CROWD_SCENARIO.smoke_config()
        trace = FLASH_CROWD_SCENARIO.make_trace(config, FLASH_CROWD_SCENARIO.cells(config)[0])
        assert trace.duration <= config.total_duration
        spike_start, spike_end = config.spike_window
        spike = sum(
            1 for r in trace if spike_start <= r.arrival_time < spike_end
        )
        baseline = sum(1 for r in trace if r.arrival_time < spike_start)
        # The spike runs at 3x the baseline rate on a shorter window;
        # per-second density must be clearly higher.
        assert spike / config.spike_duration > (
            1.5 * baseline / config.baseline_duration
        )

    def test_end_to_end_jobs_deterministic(self):
        config = FLASH_CROWD_SCENARIO.smoke_config()
        serial = run_scenario("flash-crowd", config, jobs=1)
        parallel = run_scenario("flash-crowd", config, jobs=2)
        assert serial.keys() == parallel.keys()
        for key in serial.keys():
            assert (
                serial.run(key).collector.response_times().tolist()
                == parallel.run(key).collector.response_times().tolist()
            )
            # Empty bins yield nan medians; compare nan-aware but exact.
            assert np.array_equal(
                np.asarray(_median_series(serial.run(key), config)),
                np.asarray(_median_series(parallel.run(key), config)),
                equal_nan=True,
            )

    def test_phase_summaries_show_the_overload(self):
        config = FLASH_CROWD_SCENARIO.smoke_config()
        result = run_scenario("flash-crowd", config, jobs=1)
        for key in result.keys():
            run = result.run(key)
            baseline = phase_summary(run, config, "baseline")
            spike = phase_summary(run, config, "spike")
            assert baseline.count > 0 and spike.count > 0
            assert spike.mean > baseline.mean

    def test_unknown_phase_is_loud(self):
        with pytest.raises(ExperimentError, match="unknown phase"):
            phase_window(FLASH_CROWD_SCENARIO.smoke_config(), "rush-hour")


# ----------------------------------------------------------------------
# the default run
# ----------------------------------------------------------------------
class _PlainFamily(ScenarioSpec):
    """Says only its trace: its run is the default one."""

    name = "plain-test-family"

    def smoke_config(self):
        return FLASH_CROWD_SCENARIO.smoke_config()

    def make_trace(self, config, cell):
        return FLASH_CROWD_SCENARIO.make_trace(config, cell)


class TestDefaultRun:
    def test_it_replays_the_testbed_under_the_cells_policy(self):
        spec = _PlainFamily()
        config = spec.smoke_config()
        cell = spec.cells(config)[1]
        trace = spec.make_trace(config, cell)
        run = spec.run_once(config, cell, trace)
        assert type(run) is RunResult
        assert run.collector.name == "plain-test-family-SR4"
        assert len(run.collector) == run.counters["client.queries_started"] == len(trace)
        # The same run flash-crowd's cell makes: the default is its run too.
        family = FLASH_CROWD_SCENARIO.run_once(config, cell, trace)
        assert family.counters == run.counters
        np.testing.assert_array_equal(
            family.collector.columns().response_times, run.collector.columns().response_times
        )

    def test_a_trace_with_users_turns_affinity_on(self):
        spec = registry.get("heavy-tail")
        config = spec.smoke_config()
        (cell, *_) = spec.cells(config)
        run = spec.run_once(config, cell, spec.make_trace(config, cell))
        assert run.counters["client.affinity_hits"] > 0
        plain = _PlainFamily()
        config = plain.smoke_config()
        flash = plain.run_once(config, cell, plain.make_trace(config, cell))
        assert flash.counters["client.affinity_hits"] == 0
        assert flash.counters["client.affinity_fallbacks"] == 0


# ----------------------------------------------------------------------
# heterogeneous-fleet family
# ----------------------------------------------------------------------
class TestHeterogeneousFleetScenario:
    def test_config_validation(self):
        with pytest.raises(ExperimentError, match="faster than"):
            HeterogeneousFleetConfig(fast_speed=1.0, slow_speed=1.0)
        with pytest.raises(ExperimentError, match="num_fast must be positive"):
            HeterogeneousFleetConfig(num_fast=0)

    def test_testbed_speed_factors(self):
        config = HeterogeneousFleetConfig(num_fast=2, num_slow=3)
        testbed = config.fleet
        assert testbed.server_speed_factors == (2.0, 2.0, 0.75, 0.75, 0.75)
        assert testbed.total_capacity == pytest.approx(2 * (2 * 2.0 + 3 * 0.75))

    def test_speed_factor_validation_on_testbed(self):
        with pytest.raises(ExperimentError, match="names 2 servers"):
            TestbedConfig(num_servers=3, server_speed_factors=(1.0, 2.0))
        with pytest.raises(ExperimentError, match="must be positive"):
            TestbedConfig(num_servers=2, server_speed_factors=(1.0, -1.0))

    def test_fast_servers_really_run_faster(self):
        """A fast server drains the same demand sooner than a slow one."""
        from repro.server.cpu import ProcessorSharingCPU
        from repro.sim.engine import Simulator

        done = {}
        simulator = Simulator(seed=0)
        fast = ProcessorSharingCPU(simulator, num_cores=1, name="fast", speed=2.0)
        slow = ProcessorSharingCPU(simulator, num_cores=1, name="slow", speed=0.5)
        fast.add_job(1, 1.0, lambda _job: done.setdefault("fast", simulator.now))
        slow.add_job(2, 1.0, lambda _job: done.setdefault("slow", simulator.now))
        simulator.run()
        assert done["fast"] == pytest.approx(0.5)
        assert done["slow"] == pytest.approx(2.0)

    def test_trace_is_shared_across_policies(self):
        config = HETEROGENEOUS_SCENARIO.smoke_config()
        rr_cell, sr4_cell = HETEROGENEOUS_SCENARIO.cells(config)
        first = HETEROGENEOUS_SCENARIO.make_trace(config, rr_cell)
        second = HETEROGENEOUS_SCENARIO.make_trace(config, sr4_cell)
        assert [r.arrival_time for r in first] == [r.arrival_time for r in second]

    def test_end_to_end_jobs_deterministic(self):
        config = HETEROGENEOUS_SCENARIO.smoke_config()
        serial = run_scenario("heterogeneous-fleet", config, jobs=1)
        parallel = run_scenario("heterogeneous-fleet", config, jobs=2)
        assert serial.keys() == parallel.keys()
        for key in serial.keys():
            assert (
                serial.run(key).response_times().tolist()
                == parallel.run(key).response_times().tolist()
            )
            assert (
                serial.run(key).acceptance_counts
                == parallel.run(key).acceptance_counts
            )

    def test_service_hunting_beats_rr_on_fairness(self):
        config = HETEROGENEOUS_SCENARIO.smoke_config()
        result = run_scenario("heterogeneous-fleet", config, jobs=1)
        (rho,) = config.load_factors
        rr = result.run(("RR", rho))
        sr4 = result.run(("SR4", rho))
        assert capacity_fairness_index(config, sr4.acceptance_counts) > (
            capacity_fairness_index(config, rr.acceptance_counts)
        )

    def test_tier_shares_are_capacity_normalised(self):
        config = HeterogeneousFleetConfig(num_fast=2, num_slow=2, slow_speed=1.0, fast_speed=3.0)
        # Perfectly capacity-proportional acceptance -> both ratios 1.0.
        counts = {"server-0": 30, "server-1": 30, "server-2": 10, "server-3": 10}
        fast, slow = tier_acceptance_shares(config, counts)
        assert fast == pytest.approx(1.0)
        assert slow == pytest.approx(1.0)
        # Nothing accepted -> degenerate but defined.
        assert tier_acceptance_shares(config, {}) == (0.0, 0.0)
