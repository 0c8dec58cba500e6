"""Tests for the ``srlb-repro`` command-line interface."""

import dataclasses
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
from typing import Tuple

import numpy as np
import pytest

import repro
from repro.cli import _policy_spec_from_name, build_parser, main
from repro.errors import ReproError
from repro.experiments import registry
from repro.experiments.config import MAX_REQUEST_ID, TestbedConfig, rr_policy
from repro.experiments.platform import build_testbed
from repro.experiments.scenario import ScenarioSpec
from repro.sim import partition
from repro.sim.engine import Simulator
from repro.workload.poisson import poisson_trace


class TestPolicyNameParsing:
    def test_rr(self):
        spec = _policy_spec_from_name("RR")
        assert spec.num_candidates == 1

    def test_srdyn(self):
        assert _policy_spec_from_name("SRdyn").acceptance_policy == "SRdyn"

    def test_static_threshold(self):
        spec = _policy_spec_from_name("SR8")
        assert spec.acceptance_policy == "SR8"
        assert spec.num_candidates == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ReproError):
            _policy_spec_from_name("bogus")


class TestParser:
    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_poisson_defaults(self):
        args = build_parser().parse_args(["poisson"])
        assert args.queries == 3_000
        assert args.servers == 12

    def test_figure_requires_number(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure"])


class TestCommands:
    def test_calibrate_analytic_only(self, capsys):
        exit_code = main(["calibrate", "--servers", "6"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "analytic saturation rate" in captured.out
        assert "120.0" in captured.out  # 6 servers x 2 cores / 0.1 s

    @pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
    def test_calibrate_refuses_a_non_finite_service_mean(self, value, capsys):
        assert main(["calibrate", f"--service-mean={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: mean service demand must be positive, got {value}\n"

    def test_calibrate_refuses_a_negative_iteration_count(self, capsys):
        assert main(["calibrate", "--servers", "2", "--empirical", "--iterations", "-1"]) == 2
        assert capsys.readouterr().err == "error: num_iterations must be non-negative, got -1\n"

    def test_poisson_small_run(self, capsys):
        exit_code = main(
            [
                "poisson",
                "--servers", "4",
                "--workers", "8",
                "--queries", "150",
                "--rho", "0.5",
                "--policy", "RR",
                "--policy", "SR4",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "RR" in captured.out and "SR4" in captured.out
        assert "mean (s)" in captured.out

    def test_figure_3_small_run(self, capsys):
        exit_code = main(
            ["figure", "3", "--servers", "4", "--workers", "8", "--queries", "150"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Figure 3" in captured.out

    def test_unknown_figure_number_is_an_error(self, capsys):
        exit_code = main(["figure", "42", "--queries", "10"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err

    def test_wikipedia_small_run(self, capsys):
        exit_code = main(
            [
                "wikipedia",
                "--servers", "6",
                "--workers", "8",
                "--duration", "40",
                "--static-per-wiki", "0.2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Figure 6" in captured.out
        assert "whole-day median" in captured.out

    def test_resilience_defaults(self):
        args = build_parser().parse_args(["resilience"])
        assert args.lbs == 4
        assert args.ecmp_hash == "rendezvous"

    def test_resilience_small_run(self, capsys):
        exit_code = main(
            [
                "resilience",
                "--servers", "6",
                "--workers", "8",
                "--queries", "500",
                "--spread", "1.0",
                "--chunks", "3",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "LB-churn resilience" in captured.out
        assert "consistent-hash" in captured.out
        assert "kill lb-" in captured.out


class TestRepeatedSelectors:
    """A selector given twice names one cell: it runs and prints once."""

    @staticmethod
    def _rows(out: str, first_column: str):
        return [line for line in out.splitlines() if line.split()[:1] == [first_column]]

    def test_repeated_policy_runs_once(self, capsys):
        exit_code = main(
            [
                "poisson",
                "--servers", "4",
                "--workers", "8",
                "--queries", "100",
                "--rho", "0.5",
                "--policy", "RR",
                "--policy", "SR4",
                "--policy", "RR",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        policies = [line.split()[1] for line in self._rows(out, "0.500")]
        assert policies == ["RR", "SR4"]

    def test_repeated_rho_runs_once(self, capsys):
        exit_code = main(
            [
                "poisson",
                "--servers", "4",
                "--workers", "8",
                "--queries", "100",
                "--policy", "RR",
                "--rho", "0.5",
                "--rho", "0.6",
                "--rho", "0.5",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert len(self._rows(out, "0.500")) == 1
        assert len(self._rows(out, "0.600")) == 1

    def test_repeated_scheme_runs_once(self, capsys):
        exit_code = main(
            [
                "resilience",
                "--servers", "6",
                "--workers", "8",
                "--queries", "300",
                "--spread", "1.0",
                "--chunks", "3",
                "--scheme", "random",
                "--scheme", "random",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert len(self._rows(out, "random")) == 1
        assert out.count("random: kill lb-") == 1


class TestJobsValidation:
    def test_negative_jobs_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["poisson", "--jobs", "-2"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--jobs" in captured.err
        assert "must be >= 0" in captured.err

    def test_non_integer_jobs_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["wikipedia", "--jobs", "many"])
        assert excinfo.value.code == 2
        assert "expected an integer" in capsys.readouterr().err

    def test_zero_and_positive_jobs_are_accepted(self):
        assert build_parser().parse_args(["poisson", "--jobs", "0"]).jobs == 0
        assert build_parser().parse_args(["poisson", "--jobs", "4"]).jobs == 4

    def test_jobs_help_distinguishes_partitions(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--help"])
        assert "inter-run fan-out" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scale", "--help"])
        assert "intra-run" in capsys.readouterr().out

    def test_nonpositive_partitions_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["scale", "--partitions", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_partitions_is_scales_spelling_of_jobs(self, capsys):
        args = build_parser().parse_args(["scale", "--partitions", "3"])
        assert args.jobs == 3 and not hasattr(args, "partitions")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scale", "--jobs", "3"])
        capsys.readouterr()


class TestFigurePoints:
    @pytest.mark.parametrize("points", ["-1", "0", "two"])
    def test_a_bad_point_count_is_a_usage_error(self, points, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "2", "--points", points, "--queries", "100"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --points: " in captured.err
        assert "Traceback" not in captured.err


class TestTierFamilies:
    """The families that run a load-balancer tier refuse a tier of one."""

    @pytest.mark.parametrize("family", ["resilience", "adversarial", "chaos"])
    def test_one_load_balancer_is_refused_before_any_process(
        self, family, monkeypatch, capsys
    ):
        def refuse(process):
            raise AssertionError(f"{process.name} was started for an invalid config")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        assert main([family, "--lbs", "1", "--servers", "4", "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: testbed needs a tier of at least 2 load balancers, got 1\n"
        )
        assert multiprocessing.active_children() == []


#: Every family with a ``--queries`` flag, and its fan-out flag.
QUERY_FAMILIES = [
    ("poisson", "--jobs"),
    ("resilience", "--jobs"),
    ("heterogeneous-fleet", "--jobs"),
    ("adversarial", "--jobs"),
    ("scale", "--partitions"),
    ("chaos", "--jobs"),
]


class TestQueryCount:
    """A query count a testbed cannot replay fails before any process starts.

    A trace numbers its queries 1..N and a testbed replays request ids up
    to ``MAX_REQUEST_ID``; a larger N used to fail only after the trace
    was generated (and, for ``scale``, after a pod had replayed its share).
    """

    @pytest.mark.parametrize("family, fan_out", QUERY_FAMILIES)
    def test_above_the_largest_request_id_is_one_usage_error(
        self, family, fan_out, monkeypatch, capsys
    ):
        def refuse(process):
            raise AssertionError(f"{process.name} was started for an invalid config")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        too_many = str(MAX_REQUEST_ID + 1)
        assert main([family, "--queries", too_many, fan_out, "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: num_queries must be in [1, {MAX_REQUEST_ID}], got {too_many}\n"
        )

    @pytest.mark.parametrize("family, _fan_out", QUERY_FAMILIES)
    def test_the_largest_request_id_is_accepted(self, family, _fan_out):
        from repro.cli import config_from_args

        spec = registry.get(family)
        args = build_parser().parse_args([family, "--queries", str(MAX_REQUEST_ID)])
        assert config_from_args(spec, args).num_queries == MAX_REQUEST_ID


@dataclasses.dataclass(frozen=True)
class _DrillConfig:
    policies: Tuple[str, ...] = ("first", "second")
    #: ``stuck`` blocks forever; ``slow`` replays a trace, slowly.
    behaviour: str = "stuck"


class _HangDrill(ScenarioSpec):
    """A family whose cells hang, or replay slowly, in a worker process."""

    name = "hang-drill"
    title = "cells that hang or crawl"

    def default_config(self):
        return _DrillConfig()

    def smoke_config(self):
        return _DrillConfig()

    def make_trace(self, config, cell):
        return poisson_trace(0.5, 40.0, 20, 0.05, np.random.default_rng([0, 1]))

    def run_once(self, config, cell, trace):
        if config.behaviour == "stuck":
            threading.Event().wait()
        testbed_config = TestbedConfig(num_servers=2, workers_per_server=4)
        with build_testbed(testbed_config, rr_policy()) as testbed:
            testbed.run_trace(trace)
        return testbed.collector.totals.completed

    def render(self, result):
        return f"completed {sorted(result.runs.values())}"


@pytest.fixture
def hang_drill(monkeypatch):
    """The drill family, registered for the test only, run on forked workers
    under a 0.5 s heartbeat deadline; returns a ``behaviour`` setter."""
    monkeypatch.setattr(registry, "_SCENARIOS", dict(registry._SCENARIOS))
    registry.register(_HangDrill())
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(multiprocessing, "get_context", lambda: fork)
    monkeypatch.setattr(partition, "HEARTBEAT_TIMEOUT", 0.5)

    def behave(behaviour):
        monkeypatch.setattr(
            _HangDrill, "default_config", lambda self: _DrillConfig(behaviour=behaviour)
        )

    return behave


class TestHungWorker:
    """A cell that stops ticking ends the run; a slow one that ticks does not."""

    def test_a_blocked_cell_ends_in_one_line_and_no_surviving_process(
        self, hang_drill, capsys
    ):
        hang_drill("stuck")
        started = time.monotonic()
        assert main(["hang-drill", "--jobs", "2"]) == 2
        assert time.monotonic() - started < 10
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == (
            "error: task(s) 'first', 'second' sent no heartbeat for more than "
            "0.5s (hung worker); 0 task(s) had already completed"
        )
        assert multiprocessing.active_children() == []

    def test_a_slow_cell_that_ticks_finishes(self, hang_drill, monkeypatch, capsys):
        hang_drill("slow")
        run = Simulator.run

        def crawl(self, *args, **kwargs):
            time.sleep(0.1)
            return run(self, *args, **kwargs)

        # 17 simulator runs per replay, 0.1 s each: 1.7 s per cell, far
        # past the deadline, with a heartbeat between every two of them.
        monkeypatch.setattr(Simulator, "run", crawl)
        assert main(["hang-drill", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == "completed [20, 20]\n"
        assert multiprocessing.active_children() == []


def _process_group(pgid):
    """Pids of the live members of a process group."""
    listing = subprocess.run(
        ["pgrep", "-g", str(pgid)], capture_output=True, text=True, check=False
    )
    return listing.stdout.split()


class TestInterrupt:
    """Ctrl-C on a fanned-out run: one line, no traceback, no orphan."""

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                ["chaos", "--lbs", "2", "--queries", "60000", "--jobs", "2"], id="jobs"
            ),
            pytest.param(
                ["scale", "--queries", "400000", "--pods", "4", "--partitions", "2"],
                id="partitions",
            ),
        ],
    )
    def test_sigint_ends_in_one_line_and_no_surviving_process(self, argv):
        source = str(pathlib.Path(repro.__file__).parents[1])
        cli = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            env=dict(os.environ, PYTHONPATH=source),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,  # its own group: the signal reaches only it
        )
        try:
            deadline = time.monotonic() + 30
            while len(_process_group(cli.pid)) < 3:  # the CLI and its two workers
                assert cli.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            time.sleep(0.3)  # let the workers get into their tasks
            os.killpg(cli.pid, signal.SIGINT)  # what a terminal's Ctrl-C does
            _, stderr = cli.communicate(timeout=30)
            survivors = _process_group(cli.pid)
        finally:
            try:
                os.killpg(cli.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            cli.wait()
        assert "Traceback" not in stderr
        # 130 is the rule; 2 with the task's error line if a worker relayed
        # its own KeyboardInterrupt before the coordinator saw the signal.
        assert (cli.returncode, stderr) == (130, "interrupted\n") or (
            cli.returncode == 2 and stderr.startswith("error: task ")
        ), (cli.returncode, stderr)
        assert len(stderr.splitlines()) == 1
        assert survivors == []


class TestScenarioCommands:
    def test_scenarios_lists_the_registry(self, capsys):
        exit_code = main(["scenarios"])
        captured = capsys.readouterr()
        assert exit_code == 0
        for name in (
            "poisson",
            "wikipedia",
            "resilience",
            "flash-crowd",
            "heterogeneous-fleet",
            "autoscale",
            "heavy-tail",
            "adversarial",
            "scale",
        ):
            assert name in captured.out

    def test_scale_small_run(self, capsys):
        exit_code = main(
            [
                "scale",
                "--servers", "4",
                "--workers", "8",
                "--queries", "400",
                "--partitions", "1",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "partitioned replay" in captured.out
        assert "fingerprint" in captured.out

    def test_scenarios_json_is_machine_readable(self, capsys):
        import json

        exit_code = main(["scenarios", "--json"])
        captured = capsys.readouterr()
        assert exit_code == 0
        catalogue = json.loads(captured.out)
        by_name = {entry["name"]: entry for entry in catalogue}
        assert set(by_name) >= {
            "poisson",
            "wikipedia",
            "resilience",
            "flash-crowd",
            "heterogeneous-fleet",
            "autoscale",
            "heavy-tail",
            "adversarial",
        }
        for entry in catalogue:
            assert entry["description"]
            assert entry["cells"], f"{entry['name']} lists no cells"
            assert all(isinstance(cell, str) for cell in entry["cells"])
        assert by_name["autoscale"]["cells"] == [
            "static",
            "reactive",
            "predictive",
        ]
        assert by_name["adversarial"]["cells"] == [
            "baseline",
            "syn-flood",
            "hash-collision",
            "gray-failure",
        ]

    def test_scenarios_json_schema_covers_every_registered_spec(self, capsys):
        # The machine-readable catalogue is the integration surface for
        # external tooling: every registered spec must appear, with
        # exactly the documented keys, in registration order.
        import json

        from repro.experiments import registry

        exit_code = main(["scenarios", "--json"])
        captured = capsys.readouterr()
        assert exit_code == 0
        catalogue = json.loads(captured.out)
        assert [entry["name"] for entry in catalogue] == registry.names()
        for entry in catalogue:
            assert set(entry) == {"name", "description", "cells"}
            spec = registry.get(entry["name"])
            assert entry["description"] == spec.title
            expected_cells = [
                str(cell.key) for cell in spec.cells(spec.default_config())
            ]
            if registry.family(spec.name).partitioned:
                # Its cells are the pods of one run, listed as that run.
                expected_cells = [spec.name]
            assert entry["cells"] == expected_cells

    def test_autoscale_small_run(self, capsys):
        exit_code = main(
            [
                "autoscale",
                "--workers", "8",
                "--cores", "1",
                "--min-servers", "2",
                "--max-servers", "4",
                "--mean-load", "0.4",
                "--load-amplitude", "0.25",
                "--period", "40",
                "--duration", "40",
                "--time-factor", "1.0",
                "--slo-p99", "5",
                "--mode", "static",
                "--mode", "reactive",
                "--jobs", "2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Autoscale" in captured.out
        assert "capacity-s" in captured.out
        assert "static" in captured.out and "reactive" in captured.out
        assert "provisioned servers" in captured.out

    def test_heavy_tail_small_run(self, capsys):
        exit_code = main(
            [
                "heavy-tail",
                "--servers", "2",
                "--workers", "4",
                "--cores", "1",
                "--arrivals", "80",
                "--users", "500",
                "--policy", "RR",
                "--policy", "SR4",
                "--jobs", "2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Heavy-tailed sessions" in captured.out
        assert "RR" in captured.out and "SR4" in captured.out
        assert "affine" in captured.out

    def test_adversarial_small_run(self, capsys):
        exit_code = main(
            [
                "adversarial",
                "--servers", "4",
                "--workers", "8",
                "--cores", "1",
                "--lbs", "2",
                "--queries", "150",
                "--mode", "baseline",
                "--mode", "hash-collision",
                "--flood-sources", "4",
                "--collision-flows", "32",
                "--jobs", "2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Adversarial traffic" in captured.out
        assert "baseline" in captured.out and "hash-collision" in captured.out
        # The collision search concentrates the flood onto one bucket.
        assert "100.0%" in captured.out

    def test_flash_crowd_small_run(self, capsys):
        exit_code = main(
            [
                "flash-crowd",
                "--servers", "4",
                "--workers", "8",
                "--policy", "RR",
                "--policy", "SR4",
                "--baseline-duration", "6",
                "--spike-duration", "3",
                "--recovery-duration", "6",
                "--bin-width", "3",
                "--jobs", "2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Flash crowd" in captured.out
        assert "spike mean (s)" in captured.out
        assert "RR" in captured.out and "SR4" in captured.out

    def test_heterogeneous_fleet_small_run(self, capsys):
        exit_code = main(
            [
                "heterogeneous-fleet",
                "--fast", "2",
                "--slow", "3",
                "--workers", "8",
                "--queries", "200",
                "--rho", "0.7",
                "--policy", "RR",
                "--policy", "SR4",
                "--jobs", "2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Heterogeneous fleet" in captured.out
        assert "fast share" in captured.out and "fairness" in captured.out

    def test_heterogeneous_fleet_bad_tier_is_an_error(self, capsys):
        exit_code = main(
            ["heterogeneous-fleet", "--fast", "0", "--queries", "10"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err


class TestDegenerateRuns:
    """Argvs whose cells complete nothing (or flap windows overlap) still
    print their table and exit 0."""

    def test_a_kind_with_no_completed_query_prints_nan(self, capsys):
        assert main(["heavy-tail", "--arrivals", "1"]) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines() if line.startswith("SR4")]
        # completed, failed, mean, p99, p99 sess, p99 heavy (no heavy query).
        assert rows[0][1:3] == ["1", "0"] and rows[0][6] == "nan"

    def test_a_cell_with_no_completed_query_prints_nan(self, capsys):
        argv = ["chaos", "--queries", "300", "--mode", "loss", "--loss-rate", "1"]
        assert main(argv) == 0
        (row,) = [line.split() for line in capsys.readouterr().out.splitlines()
                  if line.startswith("loss")]
        # done, failed, ..., p99 is nan; the counter columns still print.
        assert row[1:3] == ["0.0%", "300"] and row[6] == "nan"

    def test_a_replay_with_no_completed_wiki_query_prints_nan(self, capsys):
        # So short a day holds no wiki query at all: the quartile lines
        # print nan instead of failing after the run.
        assert main(["wikipedia", "--duration", "0.01"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [
            "RR: whole-day median=nan s, third quartile=nan s",
            "SR4: whole-day median=nan s, third quartile=nan s",
        ]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_overlapping_flap_windows_merge(self, jobs, capsys):
        argv = ["chaos", "--queries", "40", "--mode", "flap", "--jobs", jobs]
        assert main(argv) == 0
        assert "flap" in capsys.readouterr().out

    def test_flap_windows_merge_into_their_union(self):
        from repro.experiments.chaos_experiment import fault_config_for
        from repro.experiments.config import ChaosConfig

        windows = fault_config_for(ChaosConfig(), "flap", 0.557).flap_windows
        assert len(windows) == 1
        assert windows[0][0] == pytest.approx(0.557 / 3 - 0.125)
        assert windows[0][1] == pytest.approx(2 * 0.557 / 3 + 0.125)
