"""Contract tests of the repository benchmark (collected by tier-1).

One ``run.py --quick`` smoke set is shared by the tests that read its
output; the others check ``BENCHMARK.json`` against the code's own
metric tables and the child supervision (failure counting, time-out,
no process left behind).
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import report
import run
from workloads import POISSON_SWEEP, TIER_CHAOS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout, json.loads(out.read_text())


def test_benchmark_json_lists_exactly_the_benchmarks_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert spec["command"] == ["python3", "benchmarks/perf/run.py"]
    assert spec["paths"] == ["benchmarks/perf"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60

    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (workload.name, workload.why) for workload in WORKLOADS
    ]
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])

    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [
        (name, unit, better, bound)
        for name, (unit, better, bound) in report.END_TO_END.items()
    ]
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in spec["end_to_end"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])

    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in report.PER_LAYER.items()
    ]
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])

    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert len(spec["workloads"]) <= 8
    assert len(spec["end_to_end"]) <= 16
    assert len(spec["per_layer"]) <= 128


def _section(stdout: str, header: str) -> str:
    """The indented lines that follow the line starting with ``header``."""
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header)) + 1
    end = next((i for i in range(start, len(lines)) if not lines[i].startswith("  ")), len(lines))
    return "\n".join(lines[start:end])


def test_quick_set_prints_every_metric_by_name_with_its_unit(quick):
    stdout, _result = quick
    for workload in WORKLOADS:
        section = _section(stdout, f"{workload.name}: end to end")
        for name, (unit, *_rest) in report.END_TO_END.items():
            assert re.search(rf"^  {re.escape(name)}\s+[-0-9.e+]+ {re.escape(unit)}\s", section, re.M)
        assert re.search(r"^  run_fail_share\s+0\.0000 ratio", section, re.M)
        section = _section(stdout, f"{workload.name}: per layer")
        for name, (unit, _better) in report.PER_LAYER.items():
            assert re.search(rf"^  {re.escape(name)}\s+[-0-9.e+]+ {re.escape(unit)}$", section, re.M)


def test_quick_set_records_a_manifest_and_every_raw_sample(quick):
    _stdout, result = quick
    manifest = result["manifest"]
    for key in (
        "git_commit", "python", "platform", "nproc", "loadavg_1min_at_start",
        "seed", "repeats", "argv", "repro_env_flags_seen",
    ):  # fmt: skip
        assert key in manifest
    assert set(manifest["argv"]) == {workload.name for workload in WORKLOADS}
    for workload in WORKLOADS:
        entry = result["workloads"][workload.name]
        assert entry["run_fail_share"] == 0 and entry["trace_failed"] == 0
        assert entry["argv"] == manifest["argv"][workload.name]
        for metric in report.END_TO_END:
            assert len(entry["samples"][metric]) == manifest["repeats"]
        assert set(entry["per_layer"]) == set(report.PER_LAYER)
        shares = [entry["per_layer"][f"{b}.self_share"] for b in run.tracing.PROFILE_BUCKETS]
        assert sum(shares) == pytest.approx(1.0)


def test_layers_are_separated_by_the_workloads(quick):
    _stdout, result = quick
    layer = {name: entry["per_layer"] for name, entry in result["workloads"].items()}
    for name, values in layer.items():
        assert (values["net.fault_drops"] > 0) == (name == "tier-chaos")
        assert (values["telemetry.samples"] > 0) == (name == "poisson-telemetry")
        assert (values["sim.partition_busy_s"] > 0) == (name == "scale-pods")
        assert (values["experiments.transport_bytes"] > 0) == (
            name in ("tier-chaos", "scale-pods")
        )


def test_driver_mode_ends_with_one_result_object():
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--quick", "--workload", "wikipedia-day",
            "--seed", "1", "--seconds", "0.1", "--trace", "0",
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(report.END_TO_END)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == report.END_TO_END[name][0] and metric["value"] > 0


def test_nothing_in_the_benchmark_imports_repro_bench():
    for path in HERE.glob("*.py"):
        if path.name == Path(__file__).name:
            continue
        assert not re.search(r"repro\.bench\b|from repro import .*\bbench\b", path.read_text()), path


def _live_members(pgid: int):
    """Non-zombie processes whose process group is ``pgid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(stat.parent.name)
    return members


def _wait_until_gone(pgid: int) -> list:
    deadline = time.monotonic() + 5.0
    while _live_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return _live_members(pgid)


def test_a_failing_argv_counts_as_a_failed_run_and_leaves_no_process():
    broken = dataclasses.replace(POISSON_SWEEP, tail=("--no-such-flag",))
    tally = run.Tally()
    assert run.checked_run(broken, 0, 1.0, tally) is None
    assert tally.attempted == 1 and tally.fail_share > 0
    assert "exit status 2" in tally.problems[0]

    record = run.run_child("timed", broken.argv(0), timeout=30.0)
    assert record["failure"] and _wait_until_gone(record["pid"]) == []


def test_a_run_past_its_timeout_is_killed_with_its_whole_process_group():
    # Full size over a 2-process pool: still running after one second.
    record = run.run_child("timed", TIER_CHAOS.argv(0), timeout=1.0)
    assert record["failure"] == "timed out after 1 s"
    assert _wait_until_gone(record["pid"]) == []
