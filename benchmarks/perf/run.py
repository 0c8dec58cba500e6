#!/usr/bin/env python3
"""The repository benchmark: argv-to-table cost on five workloads.

One command runs everything and prints every metric by name with its
unit (from the repository root)::

    python3 benchmarks/perf/run.py --seed 0            # full set, writes the results JSON
    python3 benchmarks/perf/run.py --quick             # smoke: small sizes, one repeat
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --repin             # rewrite expected.json, print the diff

and one workload at a time for a driver, whose last stdout line is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``)::

    python3 benchmarks/perf/run.py --workload poisson-sweep --seed 3 --seconds 20 --trace 0

Every measured run is one ``repro.cli.main(argv)`` call in a fresh child
process (``child.py``), one at a time, with the ``REPRO_*`` flags cleared
so the shipped default path is what is measured.  ``--trace 0`` times
untouched runs; ``--trace 1`` makes the separate traced run, profile pass
and microbenchmarks behind the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro" / "cli.py").is_file():
    raise SystemExit(f"no program to measure: {SRC / 'repro'} is missing")
sys.path[:0] = [path for path in (str(HERE), str(SRC)) if path not in sys.path]

import micro  # noqa: E402
import report  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    BY_NAME,
    POISSON_SWEEP,
    POISSON_TELEMETRY,
    PROFILE_SCALE,
    QUICK_SCALE,
    WORKLOADS,
    fingerprint,
    first_block,
)

EXPECTED = HERE / "expected.json"
RESULTS = HERE / "results"

#: Seconds a ``--trace 1`` driver run spends on the microbenchmarks at most.
MICRO_BUDGET_S = 4.0
#: Timed rounds of a full set (after one discarded warm-up round).
ROUNDS = 5
#: A child may take this many times its expected wall before it is killed.
TIMEOUT_FACTOR = 5.0
TIMEOUT_FLOOR_S = 20.0
#: Seeds whose fingerprints and counts ``expected.json`` pins.
PINNED_SEEDS = (0, 1)


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    """The parent's environment minus every ``REPRO_*`` flag, plus ``src``."""
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_child(
    mode: str, argv: List[str], timeout: float, options: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """One child process; its record, or ``{"failure": why}``.

    The child leads its own process group, which is killed when the child
    times out and swept once it has exited, so no pool or partition
    worker outlives the run.
    """
    command = [
        sys.executable, str(HERE / "child.py"), mode, repr(time.time()),
        json.dumps(argv), json.dumps(options or {}),
    ]  # fmt: skip
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=ROOT, start_new_session=True,
    )  # fmt: skip
    failure = None
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(process.pid)
        stdout, stderr = process.communicate()
        failure = f"timed out after {timeout:.0f} s"
    finally:
        _kill_group(process.pid)
    record: Dict[str, Any] = {}
    if failure is None and process.returncode != 0:
        failure = f"exit status {process.returncode}: {stderr.strip()[-300:]}"
    if failure is None:
        try:
            record = json.loads(stdout.splitlines()[-1])
        except (IndexError, ValueError):
            failure = "child printed no result"
    if failure is None and record.get("status", 0) != 0:
        failure = f"cli.main returned {record['status']}"
    record["failure"] = failure
    record["pid"] = process.pid
    return record


def child_timeout(workload, scale: float, serial: bool = False, profiled: bool = False) -> float:
    expected = workload.expected_wall_s * scale
    if serial and workload.multi_process:
        expected *= 2.0
    if profiled:
        expected *= 3.0
    return max(TIMEOUT_FLOOR_S, TIMEOUT_FACTOR * expected)


class Tally:
    """Runs attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def note(self, label: str, problems: List[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {problem}" for problem in problems]
        return not problems

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def checked_run(
    workload, seed: int, scale: float, tally: Tally, mode: str = "timed",
    serial: bool = False, twin_table: Optional[str] = None, label: str = "",
) -> Optional[Dict[str, Any]]:  # fmt: skip
    """Run ``workload`` once, check its output, return the record if it passed."""
    profiled = mode == "profile"
    record = run_child(
        mode,
        workload.argv(seed, scale, serial=serial),
        child_timeout(workload, scale, serial, profiled),
        {"transport": workload.transport},
    )
    problems = [record["failure"]] if record["failure"] else []
    if not problems:
        stdout = record["stdout"]
        problems = workload.check(stdout, workload.sized(scale), scale == 1.0)
        if twin_table is not None and first_block(stdout) != twin_table:
            problems.append(f"figure table differs from {workload.table_twin}'s")
        record["fingerprint"] = fingerprint(workload, stdout)
        record["queries"] = workload.queries(workload.sized(scale), stdout)
        record["queries_per_s"] = record["queries"] / record["wall_s"]
    ok = tally.note(label or f"{workload.name} {mode}", problems)
    return record if ok else None


# ----------------------------------------------------------------------
# timed runs
# ----------------------------------------------------------------------
def add_sample(samples: Dict[str, List[float]], record: Dict[str, Any]) -> None:
    for metric in report.END_TO_END:
        samples.setdefault(metric, []).append(record[metric])


def same_fingerprint(records: List[Dict[str, Any]], tally: Tally, label: str) -> None:
    prints = {record["fingerprint"] for record in records}
    if len(prints) > 1:
        tally.note(label, [f"fingerprints differ between repeats: {sorted(prints)}"])


def measure_workload(workload, seed: int, seconds: float, scale: float = 1.0):
    """Driver mode, ``--trace 0``: time runs, back to back, for ``seconds``.

    No run is discarded as a warm-up: the value reported is the quartile
    on the better side (``report.steady``), which a cold first run or a
    slow spell of the host cannot move.
    """
    tally = Tally()
    twin_table = None
    if workload.table_twin:
        # One untimed run of the twin's argv supplies the table this
        # workload's must equal.
        twin = checked_run(BY_NAME[workload.table_twin], seed, scale, tally, label="twin")
        twin_table = first_block(twin["stdout"]) if twin else None

    samples: Dict[str, List[float]] = {}
    records = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(records) < 3:
        record = checked_run(workload, seed, scale, tally, twin_table=twin_table)
        if record is None:
            if tally.failed >= 3:
                break
            continue
        records.append(record)
        add_sample(samples, record)
    same_fingerprint(records, tally, workload.name)
    return samples, records, tally


# ----------------------------------------------------------------------
# traced runs
# ----------------------------------------------------------------------
def run_micro(min_seconds: float, repeats: int) -> Dict[str, Dict[str, float]]:
    """The layer microbenchmarks, in their own child."""
    done = subprocess.run(
        [sys.executable, str(HERE / "micro.py"), repr(min_seconds), str(repeats)],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=170,
    )  # fmt: skip
    if done.returncode != 0:
        raise RuntimeError(f"microbenchmarks failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.splitlines()[-1])


def load_pins(seed: int, scale: float) -> Dict[str, Any]:
    if scale != 1.0 or not EXPECTED.is_file():
        return {}
    return json.loads(EXPECTED.read_text())["seeds"].get(str(seed), {})


def measure_telemetry_share(seed: int, scale: float, tally: Tally) -> float:
    """``wall_s(poisson-telemetry) / wall_s(poisson-sweep) - 1``, one pair."""
    walls = []
    for workload in (POISSON_SWEEP, POISSON_TELEMETRY):
        record = checked_run(workload, seed, scale, tally, label=f"{workload.name} (telemetry pair)")
        walls.append(record["wall_s"] if record else float("nan"))
    return walls[1] / walls[0] - 1.0


def trace_workload(
    workload, seed: int, scale: float, tally: Tally,
    micro_results: Dict[str, Dict[str, float]], telemetry_share: float,
    reference: Optional[Dict[str, Any]] = None,
):  # fmt: skip
    """The per-layer metrics of one workload, and the detail behind them.

    ``reference`` is an untraced run of the same seed (its wall and
    fingerprint); without one, or when the workload is multi-process and
    the traced run is therefore its serial equivalent, an untraced serial
    run is made here so the tracing overhead compares like with like.
    """
    pins = load_pins(seed, scale).get(workload.name)
    prints = [reference["fingerprint"]] if reference else []
    plain_wall = reference["wall_s"] if reference and not workload.multi_process else None
    if plain_wall is None:
        plain = checked_run(workload, seed, scale, tally, serial=True, label="untraced serial run")
        if plain:
            plain_wall = plain["wall_s"]
            prints.append(plain["fingerprint"])

    traced = checked_run(workload, seed, scale, tally, mode="traced", serial=True)
    profile = checked_run(
        workload, seed, scale * PROFILE_SCALE, tally, mode="profile", serial=True
    )
    partitioned = None
    if workload.transport == "partition":
        partitioned = checked_run(
            workload, seed, scale, tally, mode="traced", label="traced partitioned run"
        )
    needed = [plain_wall, traced, profile]
    if workload.transport == "partition":
        needed.append(partitioned)
    if not all(needed):
        return None, None

    trace = traced["trace"]
    counts = trace["counters"]
    phases = trace["phases"]
    queries = counts["workload.trace_queries"]
    problems = []
    if partitioned:
        prints.append(partitioned["fingerprint"])
    if any(value != traced["fingerprint"] for value in prints):
        problems.append("traced run's output differs from the untraced run's")
    accounted = counts["metrics.outcomes_recorded"] + counts["metrics.failed_outcomes"]
    if not accounted == queries == traced["queries"]:
        problems.append(
            f"queries not accounted: {accounted} outcomes, {queries} replayed, "
            f"{traced['queries']} issued"
        )
    if abs(trace["unattributed_s"]) > 0.05 * trace["wall_s"]:
        problems.append(f"phase spans miss {trace['unattributed_s']:.3f} s of the traced wall")
    tally.note(f"{workload.name} trace checks", problems)

    pinned_ok = pins is None or (
        pins["fingerprint"] == traced["fingerprint"] and pins["counts"] == counts
    )
    self_seconds = profile["self_seconds"]
    profiled_total = sum(self_seconds.values())
    optional = counts["core.optional_accepts"] + counts["core.optional_refusals"]
    busy = partitioned["trace"]["partition_busy_s"] if partitioned else 0.0
    busy_wall = partitioned["trace"]["partition_wall_s"] if partitioned else 0.0

    values: Dict[str, float] = {name: counts[name] for name in counts if name in report.PER_LAYER}
    values.update(phases)
    values.update(
        {
            "cli.import_s": traced["import_s"],
            "experiments.unattributed_s": trace["unattributed_s"],
            "experiments.transport_bytes": trace["transport_bytes"],
            "experiments.cells": len(trace["cells"]),
            "experiments.fingerprint_match": 1 if pinned_ok else 0,
            "sim.events_per_query": counts["sim.events"] / queries,
            "sim.batch_mean_size": counts["sim.events"] / counts["sim.batches"],
            "sim.ns_per_event": phases["experiments.replay_s"] / counts["sim.events"] * 1e9,
            "sim.partition_busy_s": busy,
            "sim.partition_cores_used": busy / busy_wall if busy_wall else 0.0,
            "net.packets_per_query": counts["net.packets_delivered"] / queries,
            "core.offers_per_query": counts["core.offers"] / queries,
            "core.optional_accept_share": (
                counts["core.optional_accepts"] / optional if optional else 0.0
            ),
            "telemetry.overhead_share": telemetry_share,
            "trace.overhead_ratio": trace["wall_s"] / plain_wall,
        }
    )
    for bucket in tracing.PROFILE_BUCKETS:
        values[f"{bucket}.self_share"] = self_seconds[bucket] / profiled_total
    for name, result in micro_results.items():
        values[name] = result["value"]
    detail = {
        "fingerprint": traced["fingerprint"],
        "counts": counts,
        "cells": trace["cells"],
        "traced_wall_s": trace["wall_s"],
        "untraced_wall_s": plain_wall,
        "pinned": "none" if pins is None else ("match" if pinned_ok else "differs"),
    }
    return values, detail


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------
def result_line(correct: bool, tally: Tally, metrics: Dict[str, Any]) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }
    )


def driver(workload_name: str, seed: int, seconds: float, trace: int, scale: float) -> int:
    """One workload for the driver; the last stdout line is the result."""
    workload = BY_NAME[workload_name]
    if trace:
        tally = Tally()
        repeats = 3
        budget = min(MICRO_BUDGET_S, 0.4 * seconds) / (len(micro.BENCHES) * repeats * 1.6)
        micro_results = run_micro(max(0.005, budget), repeats)
        share = measure_telemetry_share(seed, scale, tally)
        values, _detail = trace_workload(workload, seed, scale, tally, micro_results, share)
        for problem in tally.problems:
            print(f"FAILED {problem}", file=sys.stderr)
        if values is None:
            return 1
        print("\n".join(report.format_per_layer(workload.name, values)))
        print(result_line(tally.failed == 0, tally, report.metric_line(values, report.PER_LAYER)))
        return 0

    samples, records, tally = measure_workload(workload, seed, seconds, scale)
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if not records:
        return 1
    pins = load_pins(seed, scale).get(workload.name)
    if pins and pins["fingerprint"] != records[0]["fingerprint"]:
        print(f"note: {workload.name} seed {seed}: output differs from expected.json")
    entry = workload_entry(workload, seed, scale, samples, records, tally)
    print("\n".join(report.format_end_to_end(workload.name, entry)))
    steady = {metric: report.steady(metric, samples[metric]) for metric in report.END_TO_END}
    print("\n".join(report.format_steady(steady)))
    print(result_line(tally.failed == 0, tally, report.metric_line(steady, report.END_TO_END)))
    return 0


def workload_entry(workload, seed, scale, samples, records, tally) -> Dict[str, Any]:
    return {
        "argv": workload.argv(seed, scale),
        "queries": records[0]["queries"],
        "fingerprint": records[0]["fingerprint"],
        "samples": samples,
        "summary": {metric: report.summarise(samples[metric]) for metric in report.END_TO_END},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "run_fail_share": tally.fail_share,
        "problems": tally.problems,
    }


def full_set(seed: int, scale: float, out: Optional[Path]) -> int:
    """All five workloads: timed rounds, then the traced run of each."""
    quick = scale != 1.0
    rounds, warm_ups = (1, 0) if quick else (ROUNDS, 1)
    result: Dict[str, Any] = {
        "schema": 1,
        "manifest": report.manifest(str(ROOT), seed, scale, rounds),
        "workloads": {},
    }
    tallies = {workload.name: Tally() for workload in WORKLOADS}
    samples: Dict[str, Dict[str, List[float]]] = {workload.name: {} for workload in WORKLOADS}
    records: Dict[str, List[Dict[str, Any]]] = {workload.name: [] for workload in WORKLOADS}
    tables: Dict[str, str] = {}
    # Round-robin, so slow drift of the machine spreads over every workload.
    for round_index in range(warm_ups + rounds):
        for workload in WORKLOADS:
            record = checked_run(
                workload, seed, scale, tallies[workload.name],
                twin_table=tables.get(workload.table_twin),
            )  # fmt: skip
            if record is None:
                continue
            tables[workload.name] = first_block(record["stdout"])
            if round_index >= warm_ups:
                records[workload.name].append(record)
                add_sample(samples[workload.name], record)
    failed = False
    for workload in WORKLOADS:
        name = workload.name
        same_fingerprint(records[name], tallies[name], name)
        if not records[name]:
            print(f"FAILED {name}: no run succeeded: {tallies[name].problems}", file=sys.stderr)
            return 1
        result["workloads"][name] = workload_entry(
            workload, seed, scale, samples[name], records[name], tallies[name]
        )
        print("\n".join(report.format_end_to_end(name, result["workloads"][name])))

    def median_wall(name: str) -> float:
        return result["workloads"][name]["summary"]["wall_s"]["median"]

    share = median_wall("poisson-telemetry") / median_wall("poisson-sweep") - 1.0
    micro_results = run_micro(*((0.005, 1) if quick else (0.3, 5)))
    result["micro"] = micro_results
    for workload in WORKLOADS:
        name = workload.name
        tally = Tally()
        values, detail = trace_workload(
            workload, seed, scale, tally, micro_results, share, reference=records[name][0]
        )
        entry = result["workloads"][name]
        entry["trace_attempted"] = tally.attempted
        entry["trace_failed"] = tally.failed
        entry["problems"] += tally.problems
        if values is None:
            failed = True
            continue
        entry["per_layer"] = values
        entry["trace"] = detail
        print("\n".join(report.format_per_layer(name, values)))
        print(f"  pinned fingerprint and counts (expected.json): {detail['pinned']}")
    for name, entry in result["workloads"].items():
        for problem in entry["problems"]:
            failed = True
            print(f"FAILED {problem}", file=sys.stderr)
    out = out or RESULTS / ("quick.json" if quick else f"seed{seed}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"results written to {out}")
    return 1 if failed else 0


def repin() -> int:
    """Rewrite ``expected.json`` from fresh traced runs and print the diff."""
    old = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {"seeds": {}}
    new: Dict[str, Any] = {
        "note": "Pinned stdout fingerprints and exact-repeat counts of the traced "
        "(serial) run at full size; rewrite with run.py --repin and review the diff.",
        "seeds": {},
    }
    tally = Tally()
    for seed in PINNED_SEEDS:
        pins = new["seeds"][str(seed)] = {}
        for workload in WORKLOADS:
            record = checked_run(workload, seed, 1.0, tally, mode="traced", serial=True)
            if record is None:
                print(f"FAILED {tally.problems}", file=sys.stderr)
                return 1
            pins[workload.name] = {
                "fingerprint": record["fingerprint"],
                "counts": record["trace"]["counters"],
            }
            before = old["seeds"].get(str(seed), {}).get(workload.name, {})
            if before.get("fingerprint") != record["fingerprint"]:
                print(f"seed {seed} {workload.name}: fingerprint "
                      f"{before.get('fingerprint', 'unpinned')[:12]} -> {record['fingerprint'][:12]}")
            for name, value in record["trace"]["counters"].items():
                if before.get("counts", {}).get(name) != value:
                    print(f"seed {seed} {workload.name}: {name} "
                          f"{before.get('counts', {}).get(name, 'unpinned')} -> {value}")
    EXPECTED.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="driver mode: run this one workload")
    parser.add_argument("--seed", type=int, default=0, help="testbed seed passed to the CLI")
    parser.add_argument("--seconds", type=float, default=20.0, help="driver mode: measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small sizes, one repeat, < 15 s")
    parser.add_argument("--out", type=Path, help="results JSON (default results/seed<N>.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), type=Path)
    parser.add_argument("--repin", action="store_true", help="rewrite expected.json")
    args = parser.parse_args(argv)

    scale = QUICK_SCALE if args.quick else 1.0
    if args.compare:
        base, other = (json.loads(path.read_text()) for path in args.compare)
        lines, any_worse = report.compare(base, other)
        print("\n".join(lines))
        return 1 if any_worse else 0
    if args.repin:
        return repin()
    if args.workload:
        if args.workload not in BY_NAME:
            print(f"unknown workload {args.workload!r}: {sorted(BY_NAME)}", file=sys.stderr)
            return 2
        return driver(args.workload, args.seed, args.seconds, args.trace, scale)
    return full_set(args.seed, scale, args.out)

if __name__ == "__main__":
    sys.exit(main())
