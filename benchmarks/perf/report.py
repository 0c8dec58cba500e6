"""Metric tables, summary statistics, the comparison rule and the printers.

``END_TO_END`` and ``PER_LAYER`` are the single list of metric names;
``BENCHMARK.json`` repeats them (the contract test keeps the two equal).
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import micro
import tracing
from workloads import WORKLOADS

# ----------------------------------------------------------------------
# metric tables
# ----------------------------------------------------------------------
#: name -> (unit, better, bound): the share of the other side's median by
#: which the metric may worsen before it counts as a regression.  The time
#: bounds are the largest the benchmark contract allows because sets of
#: one commit on this 2-core box differed by up to 50 % (README, noise
#: tables): a tighter bound would reject unchanged code.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "wall_s": ("s", "lower", 0.25),
    "queries_per_s": ("1/s", "higher", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "setup_s": ("s", "lower", 0.25),
}

_PHASE_SPANS = ("cli.import_s",) + tracing.PHASES + ("experiments.unattributed_s",)

#: Exact-repeat counts: a speed-only change leaves them identical.
_COUNTS = (
    "sim.events", "net.packets_delivered", "net.packets_dropped", "net.fault_drops",
    "net.fault_delays", "net.ecmp_packets", "core.syn_dispatched",
    "core.steering_packets", "core.steering_misses", "server.connections_received",
    "server.connections_reset", "server.connections_shed", "server.requests_served",
    "workload.trace_queries", "workload.client_retransmits", "workload.client_gave_up",
    "metrics.outcomes_recorded", "metrics.failed_outcomes", "telemetry.samples",
    "telemetry.series",
)  # fmt: skip

_RATIOS_HIGHER = ("core.optional_accept_share", "sim.partition_cores_used")
_RATIOS_LOWER = (
    "sim.events_per_query", "sim.batch_mean_size", "net.packets_per_query",
    "core.offers_per_query", "telemetry.overhead_share", "trace.overhead_ratio",
)  # fmt: skip


def _per_layer() -> Dict[str, Tuple[str, str]]:
    table: Dict[str, Tuple[str, str]] = {}
    for name in _PHASE_SPANS:
        table[name] = ("s", "lower")
    table["experiments.transport_bytes"] = ("B", "lower")
    table["experiments.cells"] = ("count", "lower")
    table["experiments.fingerprint_match"] = ("bool", "higher")
    for name in _COUNTS:
        table[name] = ("count", "lower")
    table["telemetry.payload_bytes"] = ("B", "lower")
    table["sim.simulated_s"] = ("s", "lower")
    table["sim.ns_per_event"] = ("ns", "lower")
    table["sim.partition_busy_s"] = ("s", "lower")
    for name in _RATIOS_HIGHER:
        table[name] = ("ratio", "higher")
    for name in _RATIOS_LOWER:
        table[name] = ("ratio", "lower")
    for bucket in tracing.PROFILE_BUCKETS:
        table[f"{bucket}.self_share"] = ("ratio", "lower")
    for name in micro.BENCHES:
        table[name] = ("ns", "lower")
    return table


#: name -> (unit, better), every per-layer metric of a traced run.
PER_LAYER: Dict[str, Tuple[str, str]] = _per_layer()


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def summarise(samples: Sequence[float]) -> Dict[str, float]:
    """Median, min, max, MAD, n and spread of raw samples.

    Five samples support no percentile beyond the median, so none is
    reported.  ``spread`` is 2 x MAD / median: the interquartile distance
    of a symmetric distribution, from the one dispersion statistic that a
    single slow run out of five cannot move.
    """
    median = statistics.median(samples)
    mad = statistics.median(abs(sample - median) for sample in samples)
    return {
        "median": median,
        "min": min(samples),
        "max": max(samples),
        "mad": mad,
        "n": len(samples),
        "spread": 2.0 * mad / median,
    }


def steady(metric: str, samples: Sequence[float]) -> float:
    """The quartile of ``samples`` on the metric's better side.

    What a driver run reports.  The host's processors alternate between
    two speeds, about 1 : 1.5, in spells of 5 to 30 s (README, noise), so
    the median of the few runs that fit in ``--seconds`` jumps whenever a
    spell covers half of them; the better-side quartile holds until a
    spell covers three quarters, and unlike the minimum it does not rest
    on a single run.
    """
    low, _median, high = statistics.quantiles(samples, n=4)
    return low if END_TO_END[metric][1] == "lower" else high


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def _worse_by(metric: str, base: float, other: float) -> float:
    """Relative change of ``other`` against ``base``, positive = worse."""
    change = (other - base) / base
    return change if END_TO_END[metric][1] == "lower" else -change


def _all_beat(metric: str, winners: Sequence[float], losers: Sequence[float]) -> bool:
    """Whether every sample of ``winners`` reads better than every one of ``losers``."""
    if END_TO_END[metric][1] == "lower":
        return max(winners) < min(losers)
    return min(winners) > max(losers)


def verdict(metric: str, base: Sequence[float], other: Sequence[float]) -> Dict[str, Any]:
    """``same`` / ``worse`` / ``better`` / ``unresolved`` for one pairing.

    The rule later changes are judged by: ``worse`` / ``better`` when the
    median moved by more than the bound, ``same`` otherwise -- except that
    when either side's own spread is wider than the bound the pairing is
    ``unresolved``, unless every sample of one side beats every sample of
    the other.
    """
    bound = END_TO_END[metric][2]
    a, b = summarise(base), summarise(other)
    change = _worse_by(metric, a["median"], b["median"])
    if max(a["spread"], b["spread"]) > bound:
        if _all_beat(metric, other, base):
            result = "better"
        elif _all_beat(metric, base, other) and change > bound:
            result = "worse"
        else:
            result = "unresolved"
    elif change > bound:
        result = "worse"
    elif change < -bound:
        result = "better"
    else:
        result = "same"
    return {
        "base": a["median"],
        "other": b["median"],
        "change": (b["median"] - a["median"]) / a["median"],
        "bound": bound,
        "verdict": result,
    }


def compare(base: Dict[str, Any], other: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Lines of the comparison table, and whether any pairing is ``worse``."""
    lines = [
        f"{'workload':<18} {'metric':<14} {'base':>12} {'other':>12} "
        f"{'change':>8} {'bound':>6}  verdict"
    ]
    any_worse = False
    for name, entry in base["workloads"].items():
        if name not in other["workloads"]:
            continue
        for metric in END_TO_END:
            row = verdict(
                metric, entry["samples"][metric], other["workloads"][name]["samples"][metric]
            )
            any_worse |= row["verdict"] == "worse"
            lines.append(
                f"{name:<18} {metric:<14} {row['base']:>12.4f} {row['other']:>12.4f} "
                f"{row['change']:>+8.2%} {row['bound']:>6.0%}  {row['verdict']}"
            )
        for side, label in ((entry, "base"), (other["workloads"][name], "other")):
            if side["run_fail_share"] > 0:
                any_worse = True
                lines.append(f"{name:<18} run_fail_share {side['run_fail_share']:.2f} in {label}")
    return lines, any_worse


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
def _git_commit(root: str) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def manifest(root: str, seed: int, scale: float, repeats: int) -> Dict[str, Any]:
    """What produced the numbers: commit, interpreter, machine, argv, flags."""
    return {
        "git_commit": _git_commit(root),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_1min_at_start": os.getloadavg()[0],
        "seed": seed,
        "scale": scale,
        "repeats": repeats,
        "argv": {workload.name: workload.argv(seed, scale) for workload in WORKLOADS},
        # Seen in the parent; cleared for every child, so the shipped
        # default path is what is measured.
        "repro_env_flags_seen": {
            name: value for name, value in os.environ.items() if name.startswith("REPRO_")
        },
    }


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def format_end_to_end(name: str, entry: Dict[str, Any]) -> Iterable[str]:
    yield f"{name}: end to end (n={entry['summary']['wall_s']['n']} timed runs, median [min .. max] MAD)"
    for metric, (unit, better, bound) in END_TO_END.items():
        stats = entry["summary"][metric]
        yield (
            f"  {metric:<16} {stats['median']:>12.4f} {unit:<4} "
            f"[{stats['min']:.4f} .. {stats['max']:.4f}] MAD {stats['mad']:.4f}  "
            f"({better} is better, bound {bound:.0%})"
        )
    yield (
        f"  {'run_fail_share':<16} {entry['run_fail_share']:>12.4f} ratio "
        f"({entry['failed']} of {entry['attempted']} runs; must be 0)"
    )


def format_steady(values: Dict[str, float]) -> Iterable[str]:
    yield "  reported to the driver (the quartile on the better side of the timed runs):"
    for metric, (unit, _better, _bound) in END_TO_END.items():
        yield f"  {metric:<16} {values[metric]:>12.4f} {unit}"


def format_per_layer(name: str, values: Dict[str, float]) -> Iterable[str]:
    yield f"{name}: per layer (traced run, profile pass, microbenchmarks)"
    for metric, (unit, _better) in PER_LAYER.items():
        yield f"  {metric:<42} {values[metric]:>16.6g} {unit}"


def metric_line(values: Dict[str, float], table: Dict[str, Sequence[Any]]) -> Dict[str, Any]:
    """The ``metrics`` object of the driver's result line."""
    return {
        name: {"value": values[name], "unit": table[name][0]} for name in table
    }
