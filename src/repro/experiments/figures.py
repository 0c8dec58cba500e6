"""Figure-by-figure data extraction and text rendering.

Each ``figure*`` function takes experiment results and returns exactly
the series the corresponding figure of the paper plots, as plain Python
data structures; each ``render_figure*`` helper formats them as a text
table for the benchmark output and EXPERIMENTS.md.

The mapping to the paper (also recorded in DESIGN.md §4):

* Figure 2 — mean response time vs normalized request rate ρ, one series
  per policy (RR, SR4, SR8, SR16, SRdyn);
* Figures 3 and 5 — response-time CDF at ρ = 0.88 and ρ = 0.61;
* Figure 4 — instantaneous mean server load and Jain fairness index over
  time, RR vs SR4 at ρ = 0.88, EWMA-smoothed;
* Figure 6 — wiki-page query rate and median load time per 10-minute
  bin over the replayed day, RR vs SR4;
* Figure 7 — per-bin deciles 1–9 of the wiki-page load time;
* Figure 8 — whole-day CDF of wiki-page load times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ExperimentError
from repro.experiments.poisson_experiment import PoissonRunResult
from repro.experiments.scenario import ScenarioResult
from repro.metrics.ewma import smooth_timeseries
from repro.metrics.reporting import format_table
from repro.metrics.stats import cdf_at


# ----------------------------------------------------------------------
# Figure 2 — mean response time vs load factor
# ----------------------------------------------------------------------
def figure2_series(sweep: ScenarioResult) -> Dict[str, List[Tuple[float, float]]]:
    """Per-policy ``(rho, mean response time)`` series, by ascending ρ.

    ``sweep`` is a Poisson sweep, keyed ``(policy, load factor)``; the
    policies keep their configuration order.
    """
    series: Dict[str, List[Tuple[float, float]]] = {}
    for key in sorted(sweep.keys(), key=lambda key: key[1]):
        policy_name, load_factor = key
        point = (load_factor, sweep.run(key).mean_response_time)
        series.setdefault(policy_name, []).append(point)
    return series


def render_figure2(sweep: ScenarioResult) -> str:
    """Figure 2 as a text table (one row per load factor)."""
    series = figure2_series(sweep)
    load_factors = sorted({rho for points in series.values() for rho, _ in points})
    headers = ["rho"] + list(series)
    rows: List[List[object]] = []
    for rho in load_factors:
        row: List[object] = [rho]
        for policy_name in series:
            lookup = dict(series[policy_name])
            row.append(lookup.get(rho, float("nan")))
        rows.append(row)
    return format_table(
        headers, rows, title="Figure 2: mean response time (s) vs load factor"
    )


# ----------------------------------------------------------------------
# Figures 3 and 5 — response-time CDFs
# ----------------------------------------------------------------------
#: Thresholds (seconds) at which the CDF tables are evaluated.
CDF_THRESHOLDS: Tuple[float, ...] = (
    0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0, 1.5, 2.0,
)


def render_figure_cdf(runs: Dict[str, PoissonRunResult], title: str) -> str:
    """A CDF comparison rendered as a table of P(T <= t) rows."""
    headers = ["t (s)"] + list(runs)
    rows: List[List[object]] = []
    per_policy = {
        name: run.response_times() for name, run in runs.items()
    }
    for threshold in CDF_THRESHOLDS:
        row: List[object] = [threshold]
        for name in runs:
            row.append(cdf_at(per_policy[name], [threshold])[0])
        rows.append(row)
    return format_table(headers, rows, title=title)


# ----------------------------------------------------------------------
# Figure 4 — instantaneous load and fairness
# ----------------------------------------------------------------------
@dataclass
class LoadFairnessSeries:
    """One policy's Figure 4 panels."""

    policy: str
    mean_load: List[Tuple[float, float]]
    fairness: List[Tuple[float, float]]


#: EWMA time constant, in seconds, of Figure 4's smoothing.
FIGURE4_TIME_CONSTANT = 1.0


def figure4_series(runs: Dict[str, PoissonRunResult]) -> Dict[str, LoadFairnessSeries]:
    """EWMA-smoothed mean-load and fairness series for each policy."""
    series: Dict[str, LoadFairnessSeries] = {}
    for name, run in runs.items():
        if run.load_sampler is None:
            raise ExperimentError(
                f"run {name!r} was executed without load sampling; "
                "run the sweep with sample_load=True"
            )
        sampler = run.load_sampler
        series[name] = LoadFairnessSeries(
            policy=name,
            mean_load=smooth_timeseries(sampler.mean_load_series(), FIGURE4_TIME_CONSTANT),
            fairness=smooth_timeseries(sampler.fairness_series(), FIGURE4_TIME_CONSTANT),
        )
    return series


def render_figure4(
    runs: Dict[str, PoissonRunResult], num_rows: int = 20
) -> str:
    """Figure 4 rendered as a table sub-sampled to ``num_rows`` time points."""
    series = figure4_series(runs)
    headers = ["time (s)"]
    for name in series:
        headers.extend([f"{name} mean load", f"{name} fairness"])
    # Use the first policy's timeline as the reference grid.
    reference = next(iter(series.values()))
    times = [time for time, _ in reference.mean_load]
    if not times:
        raise ExperimentError("load sampler produced no samples")
    stride = max(1, len(times) // num_rows)
    rows: List[List[object]] = []
    for index in range(0, len(times), stride):
        row: List[object] = [times[index]]
        for data in series.values():
            row.append(data.mean_load[index][1] if index < len(data.mean_load) else float("nan"))
            row.append(data.fairness[index][1] if index < len(data.fairness) else float("nan"))
        rows.append(row)
    return format_table(
        headers, rows, title="Figure 4: instantaneous server load (mean and fairness)"
    )


# ----------------------------------------------------------------------
# Figures 6, 7, 8 — Wikipedia replay
# ----------------------------------------------------------------------
def figure6_series(
    replay: ScenarioResult,
) -> Dict[str, Dict[str, List[Tuple[float, float]]]]:
    """Per-policy query-rate and median-load-time series (10-minute bins)."""
    series: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    for name in replay.keys():
        run = replay.run(name)
        series[name] = {
            "rate": run.rate_series(),
            "median": run.median_series(),
        }
    return series


def _equivalent_hour(bin_center: float, replay: ScenarioResult) -> float:
    """Map a (possibly time-compressed) bin centre to its time of day in hours.

    The synthetic trace traverses one diurnal cycle over
    ``replay.config.duration`` seconds, so the equivalent UTC hour is the
    fraction of the replay elapsed so far times 24.
    """
    return (bin_center / replay.config.duration) * 24.0


def render_figure6(replay: ScenarioResult) -> str:
    """Figure 6 as a table: one row per bin, rate plus per-policy medians."""
    series = figure6_series(replay)
    policies = list(series)
    reference = series[policies[0]]["rate"]
    headers = ["time of day (h)", "wiki pages/s"] + [
        f"{name} median (s)" for name in policies
    ]
    rows: List[List[object]] = []
    for index, (bin_center, rate) in enumerate(reference):
        row: List[object] = [_equivalent_hour(bin_center, replay), rate]
        for name in policies:
            medians = series[name]["median"]
            row.append(medians[index][1] if index < len(medians) else float("nan"))
        rows.append(row)
    return format_table(
        headers,
        rows,
        title="Figure 6: wiki-page query rate and median load time per bin",
    )


def figure7_series(
    replay: ScenarioResult,
) -> Dict[str, List[Tuple[float, List[float]]]]:
    """Per-policy, per-bin deciles 1–9 of the wiki-page load time."""
    return {name: replay.run(name).decile_series() for name in replay.keys()}


def render_figure7(replay: ScenarioResult, policy_name: str) -> str:
    """Figure 7 (one policy panel) as a table of per-bin deciles."""
    deciles_by_bin = figure7_series(replay)[policy_name]
    headers = ["time of day (h)"] + [f"d{k}" for k in range(1, 10)]
    rows: List[List[object]] = []
    for bin_center, decile_values in deciles_by_bin:
        rows.append([_equivalent_hour(bin_center, replay)] + list(decile_values))
    return format_table(
        headers,
        rows,
        title=f"Figure 7 ({policy_name}): deciles 1-9 of wiki page load time per bin",
    )


def render_figure8(replay: ScenarioResult) -> str:
    """Figure 8 as a table of P(T <= t), plus the median/quartile comparison."""
    headers = ["t (s)"] + list(replay.keys())
    per_policy = {
        name: replay.run(name).wiki_response_times() for name in replay.keys()
    }
    rows: List[List[object]] = []
    for threshold in CDF_THRESHOLDS:
        row: List[object] = [threshold]
        for name in replay.keys():
            row.append(cdf_at(per_policy[name], [threshold])[0])
        rows.append(row)
    table = format_table(
        headers, rows, title="Figure 8: whole-day CDF of wiki page load time"
    )
    quartile_lines = []
    for name in replay.keys():
        q1, median, q3 = replay.run(name).wiki_quartiles()
        quartile_lines.append(
            f"{name}: median={median:.3f}s, third quartile={q3:.3f}s (q1={q1:.3f}s)"
        )
    return table + "\n" + "\n".join(quartile_lines)
