"""Wikipedia-replay experiments (paper §VI, Figures 6–8).

The replay generates one synthetic 24-hour trace (see
:mod:`repro.workload.wikipedia` and the substitution note in DESIGN.md)
and replays it under the RR baseline and the SR4 policy — the comparison
the paper runs after SR4 came out best in the Poisson experiments.

Results are reported exactly as the paper does:

* Figure 6 — per-bin wiki-page query rate and median load time;
* Figure 7 — per-bin deciles 1–9 of the wiki-page load time;
* Figure 8 — whole-day CDF of wiki-page load times (plus the quartile
  comparison quoted in the text).

The replay is expressed as a
:class:`~repro.experiments.scenario.ScenarioSpec` (one cell per policy,
one shared trace); :class:`WikipediaReplay` is a thin entry point over
that spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.experiments import registry
from repro.experiments.config import PolicySpec, TestbedConfig, WikipediaReplayConfig
from repro.experiments.platform import Testbed, build_testbed
from repro.experiments.scenario import (
    ScenarioCell,
    ScenarioSpec,
    TraceProvider,
    run_scenario,
)
from repro.metrics.binning import TimeBinner
from repro.metrics.collector import ResponseTimeCollector
from repro.metrics.stats import quartiles
from repro.workload.requests import KIND_STATIC, KIND_WIKI, RequestCatalog
from repro.workload.trace import Trace
from repro.workload.wikipedia import DiurnalRateCurve, SyntheticWikipediaWorkload


def make_wikipedia_trace(config: WikipediaReplayConfig) -> Trace:
    """Generate the synthetic replay trace described by ``config``."""
    curve = DiurnalRateCurve(
        mean_rate=config.mean_wiki_rate,
        amplitude=config.wiki_rate_amplitude,
        trough_hour=config.trough_hour,
    )
    workload = SyntheticWikipediaWorkload(
        curve=curve,
        replay_fraction=config.replay_fraction,
        static_per_wiki=config.static_per_wiki,
        duration=config.duration,
    )
    rng = np.random.default_rng(config.workload_seed)
    return workload.generate(rng)


@dataclass
class WikipediaRunResult:
    """Outcome of replaying the trace under one policy."""

    policy: PolicySpec
    collector: ResponseTimeCollector
    bin_width: float
    trace_duration: float
    requests_served: int
    connections_reset: int

    def wiki_binned(self) -> TimeBinner:
        """Wiki-page response times binned by arrival time."""
        return self.collector.binned(bin_width=self.bin_width, kind=KIND_WIKI)

    def wiki_response_times(self) -> List[float]:
        """All wiki-page response times (Figure 8's CDF input)."""
        return self.collector.response_times(kind=KIND_WIKI)

    def static_response_times(self) -> List[float]:
        """Static-asset response times (the paper checks they are tiny)."""
        return self.collector.response_times(kind=KIND_STATIC)

    def median_series(self) -> List[Tuple[float, float]]:
        """Per-bin median wiki-page load time (Figure 6, bottom panel)."""
        return self.wiki_binned().median_series(through=self.trace_duration)

    def rate_series(self) -> List[Tuple[float, float]]:
        """Per-bin wiki-page query rate (Figure 6, top panel)."""
        return self.wiki_binned().rate_series(through=self.trace_duration)

    def decile_series(self) -> List[Tuple[float, List[float]]]:
        """Per-bin deciles 1–9 of the wiki-page load time (Figure 7)."""
        return self.wiki_binned().decile_series(through=self.trace_duration)

    def wiki_quartiles(self) -> Tuple[float, float, float]:
        """Whole-day quartiles of the wiki-page load time (Figure 8 text)."""
        return quartiles(self.wiki_response_times())


@dataclass
class WikipediaReplayResult:
    """Results of the replay under every configured policy."""

    config: WikipediaReplayConfig
    trace_summary: Dict[str, float]
    runs: Dict[str, WikipediaRunResult] = field(default_factory=dict)

    def run(self, policy_name: str) -> WikipediaRunResult:
        """The run for one policy, by name."""
        try:
            return self.runs[policy_name]
        except KeyError as exc:
            raise ExperimentError(f"no run for policy {policy_name!r}") from exc

    def policies(self) -> List[str]:
        """Names of the replayed policies."""
        return list(self.runs)


class WikipediaScenario(ScenarioSpec):
    """The synthetic Wikipedia replay as a declarative scenario."""

    name = "wikipedia"

    def smoke_config(self) -> WikipediaReplayConfig:
        return replace(
            WikipediaReplayConfig(
                testbed=TestbedConfig(
                    num_servers=4, workers_per_server=8, backlog_capacity=16
                )
            ),
            static_per_wiki=0.2,
        ).compressed(duration=40.0)

    def config_from_flags(
        self, config: WikipediaReplayConfig, flags
    ) -> WikipediaReplayConfig:
        # ``--duration`` compresses the day: the bins shrink with it, so
        # the figures keep the paper's 144.
        day = self.default_config().duration
        return replace(config, duration=day).compressed(config.duration)

    def cells(self, config: WikipediaReplayConfig) -> List[ScenarioCell]:
        return [
            ScenarioCell(key=policy.name, params={"policy": policy})
            for policy in config.policies
        ]

    # trace_key: the default (one shared trace for every policy).

    def make_trace(
        self, config: WikipediaReplayConfig, cell: ScenarioCell
    ) -> Trace:
        return make_wikipedia_trace(config)

    def build_platform(
        self, config: WikipediaReplayConfig, cell: ScenarioCell
    ) -> Testbed:
        policy = cell.param("policy")
        return build_testbed(
            config.testbed,
            policy,
            catalog=RequestCatalog(),
            run_name=f"wikipedia-{policy.name}",
        )

    def run_once(
        self, config: WikipediaReplayConfig, cell: ScenarioCell, trace: Trace
    ) -> WikipediaRunResult:
        testbed = self.build_platform(config, cell)
        testbed.run_trace(trace)
        return WikipediaRunResult(
            policy=cell.param("policy"),
            collector=testbed.collector,
            bin_width=config.bin_width,
            trace_duration=trace.duration,
            requests_served=testbed.total_requests_served(),
            connections_reset=testbed.total_resets(),
        )

    def aggregate(
        self,
        config: WikipediaReplayConfig,
        cells: Sequence[ScenarioCell],
        runs: Sequence[WikipediaRunResult],
        trace_for: TraceProvider,
    ) -> WikipediaReplayResult:
        summary = trace_for(cells[0]).summary()
        return WikipediaReplayResult(
            config=config,
            trace_summary={
                "requests": float(summary.num_requests),
                "duration": summary.duration,
                "mean_rate": summary.mean_rate,
                "mean_demand": summary.mean_demand,
            },
            runs={cell.key: run for cell, run in zip(cells, runs)},
        )

    def render(self, result: WikipediaReplayResult) -> str:
        from repro.experiments import figures

        return figures.render_figure6(result)

    def report(self, result: WikipediaReplayResult) -> str:
        """Figure 6 between the trace banner and the whole-day quartiles."""
        lines = [
            "generated synthetic trace: "
            f"{int(result.trace_summary['requests'])} requests over "
            f"{result.trace_summary['duration']:.0f} s "
            f"(replay fraction {result.config.replay_fraction:g})",
            "",
            self.render(result),
            "",
        ]
        for name in result.policies():
            _q1, median, q3 = result.run(name).wiki_quartiles()
            lines.append(
                f"{name}: whole-day median={median:.3f} s, third quartile={q3:.3f} s"
            )
        return "\n".join(lines)


#: The registered spec instance (also reachable via ``registry.get``).
WIKIPEDIA_SCENARIO = registry.register(WikipediaScenario())


class WikipediaReplay:
    """Replay the synthetic Wikipedia trace under each configured policy."""

    def __init__(self, config: Optional[WikipediaReplayConfig] = None) -> None:
        self.config = config or WikipediaReplayConfig()

    def run(
        self, trace: Optional[Trace] = None, jobs: Optional[int] = 1
    ) -> WikipediaReplayResult:
        """Generate (or reuse) the trace and replay it under every policy.

        ``jobs`` fans the per-policy replays out over worker processes
        (``None``/``0`` = all cores); ``jobs=1`` keeps the historical
        in-process path.  Results are identical for any value — see
        :mod:`repro.experiments.scenario` for the determinism contract.
        An explicit ``trace`` is shipped to the workers verbatim; a
        config-generated trace is cheaper to regenerate from the seed
        than to pickle to the workers.
        """
        return run_scenario(WIKIPEDIA_SCENARIO, self.config, jobs=jobs, trace=trace)
