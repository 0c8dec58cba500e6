"""Command-line interface for the SRLB reproduction.

Installed as the ``srlb-repro`` console script (also runnable as
``python -m repro.cli``).  The sub-commands cover the common workflows:

``calibrate``
    Print the testbed's analytic saturation rate λ₀ and, optionally, run
    the empirical bracketing search the paper describes.

``poisson``
    Run the Poisson workload (paper §V) for one or more policies at one
    or more load factors and print the response-time comparison.

``wikipedia``
    Run the (optionally time-compressed) synthetic Wikipedia replay
    (paper §VI) under RR and SR4 and print the Figure 6 table plus the
    whole-day quartiles.

``figure``
    Regenerate a single figure of the paper (2–8) at a chosen scale and
    print the same series the paper plots.

``resilience``
    Front the testbed with an ECMP load-balancer tier, kill (or add)
    instances mid-run, and print the broken-flow fraction per
    candidate-selection scheme (the paper's §II-B resiliency claim).

``flash-crowd``
    Replay a stepped arrival schedule (baseline → overload spike →
    recovery) under each policy and print per-phase response times.

``heterogeneous-fleet``
    Split the fleet into fast and slow CPU tiers and print, per policy,
    response times plus how accepted queries split between the tiers
    relative to capacity.

``autoscale``
    Replay a diurnal (sinusoid-plus-noise) workload under static,
    reactive and predictive provisioning and print capacity-seconds
    against the p99 SLO, plus the fleet-size trajectory.

``heavy-tail``
    Replay a heavy-tailed mixture (bounded-Pareto one-shots plus
    keep-alive user sessions with Zipf popularity and per-user flow
    affinity) under each policy and print per-kind response times.

``adversarial``
    Replay a legitimate Poisson workload while a SYN flood, a
    hash-collision flood concentrated on one ECMP bucket, or a gray
    failure (degraded-but-alive server, watchdog quarantine) happens
    mid-run, and print what the legitimate flows experienced.

``chaos``
    Replay a legitimate Poisson workload while the fabric misbehaves —
    i.i.d./bursty packet loss with corruption, scheduled link flaps, or
    latency jitter with bounded reordering — with client SYN
    retransmission, bounded retries and server load-shedding armed, and
    print per-cell recovery next to the fault counters.

``scale``
    Run one partitioned million-client replay: the aggregate query
    stream is ECMP-sharded over identical pods, each pod simulated by
    its own partition, and the merged result printed with its
    determinism fingerprint (identical for any ``--partitions``).

``scenarios``
    List every scenario family registered in
    :mod:`repro.experiments.registry` (``--json`` for tooling).

``dashboard``
    Render a telemetry report JSON (written by ``--telemetry-out``)
    into a self-contained HTML dashboard and print the terminal
    sparkline summary.

Most commands accept ``--servers`` / ``--workers`` / ``--cores`` to
resize the simulated testbed; defaults match the paper's platform.
Every scenario sub-command additionally accepts ``--telemetry`` (stream
in-sim counters during the run and print a sparkline summary) and
``--telemetry-out DIR`` (also save ``telemetry.json`` plus
``dashboard.html``); telemetry never changes results.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro._version import __version__
from repro.errors import ReproError
from repro.experiments.calibration import (
    analytic_saturation_rate,
    find_empirical_saturation_rate,
)
from repro.experiments.config import (
    HIGH_LOAD_FACTOR,
    LIGHT_LOAD_FACTOR,
    AdversarialConfig,
    AutoscaleConfig,
    ChaosConfig,
    ChurnEvent,
    FlashCrowdConfig,
    HeavyTailConfig,
    HeterogeneousFleetConfig,
    PoissonSweepConfig,
    PolicySpec,
    ResilienceConfig,
    ScaleConfig,
    TestbedConfig,
    WikipediaReplayConfig,
    paper_policy_suite,
    rr_policy,
    sr_policy,
    srdyn_policy,
)
from repro.experiments import figures, registry
from repro.experiments.adversarial_experiment import run_adversarial
from repro.experiments.autoscale_experiment import run_autoscale
from repro.experiments.chaos_experiment import run_chaos
from repro.experiments.heavy_tail_experiment import run_heavy_tail
from repro.experiments.flash_crowd_experiment import run_flash_crowd
from repro.experiments.heterogeneous_experiment import run_heterogeneous_fleet
from repro.experiments.poisson_experiment import PoissonSweep
from repro.experiments.resilience_experiment import (
    render_resilience_table,
    run_resilience_comparison,
)
from repro.experiments.scale_experiment import run_scale_scenario
from repro.experiments.wikipedia_experiment import WikipediaReplay, make_wikipedia_trace
from repro.metrics.reporting import format_table


# ----------------------------------------------------------------------
# argument helpers
# ----------------------------------------------------------------------
def _policy_spec_from_name(name: str) -> PolicySpec:
    """Translate a CLI policy name into a :class:`PolicySpec`."""
    if name == "RR":
        return rr_policy()
    if name == "SRdyn":
        return srdyn_policy()
    if name.startswith("SR") and name[2:].isdigit():
        return sr_policy(int(name[2:]))
    raise ReproError(
        f"unknown policy {name!r}: expected RR, SRdyn or SR<threshold> (e.g. SR4)"
    )


def _policies_from_args(args: argparse.Namespace) -> Tuple[PolicySpec, ...]:
    """The ``--policy`` selections (default RR, SR4, SRdyn), each once."""
    names = args.policy or ["RR", "SR4", "SRdyn"]
    return tuple(dict.fromkeys(_policy_spec_from_name(name) for name in names))


def _testbed_from_args(args: argparse.Namespace) -> TestbedConfig:
    return TestbedConfig(
        num_servers=args.servers,
        workers_per_server=args.workers,
        cores_per_server=args.cores,
        seed=args.seed,
    )


def _add_testbed_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--servers", type=int, default=12, help="number of servers (paper: 12)")
    parser.add_argument("--workers", type=int, default=32, help="workers per server (paper: 32)")
    parser.add_argument("--cores", type=int, default=2, help="cores per server (paper: 2)")
    parser.add_argument("--seed", type=int, default=0, help="testbed RNG seed")


def _jobs_count(text: str) -> int:
    """Parse and validate a ``--jobs`` value at the argparse layer.

    Rejecting negatives here yields a clear usage error (exit status 2)
    instead of an error from deep inside the run.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer number of worker processes, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = all cores, 1 = in-process), got {value}"
        )
    return value


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_jobs_count,
        default=1,
        help="inter-run fan-out: worker processes running *independent* "
        "runs (sweep cells) concurrently (default 1 = in-process, "
        "0 = all cores); distinct from --partitions, which splits one "
        "run across processes; results are identical for any value",
    )


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="stream in-sim counters during the run and print a "
        "sparkline summary afterwards (never changes results)",
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="DIR",
        help="write telemetry.json and dashboard.html to this directory "
        "(implies --telemetry)",
    )


def _telemetry_requested(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "telemetry", False) or getattr(args, "telemetry_out", None)
    )


def _emit_telemetry(args: argparse.Namespace) -> None:
    """Print the sparkline summary and save the report, post-run."""
    from repro.telemetry import render as telemetry_render
    from repro.telemetry import runtime as telemetry_runtime

    report = telemetry_runtime.last_report()
    if not report:
        print("\ntelemetry: no payloads were published by this run")
        return
    for key, payload in report.items():
        print()
        print(telemetry_render.render_summary(payload, title=f"telemetry [{key}]"))
    out_dir = getattr(args, "telemetry_out", None)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        report_path = telemetry_render.save_report(
            os.path.join(out_dir, "telemetry.json"), report.items()
        )
        html_path = os.path.join(out_dir, "dashboard.html")
        page = telemetry_render.render_dashboard(
            {str(key): payload for key, payload in report.items()},
            title=f"srlb-repro {args.command}",
        )
        with open(html_path, "w", encoding="utf-8") as handle:
            handle.write(page)
        print()
        print(f"telemetry report : {report_path}")
        print(f"dashboard        : {html_path}")


def _partitions_count(text: str) -> int:
    """Parse and validate a ``--partitions`` value at the argparse layer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer number of partition processes, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1 (1 = run every partition in-process), got {value}"
        )
    return value


# ----------------------------------------------------------------------
# sub-commands
# ----------------------------------------------------------------------
def _command_calibrate(args: argparse.Namespace) -> int:
    testbed = _testbed_from_args(args)
    analytic = analytic_saturation_rate(testbed, args.service_mean)
    print(
        f"analytic saturation rate λ₀ = {analytic:.1f} queries/s "
        f"({testbed.total_cores} cores / {args.service_mean:.3f} s mean demand)"
    )
    if args.empirical:
        result = find_empirical_saturation_rate(
            testbed,
            service_mean=args.service_mean,
            num_queries=args.queries,
            num_iterations=args.iterations,
        )
        print(
            f"empirical saturation rate ≈ {result.saturation_rate:.1f} queries/s "
            f"({result.ratio_to_analytic:.2f}x the analytic estimate, "
            f"{len(result.probes)} probe runs)"
        )
    return 0


def _command_poisson(args: argparse.Namespace) -> int:
    testbed = _testbed_from_args(args)
    config = PoissonSweepConfig(
        testbed=testbed,
        load_factors=tuple(dict.fromkeys(args.rho or [HIGH_LOAD_FACTOR])),
        num_queries=args.queries,
        service_mean=args.service_mean,
        policies=_policies_from_args(args),
    )
    sweep = PoissonSweep(config).run(jobs=args.jobs)
    rows: List[List[object]] = []
    for load_factor in config.load_factors:
        for spec in config.policies:
            result = sweep.run(spec.name, load_factor)
            summary = result.summary
            rows.append(
                [
                    load_factor,
                    spec.name,
                    summary.mean,
                    summary.median,
                    summary.p90,
                    result.connections_reset,
                ]
            )
    print(
        format_table(
            ["rho", "policy", "mean (s)", "median (s)", "p90 (s)", "resets"],
            rows,
            title=(
                f"Poisson workload, {args.queries} queries per run, "
                f"{testbed.num_servers} servers"
            ),
        )
    )
    return 0


def _command_wikipedia(args: argparse.Namespace) -> int:
    testbed = _testbed_from_args(args)
    config = dataclasses.replace(
        WikipediaReplayConfig(),
        testbed=testbed,
        replay_fraction=args.replay_fraction,
        static_per_wiki=args.static_per_wiki,
    ).compressed(duration=args.duration)
    trace = make_wikipedia_trace(config)
    print(
        f"generated synthetic trace: {len(trace)} requests over "
        f"{trace.duration:.0f} s (replay fraction {args.replay_fraction:g})"
    )
    result = WikipediaReplay(config).run(trace=trace, jobs=args.jobs)
    print()
    print(figures.render_figure6(result))
    print()
    for name in result.policies():
        q1, median, q3 = result.run(name).wiki_quartiles()
        print(f"{name}: whole-day median={median:.3f} s, third quartile={q3:.3f} s")
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    testbed = _testbed_from_args(args)
    number = args.number
    if number == 2:
        load_factors = tuple(
            round(float(value), 3) for value in np.linspace(0.3, 0.88, args.points)
        )
        config = PoissonSweepConfig(
            testbed=testbed,
            load_factors=load_factors,
            num_queries=args.queries,
            policies=tuple(paper_policy_suite()),
        )
        print(figures.render_figure2(PoissonSweep(config).run(jobs=args.jobs)))
        return 0
    if number in (3, 4, 5):
        load_factor = LIGHT_LOAD_FACTOR if number == 5 else HIGH_LOAD_FACTOR
        sample_load = number == 4
        specs = (
            (rr_policy(), sr_policy(4))
            if number == 4
            else tuple(paper_policy_suite())
        )
        sweep = PoissonSweep(
            PoissonSweepConfig(
                testbed=testbed,
                load_factors=(load_factor,),
                num_queries=args.queries,
                policies=tuple(specs),
            )
        ).run(sample_load=sample_load, jobs=args.jobs)
        runs = {spec.name: sweep.run(spec.name, load_factor) for spec in specs}
        if number == 4:
            print(figures.render_figure4(runs))
        else:
            print(
                figures.render_figure_cdf(
                    runs, title=f"Figure {number}: CDF of page load time, rho={load_factor}"
                )
            )
        return 0
    if number in (6, 7, 8):
        config = dataclasses.replace(
            WikipediaReplayConfig(), testbed=testbed, static_per_wiki=0.5
        ).compressed(duration=args.duration)
        result = WikipediaReplay(config).run(jobs=args.jobs)
        if number == 6:
            print(figures.render_figure6(result))
        elif number == 7:
            for name in result.policies():
                print(figures.render_figure7(result, name))
                print()
        else:
            print(figures.render_figure8(result))
        return 0
    raise ReproError(f"unknown figure number {number!r}: the paper has figures 2-8")


def _command_resilience(args: argparse.Namespace) -> int:
    testbed = dataclasses.replace(
        _testbed_from_args(args),
        num_load_balancers=args.lbs,
        ecmp_hash=args.ecmp_hash,
        request_spread=args.spread,
        request_chunks=args.chunks,
        # Free workers pinned by abandoned flows well after a legitimate
        # upload would have finished.
        request_timeout=2 * args.spread + 1.0,
    )
    # Default to one mid-run kill only when no churn was requested at
    # all; an explicit --add-at alone means an add-only schedule.
    kill_fractions = args.kill_at
    if kill_fractions is None and not args.add_at:
        kill_fractions = [0.5]
    churn: List[ChurnEvent] = [
        ChurnEvent(at_fraction=fraction, action="kill")
        for fraction in (kill_fractions or [])
    ]
    churn.extend(
        ChurnEvent(at_fraction=fraction, action="add")
        for fraction in (args.add_at or [])
    )
    churn.sort(key=lambda event: event.at_fraction)
    config = ResilienceConfig(
        testbed=testbed,
        load_factor=args.rho,
        num_queries=args.queries,
        acceptance_policy=args.policy,
        selection_schemes=tuple(
            dict.fromkeys(args.scheme or ["random", "consistent-hash"])
        ),
        churn=tuple(churn),
    )
    comparison = run_resilience_comparison(config, jobs=args.jobs)
    print(render_resilience_table(comparison))
    for scheme in comparison.keys():
        run = comparison.run(scheme)
        for observation in run.observations:
            print(
                f"{scheme}: {observation.event.action} {observation.instance} "
                f"at t={observation.at_time:.1f}s with "
                f"{len(observation.in_flight_ids)} queries in flight"
                + (
                    f", {observation.flow_entries_lost} flow entries lost"
                    if observation.event.action == "kill"
                    else ""
                )
            )
    return 0


def _command_flash_crowd(args: argparse.Namespace) -> int:
    testbed = _testbed_from_args(args)
    config = FlashCrowdConfig(
        testbed=testbed,
        baseline_load=args.baseline_rho,
        spike_load=args.spike_rho,
        baseline_duration=args.baseline_duration,
        spike_duration=args.spike_duration,
        recovery_duration=args.recovery_duration,
        bin_width=args.bin_width,
        policies=_policies_from_args(args),
    )
    result = run_flash_crowd(config, jobs=args.jobs)
    print(figures.render_scenario_figure("flash-crowd", result))
    return 0


def _command_heterogeneous_fleet(args: argparse.Namespace) -> int:
    config = HeterogeneousFleetConfig(
        num_fast=args.fast,
        num_slow=args.slow,
        fast_speed=args.fast_speed,
        slow_speed=args.slow_speed,
        workers_per_server=args.workers,
        cores_per_server=args.cores,
        seed=args.seed,
        load_factors=tuple(dict.fromkeys(args.rho or [0.85])),
        num_queries=args.queries,
        policies=_policies_from_args(args),
    )
    result = run_heterogeneous_fleet(config, jobs=args.jobs)
    print(figures.render_scenario_figure("heterogeneous-fleet", result))
    return 0


def _command_autoscale(args: argparse.Namespace) -> int:
    config = AutoscaleConfig(
        workers_per_server=args.workers,
        cores_per_server=args.cores,
        seed=args.seed,
        min_servers=args.min_servers,
        max_servers=args.max_servers,
        mean_load=args.mean_load,
        load_amplitude=args.load_amplitude,
        period=args.period,
        duration=args.duration,
        slo_p99=args.slo_p99,
        modes=tuple(dict.fromkeys(args.mode or ["static", "reactive", "predictive"])),
    )
    if args.time_factor != 1.0:
        config = config.scaled(args.time_factor)
    result = run_autoscale(config, jobs=args.jobs)
    print(figures.render_scenario_figure("autoscale", result))
    return 0


def _command_heavy_tail(args: argparse.Namespace) -> int:
    config = HeavyTailConfig(
        testbed=_testbed_from_args(args),
        load_factor=args.rho,
        num_arrivals=args.arrivals,
        heavy_fraction=args.heavy_fraction,
        mean_session_length=args.session_length,
        num_users=args.users,
        user_zipf=args.user_zipf,
        policies=_policies_from_args(args),
    )
    result = run_heavy_tail(config, jobs=args.jobs)
    print(figures.render_scenario_figure("heavy-tail", result))
    return 0


def _command_adversarial(args: argparse.Namespace) -> int:
    modes = tuple(
        dict.fromkeys(
            args.mode or ["baseline", "syn-flood", "hash-collision", "gray-failure"]
        )
    )
    testbed = dataclasses.replace(
        _testbed_from_args(args),
        num_load_balancers=args.lbs,
        flow_idle_timeout=args.flow_idle_timeout,
        request_timeout=args.request_timeout,
    )
    config = AdversarialConfig(
        testbed=testbed,
        load_factor=args.rho,
        num_queries=args.queries,
        service_mean=args.service_mean,
        modes=modes,
        flood_rate_factor=args.flood_rate_factor,
        flood_sources=args.flood_sources,
        collision_flows=args.collision_flows,
        collision_target=args.collision_target,
        degraded_speed=args.degraded_speed,
    )
    result = run_adversarial(config, jobs=args.jobs)
    print(figures.render_scenario_figure("adversarial", result))
    return 0


def _command_chaos(args: argparse.Namespace) -> int:
    modes = tuple(
        dict.fromkeys(args.mode or ["baseline", "loss", "flap", "jitter"])
    )
    testbed = dataclasses.replace(
        _testbed_from_args(args),
        num_load_balancers=args.lbs,
        flow_idle_timeout=5.0,
        request_timeout=2.0,
        syn_retransmit_timeout=args.syn_rto,
        syn_retransmit_cap=args.syn_rto_cap,
        syn_retransmit_limit=args.syn_rto_limit,
        retry_timeout=args.retry_timeout,
        max_retries=args.max_retries,
        backlog_shed_watermark=args.shed_watermark,
    )
    config = ChaosConfig(
        testbed=testbed,
        load_factor=args.rho,
        num_queries=args.queries,
        service_mean=args.service_mean,
        modes=modes,
        loss_rate=args.loss_rate,
        flap_count=args.flap_count,
        flap_down=args.flap_down,
        jitter_mean=args.jitter_mean,
    )
    result = run_chaos(config, jobs=args.jobs)
    print(figures.render_scenario_figure("chaos", result))
    return 0


def _command_scale(args: argparse.Namespace) -> int:
    config = ScaleConfig(
        testbed=_testbed_from_args(args),
        pods=args.pods,
        num_queries=args.queries,
        load_factor=args.rho,
        service_mean=args.service_mean,
        acceptance_policy=args.policy,
        ecmp_hash=args.ecmp_hash,
    )
    result = run_scale_scenario(config, partitions=args.partitions)
    print(figures.render_scenario_figure("scale", result))
    return 0


def _command_dashboard(args: argparse.Namespace) -> int:
    from repro.telemetry import render as telemetry_render

    cells = telemetry_render.load_report(args.report)
    for key, payload in cells:
        print(telemetry_render.render_summary(payload, title=f"telemetry [{key}]"))
        print()
    page = telemetry_render.render_dashboard(dict(cells), title=args.title)
    out = args.out
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(page)
    print(f"dashboard written to {out}")
    return 0


def _command_scenarios(args: argparse.Namespace) -> int:
    import json

    if args.json:
        catalogue = [
            {
                "name": spec.name,
                "description": spec.title,
                "cells": [
                    str(cell.key) for cell in spec.cells(spec.default_config())
                ],
            }
            for spec in registry.specs()
        ]
        print(json.dumps(catalogue, indent=2))
        return 0
    rows = [[spec.name, spec.title] for spec in registry.specs()]
    print(
        format_table(
            ["scenario", "description"],
            rows,
            title="Registered scenario families",
        )
    )
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="srlb-repro",
        description="Reproduction of 'SRLB: The Power of Choices in Load Balancing "
        "with Segment Routing' (ICDCS 2017).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    calibrate = subparsers.add_parser(
        "calibrate", help="estimate the testbed saturation rate λ₀"
    )
    _add_testbed_arguments(calibrate)
    calibrate.add_argument("--service-mean", type=float, default=0.1)
    calibrate.add_argument(
        "--empirical", action="store_true", help="also run the empirical search"
    )
    calibrate.add_argument("--queries", type=int, default=3_000)
    calibrate.add_argument("--iterations", type=int, default=4)
    calibrate.set_defaults(handler=_command_calibrate)

    poisson = subparsers.add_parser("poisson", help="run the Poisson workload (paper §V)")
    _add_testbed_arguments(poisson)
    poisson.add_argument(
        "--policy",
        action="append",
        help="policy to run (RR, SR<k>, SRdyn); repeatable; default RR, SR4, SRdyn",
    )
    poisson.add_argument(
        "--rho", action="append", type=float, help="load factor; repeatable; default 0.88"
    )
    poisson.add_argument("--queries", type=int, default=3_000)
    poisson.add_argument("--service-mean", type=float, default=0.1)
    _add_jobs_argument(poisson)
    _add_telemetry_arguments(poisson)
    poisson.set_defaults(handler=_command_poisson)

    wikipedia = subparsers.add_parser(
        "wikipedia", help="run the synthetic Wikipedia replay (paper §VI)"
    )
    _add_testbed_arguments(wikipedia)
    wikipedia.add_argument(
        "--duration", type=float, default=480.0, help="compressed day length in seconds"
    )
    wikipedia.add_argument("--replay-fraction", type=float, default=0.5)
    wikipedia.add_argument("--static-per-wiki", type=float, default=0.5)
    _add_jobs_argument(wikipedia)
    _add_telemetry_arguments(wikipedia)
    wikipedia.set_defaults(handler=_command_wikipedia)

    figure = subparsers.add_parser("figure", help="regenerate one figure of the paper (2-8)")
    _add_testbed_arguments(figure)
    figure.add_argument("number", type=int, help="figure number, 2-8")
    figure.add_argument("--queries", type=int, default=2_000)
    figure.add_argument("--points", type=int, default=4, help="load factors for figure 2")
    figure.add_argument(
        "--duration", type=float, default=480.0, help="compressed day for figures 6-8"
    )
    _add_jobs_argument(figure)
    _add_telemetry_arguments(figure)
    figure.set_defaults(handler=_command_figure)

    resilience = subparsers.add_parser(
        "resilience",
        help="measure broken flows under load-balancer churn (ECMP tier)",
    )
    _add_testbed_arguments(resilience)
    resilience.add_argument(
        "--lbs", type=int, default=4, help="load-balancer instances in the tier"
    )
    resilience.add_argument(
        "--scheme",
        action="append",
        help="selection scheme (random, consistent-hash); repeatable; default both",
    )
    resilience.add_argument(
        "--policy", default="SR8", help="acceptance policy on the servers"
    )
    resilience.add_argument("--rho", type=float, default=0.6, help="load factor")
    resilience.add_argument("--queries", type=int, default=4_000)
    resilience.add_argument(
        "--kill-at",
        action="append",
        type=float,
        help="kill one instance at this fraction of the run; repeatable; default 0.5",
    )
    resilience.add_argument(
        "--add-at",
        action="append",
        type=float,
        help="add one instance at this fraction of the run; repeatable",
    )
    resilience.add_argument(
        "--ecmp-hash",
        choices=["rendezvous", "modulo"],
        default="rendezvous",
        help="flow-to-instance mapping of the ECMP edge",
    )
    resilience.add_argument(
        "--spread", type=float, default=2.0, help="request upload spread in seconds"
    )
    resilience.add_argument(
        "--chunks", type=int, default=5, help="segments per spread upload"
    )
    _add_jobs_argument(resilience)
    _add_telemetry_arguments(resilience)
    resilience.set_defaults(handler=_command_resilience)

    flash_crowd = subparsers.add_parser(
        "flash-crowd",
        help="replay a baseline -> spike -> recovery arrival schedule",
    )
    _add_testbed_arguments(flash_crowd)
    flash_crowd.add_argument(
        "--policy",
        action="append",
        help="policy to run (RR, SR<k>, SRdyn); repeatable; default RR, SR4, SRdyn",
    )
    flash_crowd.add_argument(
        "--baseline-rho", type=float, default=0.5, help="baseline load factor"
    )
    flash_crowd.add_argument(
        "--spike-rho", type=float, default=1.5, help="load factor during the spike"
    )
    flash_crowd.add_argument(
        "--baseline-duration", type=float, default=40.0, help="baseline phase, seconds"
    )
    flash_crowd.add_argument(
        "--spike-duration", type=float, default=15.0, help="spike phase, seconds"
    )
    flash_crowd.add_argument(
        "--recovery-duration", type=float, default=45.0, help="recovery phase, seconds"
    )
    flash_crowd.add_argument(
        "--bin-width", type=float, default=5.0, help="figure time-bin width, seconds"
    )
    _add_jobs_argument(flash_crowd)
    _add_telemetry_arguments(flash_crowd)
    flash_crowd.set_defaults(handler=_command_flash_crowd)

    heterogeneous = subparsers.add_parser(
        "heterogeneous-fleet",
        help="run the Poisson workload over mixed fast/slow server tiers",
    )
    heterogeneous.add_argument(
        "--fast", type=int, default=4, help="servers in the fast tier"
    )
    heterogeneous.add_argument(
        "--slow", type=int, default=8, help="servers in the slow tier"
    )
    heterogeneous.add_argument(
        "--fast-speed", type=float, default=2.0, help="fast-tier CPU speed multiplier"
    )
    heterogeneous.add_argument(
        "--slow-speed", type=float, default=0.75, help="slow-tier CPU speed multiplier"
    )
    heterogeneous.add_argument(
        "--workers", type=int, default=32, help="Apache workers per server"
    )
    heterogeneous.add_argument(
        "--cores", type=int, default=2, help="CPU cores per server"
    )
    heterogeneous.add_argument("--seed", type=int, default=0, help="testbed RNG seed")
    heterogeneous.add_argument(
        "--policy",
        action="append",
        help="policy to run (RR, SR<k>, SRdyn); repeatable; default RR, SR4, SRdyn",
    )
    heterogeneous.add_argument(
        "--rho", action="append", type=float, help="load factor; repeatable; default 0.85"
    )
    heterogeneous.add_argument("--queries", type=int, default=4_000)
    _add_jobs_argument(heterogeneous)
    _add_telemetry_arguments(heterogeneous)
    heterogeneous.set_defaults(handler=_command_heterogeneous_fleet)

    autoscale = subparsers.add_parser(
        "autoscale",
        help="compare static vs elastic provisioning under a diurnal load",
    )
    autoscale.add_argument(
        "--workers", type=int, default=32, help="Apache workers per server"
    )
    autoscale.add_argument(
        "--cores", type=int, default=2, help="CPU cores per server"
    )
    autoscale.add_argument("--seed", type=int, default=0, help="testbed RNG seed")
    autoscale.add_argument(
        "--min-servers", type=int, default=4, help="elastic fleet floor"
    )
    autoscale.add_argument(
        "--max-servers",
        type=int,
        default=12,
        help="elastic fleet ceiling (and the static fleet's size)",
    )
    autoscale.add_argument(
        "--mean-load",
        type=float,
        default=0.5,
        help="day-average load as a fraction of the max fleet's capacity",
    )
    autoscale.add_argument(
        "--load-amplitude",
        type=float,
        default=0.3,
        help="peak-to-mean swing of the diurnal sinusoid",
    )
    autoscale.add_argument(
        "--period", type=float, default=240.0, help="compressed day length, seconds"
    )
    autoscale.add_argument(
        "--duration", type=float, default=480.0, help="total schedule length, seconds"
    )
    autoscale.add_argument(
        "--slo-p99", type=float, default=1.5, help="p99 response-time target, seconds"
    )
    autoscale.add_argument(
        "--mode",
        action="append",
        help="provisioning mode (static, reactive, predictive); repeatable; "
        "default all three",
    )
    autoscale.add_argument(
        "--time-factor",
        type=float,
        default=1.0,
        help="compress the day and every control-plane clock by this factor",
    )
    _add_jobs_argument(autoscale)
    _add_telemetry_arguments(autoscale)
    autoscale.set_defaults(handler=_command_autoscale)

    heavy_tail = subparsers.add_parser(
        "heavy-tail",
        help="heavy-tailed Pareto/lognormal sessions with Zipf user affinity",
    )
    _add_testbed_arguments(heavy_tail)
    heavy_tail.add_argument(
        "--policy",
        action="append",
        help="policy to run (RR, SR<k>, SRdyn); repeatable; default RR, SR4, SRdyn",
    )
    heavy_tail.add_argument(
        "--rho", type=float, default=0.7, help="offered load over fleet capacity"
    )
    heavy_tail.add_argument(
        "--arrivals", type=int, default=4_000, help="arrivals (sessions + one-shots)"
    )
    heavy_tail.add_argument(
        "--heavy-fraction",
        type=float,
        default=0.25,
        help="probability an arrival is a one-shot bounded-Pareto request",
    )
    heavy_tail.add_argument(
        "--session-length",
        type=float,
        default=4.0,
        help="mean keep-alive requests per session (geometric)",
    )
    heavy_tail.add_argument(
        "--users", type=int, default=200_000, help="simulated user population size"
    )
    heavy_tail.add_argument(
        "--user-zipf",
        type=float,
        default=1.3,
        help="Zipf exponent of user popularity (> 1)",
    )
    _add_jobs_argument(heavy_tail)
    _add_telemetry_arguments(heavy_tail)
    heavy_tail.set_defaults(handler=_command_heavy_tail)

    adversarial = subparsers.add_parser(
        "adversarial",
        help="SYN flood, ECMP hash-collision skew and gray failure mid-run",
    )
    _add_testbed_arguments(adversarial)
    adversarial.add_argument(
        "--lbs", type=int, default=4, help="load-balancer tier size (>= 2)"
    )
    adversarial.add_argument(
        "--rho", type=float, default=0.55, help="legitimate load factor"
    )
    adversarial.add_argument(
        "--queries", type=int, default=4_000, help="legitimate queries"
    )
    adversarial.add_argument("--service-mean", type=float, default=0.05)
    adversarial.add_argument(
        "--mode",
        action="append",
        choices=["baseline", "syn-flood", "hash-collision", "gray-failure"],
        help="attack mode to run; repeatable; default all four",
    )
    adversarial.add_argument(
        "--flood-rate-factor",
        type=float,
        default=3.0,
        help="flood intensity as a multiple of the legitimate rate",
    )
    adversarial.add_argument(
        "--flood-sources",
        type=int,
        default=32,
        help="spoofed source pool size (source churn)",
    )
    adversarial.add_argument(
        "--collision-flows",
        type=int,
        default=256,
        help="distinct colliding 5-tuples the offline search finds",
    )
    adversarial.add_argument(
        "--collision-target",
        type=int,
        default=0,
        help="index of the LB instance the collision flood concentrates on",
    )
    adversarial.add_argument(
        "--degraded-speed",
        type=float,
        default=0.2,
        help="gray-failure victim CPU speed multiplier (0, 1)",
    )
    adversarial.add_argument(
        "--flow-idle-timeout",
        type=float,
        default=5.0,
        help="LB flow-table idle timeout (housekeeping reclaims after this)",
    )
    adversarial.add_argument(
        "--request-timeout",
        type=float,
        default=2.0,
        help="server-side request timeout freeing workers pinned by the flood",
    )
    _add_jobs_argument(adversarial)
    _add_telemetry_arguments(adversarial)
    adversarial.set_defaults(handler=_command_adversarial)

    chaos = subparsers.add_parser(
        "chaos",
        help="packet loss, link flaps and jitter against a retrying client",
    )
    _add_testbed_arguments(chaos)
    chaos.add_argument(
        "--lbs", type=int, default=2, help="load-balancer tier size (>= 2)"
    )
    chaos.add_argument(
        "--rho", type=float, default=0.6, help="legitimate load factor"
    )
    chaos.add_argument(
        "--queries", type=int, default=4_000, help="legitimate queries"
    )
    chaos.add_argument("--service-mean", type=float, default=0.05)
    chaos.add_argument(
        "--mode",
        action="append",
        choices=["baseline", "loss", "flap", "jitter"],
        help="impairment cell to run; repeatable; default all four",
    )
    chaos.add_argument(
        "--loss-rate",
        type=float,
        default=0.01,
        help="i.i.d. packet loss probability of the loss cell",
    )
    chaos.add_argument(
        "--flap-count",
        type=int,
        default=2,
        help="scheduled link-down windows of the flap cell",
    )
    chaos.add_argument(
        "--flap-down",
        type=float,
        default=0.25,
        help="length of each link-down window in seconds",
    )
    chaos.add_argument(
        "--jitter-mean",
        type=float,
        default=0.002,
        help="mean exponential extra latency (s) of the jitter cell",
    )
    chaos.add_argument(
        "--syn-rto",
        type=float,
        default=0.2,
        help="initial SYN retransmission timeout in seconds (0 disables)",
    )
    chaos.add_argument(
        "--syn-rto-cap",
        type=float,
        default=2.0,
        help="upper bound on the exponentially backed-off SYN RTO",
    )
    chaos.add_argument(
        "--syn-rto-limit",
        type=int,
        default=4,
        help="maximum SYN retransmissions per connection attempt",
    )
    chaos.add_argument(
        "--retry-timeout",
        type=float,
        default=1.5,
        help="per-attempt client deadline before retrying on a fresh port",
    )
    chaos.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="full-connection retries before the client gives up",
    )
    chaos.add_argument(
        "--shed-watermark",
        type=int,
        default=112,
        help="backlog depth above which servers fast-RST new SYNs (0 disables)",
    )
    _add_jobs_argument(chaos)
    _add_telemetry_arguments(chaos)
    chaos.set_defaults(handler=_command_chaos)

    scale = subparsers.add_parser(
        "scale",
        help="one partitioned replay: millions of queries over ECMP pods",
    )
    _add_testbed_arguments(scale)
    scale.add_argument(
        "--queries",
        type=int,
        default=1_000_000,
        help="aggregate queries across the whole deployment",
    )
    scale.add_argument(
        "--pods",
        type=int,
        default=4,
        help="identical LB/server pods the front-end ECMP stage shards over",
    )
    scale.add_argument(
        "--partitions",
        type=_partitions_count,
        default=1,
        help="intra-run parallelism: processes executing this one run's "
        "pods (default 1 = in-process); never changes results, only "
        "wall-clock — distinct from --jobs, which fans out independent runs",
    )
    scale.add_argument(
        "--rho", type=float, default=0.8, help="load factor per pod"
    )
    scale.add_argument("--service-mean", type=float, default=0.02)
    scale.add_argument(
        "--policy", default="SR8", help="acceptance policy on the servers"
    )
    scale.add_argument(
        "--ecmp-hash",
        choices=["rendezvous", "modulo"],
        default="rendezvous",
        help="flow-to-pod mapping of the modeled front-end ECMP stage",
    )
    _add_telemetry_arguments(scale)
    scale.set_defaults(handler=_command_scale)

    scenarios = subparsers.add_parser(
        "scenarios", help="list every registered scenario family"
    )
    scenarios.add_argument(
        "--json",
        action="store_true",
        help="machine-readable catalogue (name, description, cell keys)",
    )
    scenarios.set_defaults(handler=_command_scenarios)

    dashboard = subparsers.add_parser(
        "dashboard",
        help="render a saved telemetry report into an HTML dashboard",
    )
    dashboard.add_argument(
        "report", help="telemetry report JSON written by --telemetry-out"
    )
    dashboard.add_argument(
        "--out",
        default="dashboard.html",
        help="HTML file to write (default dashboard.html)",
    )
    dashboard.add_argument(
        "--title",
        default="Telemetry dashboard",
        help="page title of the rendered dashboard",
    )
    dashboard.set_defaults(handler=_command_dashboard)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``srlb-repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    telemetry_on = _telemetry_requested(args)
    was_enabled = False
    if telemetry_on:
        from repro.telemetry import runtime as telemetry_runtime

        was_enabled = telemetry_runtime.telemetry_enabled()
        telemetry_runtime.enable()
    try:
        status = args.handler(args)
        if telemetry_on and status == 0:
            _emit_telemetry(args)
        return status
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # The fan-out has already terminated and joined its children.
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        if telemetry_on and not was_enabled:
            from repro.telemetry import runtime as telemetry_runtime

            telemetry_runtime.disable()


if __name__ == "__main__":
    sys.exit(main())
