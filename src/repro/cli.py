"""Command-line interface for the SRLB reproduction.

Installed as the ``srlb-repro`` console script (also runnable as
``python -m repro.cli``).  ``docs/cli.md`` documents every sub-command
and flag — ``tests/test_docs_cli.py`` holds it against this parser — and
``srlb-repro scenarios`` lists the scenario families.

Every row of the family catalogue (:mod:`repro.experiments.registry`)
gets its sub-command from the parameter table its config declares
(:mod:`repro.experiments.params`): :func:`build_parser` turns the table
into flags without importing the family, :func:`config_from_args` turns
parsed flags back into a config, and one handler loads the family and
runs it.  Only ``calibrate``, ``figure``, ``scenarios`` and
``dashboard`` are written by hand.
"""

from __future__ import annotations

# Every scenario sub-command builds a testbed, so the modules that build
# it (and numpy with them) load with the CLI: set-up time is what every
# run pays, and a run's wall time is what that run computes.  numpy loads
# first because its BLAS threads spin for about 0.1 s of CPU once it has
# loaded; started first, that spin overlaps the rest of the import
# instead of the run.  Family modules and what only some runs use load
# on first use (docs/architecture.md, "What loads when").
import numpy as np

import argparse
import dataclasses
import os
import sys
from typing import Any, Callable, Dict, Iterable, Optional, Sequence

from repro._version import __version__
from repro.errors import ReproError
from repro.experiments import registry
from repro.experiments.config import (
    HIGH_LOAD_FACTOR,
    LIGHT_LOAD_FACTOR,
    TESTBED_SHAPE,
    PoissonSweepConfig,
    TestbedConfig,
    WikipediaReplayConfig,
    paper_policy_suite,
    rr_policy,
    sr_policy,
)
from repro.experiments.config import (  # noqa: F401 - tests/test_cli.py imports it from here
    policy_spec_from_name as _policy_spec_from_name,
)
from repro.experiments.params import Param, cli_params
from repro.experiments.scenario import ScenarioSpec, run_scenario
from repro.metrics.reporting import format_table

import repro.experiments.platform  # noqa: F401 - the run stack, see above


# ----------------------------------------------------------------------
# flags from a parameter table, and a config back from the flags
# ----------------------------------------------------------------------
def _shown(value: Any) -> str:
    """One element of a repeatable flag's default, as the user types it."""
    if isinstance(value, float):
        return format(value, "g")
    return str(getattr(value, "name", value))


def _add_params(parser: argparse.ArgumentParser, params: Iterable[Param]) -> None:
    """One ``add_argument`` per declared flag; nothing is typed again here."""
    for declared in params:
        options: Dict[str, Any] = {"help": declared.help}
        if declared.kind is not str:
            options["type"] = declared.kind
        if declared.choices is not None:
            options["choices"] = list(declared.choices)
        if declared.repeat:
            # Parsed as None when absent, so "not given" and "given the
            # default" stay distinguishable; the default is the config's.
            options["action"] = "append"
            if declared.default is not None:
                options["help"] += "; repeatable; default " + ", ".join(
                    map(_shown, declared.default)
                )
        else:
            options["default"] = declared.default
        parser.add_argument(declared.flag, **options)


def _replace_fields(config: Any, tree: Dict[str, Any]) -> Any:
    """``dataclasses.replace`` through nested configs, innermost first."""
    return dataclasses.replace(
        config,
        **{
            name: _replace_fields(getattr(config, name), value)
            if isinstance(value, dict)
            else value
            for name, value in tree.items()
        },
    )


def _apply_params(config: Any, params: Iterable[Param], args: argparse.Namespace) -> Any:
    """``config`` with every field a flag of ``params`` declares set from ``args``.

    All fields change in one ``replace`` per config, so cross-field
    rules see the final values, never a half-applied command line.
    """
    tree: Dict[str, Any] = {}
    for declared in params:
        if not declared.path:
            continue  # not a field: the spec's config_from_flags reads it
        value = getattr(args, declared.dest)
        if declared.repeat:
            if value is None:
                value = declared.default
            else:
                named = map(declared.convert, value) if declared.convert else value
                value = tuple(dict.fromkeys(named))
        node = tree
        for name in declared.path[:-1]:
            node = node.setdefault(name, {})
        node[declared.path[-1]] = value
    return _replace_fields(config, tree)


def config_from_args(spec: ScenarioSpec, args: argparse.Namespace) -> Any:
    """The config a parsed command line of ``spec``'s sub-command describes."""
    config = spec.default_config()
    config = _apply_params(config, cli_params(config), args)
    return spec.config_from_flags(config, args)


def _testbed_from_args(args: argparse.Namespace) -> TestbedConfig:
    testbed = TestbedConfig(telemetry=_telemetry_requested(args))
    return _apply_params(testbed, cli_params(testbed, TESTBED_SHAPE), args)


def _count(minimum: int, noun: str) -> Callable[[str], int]:
    """An argparse ``type`` for a count of ``noun`` of at least ``minimum``.

    Rejecting a bad count here yields a clear usage error (exit status
    2) instead of an error from deep inside the run.
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer number of {noun}, got {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _add_run_arguments(parser: argparse.ArgumentParser, partitioned: bool = False) -> None:
    """How a run is executed and observed — never what it computes."""
    if partitioned:
        # scale's spelling of --jobs, kept while the benchmark uses it.
        parser.add_argument(
            "--partitions",
            dest="jobs",
            metavar="PARTITIONS",
            type=_count(1, "partition processes"),
            default=1,
            help="intra-run parallelism: processes executing this one run's "
            "pods (default 1 = in-process); never changes results, only "
            "wall-clock — distinct from --jobs, which fans out independent runs",
        )
    else:
        parser.add_argument(
            "--jobs",
            type=_count(0, "worker processes"),
            default=1,
            help="inter-run fan-out: worker processes running *independent* "
            "runs (sweep cells) concurrently (default 1 = in-process, "
            "0 = all cores); distinct from --partitions, which splits one "
            "run across processes; results are identical for any value",
        )
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


def _emit_telemetry(args: argparse.Namespace, result: Any) -> None:
    """Print the sparkline summary and save the report of a finished run.

    ``result`` is what :func:`run_scenario` returned; its
    ``telemetry_items()`` are the ``(cell key, payload)`` pairs of the
    runs' probes.  A no-op without ``--telemetry``/``--telemetry-out``.
    """
    if not _telemetry_requested(args):
        return
    from repro.telemetry import render as telemetry_render

    report = result.telemetry_items()
    for key, payload in report:
        print()
        print(telemetry_render.render_summary(payload, title=f"telemetry [{key}]"))
    out_dir = getattr(args, "telemetry_out", None)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        report_path = telemetry_render.save_report(
            os.path.join(out_dir, "telemetry.json"), report
        )
        html_path = os.path.join(out_dir, "dashboard.html")
        page = telemetry_render.render_dashboard(
            {str(key): payload for key, payload in report},
            title=f"srlb-repro {args.command}",
        )
        with open(html_path, "w", encoding="utf-8") as handle:
            handle.write(page)
        print()
        print(f"telemetry report : {report_path}")
        print(f"dashboard        : {html_path}")


# ----------------------------------------------------------------------
# sub-commands
# ----------------------------------------------------------------------
def _command_calibrate(args: argparse.Namespace) -> int:
    from repro.experiments.calibration import (
        analytic_saturation_rate,
        find_empirical_saturation_rate,
    )

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


def _command_scenario(args: argparse.Namespace) -> int:
    """Any registered family: flags → config → run → render."""
    spec = registry.get(args.command)
    config = config_from_args(spec, args)
    if _telemetry_requested(args):
        config = dataclasses.replace(
            config, testbed=dataclasses.replace(config.testbed, telemetry=True)
        )
    result = run_scenario(spec, config, jobs=args.jobs)
    print(spec.render(result))
    _emit_telemetry(args, result)
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    from repro.experiments import figures

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
        result = run_scenario("poisson", config, jobs=args.jobs)
        print(figures.render_figure2(result))
    elif number in (3, 4, 5):
        load_factor = LIGHT_LOAD_FACTOR if number == 5 else HIGH_LOAD_FACTOR
        specs = (
            (rr_policy(), sr_policy(4))
            if number == 4
            else tuple(paper_policy_suite())
        )
        config = PoissonSweepConfig(
            testbed=dataclasses.replace(testbed, sample_load=number == 4),
            load_factors=(load_factor,),
            num_queries=args.queries,
            policies=tuple(specs),
        )
        result = run_scenario("poisson", config, jobs=args.jobs)
        runs = {spec.name: result.run((spec.name, load_factor)) for spec in specs}
        if number == 4:
            print(figures.render_figure4(runs))
        else:
            print(
                figures.render_figure_cdf(
                    runs, title=f"Figure {number}: CDF of page load time, rho={load_factor}"
                )
            )
    elif number in (6, 7, 8):
        config = dataclasses.replace(
            WikipediaReplayConfig(), testbed=testbed, static_per_wiki=0.5
        ).compressed(duration=args.duration)
        result = run_scenario("wikipedia", config, jobs=args.jobs)
        if number == 6:
            print(figures.render_figure6(result))
        elif number == 7:
            for name in result.keys():
                print(figures.render_figure7(result, name))
                print()
        else:
            print(figures.render_figure8(result))
    else:
        raise ReproError(f"unknown figure number {number!r}: the paper has figures 2-8")
    _emit_telemetry(args, result)
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
                # A partitioned family lists its pods as the one run.
                "cells": [spec.name]
                if registry.family(spec.name).partitioned
                else [str(cell.key) for cell in spec.cells(spec.default_config())],
            }
            for spec in registry.specs()
        ]
        print(json.dumps(catalogue, indent=2))
        return 0
    rows = [[row.name, row.title] for row in registry.families()]
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
    testbed_shape = tuple(cli_params(TestbedConfig(), TESTBED_SHAPE))

    calibrate = subparsers.add_parser(
        "calibrate", help="estimate the testbed saturation rate λ₀"
    )
    _add_params(calibrate, testbed_shape)
    calibrate.add_argument("--service-mean", type=float, default=0.1)
    calibrate.add_argument(
        "--empirical", action="store_true", help="also run the empirical search"
    )
    calibrate.add_argument("--queries", type=int, default=3_000)
    calibrate.add_argument("--iterations", type=int, default=4)
    calibrate.set_defaults(handler=_command_calibrate)

    # One sub-command per catalogue row, from its config's fields; no
    # family module is imported to build it.
    for row in registry.families():
        family = subparsers.add_parser(row.name, help=row.title)
        _add_params(family, cli_params(row.config()))
        _add_run_arguments(family, partitioned=row.partitioned)
        family.set_defaults(handler=_command_scenario)

    figure = subparsers.add_parser("figure", help="regenerate one figure of the paper (2-8)")
    _add_params(figure, testbed_shape)
    figure.add_argument("number", type=int, help="figure number, 2-8")
    figure.add_argument("--queries", type=int, default=2_000)
    figure.add_argument(
        "--points", type=_count(1, "load factors"), default=4, help="load factors for figure 2"
    )
    figure.add_argument(
        "--duration", type=float, default=480.0, help="compressed day for figures 6-8"
    )
    _add_run_arguments(figure)
    figure.set_defaults(handler=_command_figure)

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
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # The fan-out has already terminated and joined its children.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
