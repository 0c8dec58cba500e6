#!/usr/bin/env python3
"""Reduced Figure 2: mean response time vs load factor for every policy.

Sweeps the normalized request rate ρ across the paper's range with the
full policy suite (RR, SR4, SR8, SR16, SRdyn) on the paper's 12-server
testbed, and prints the Figure 2 series as a table plus the SR4-vs-RR
improvement factor at the heaviest load.

The defaults are scaled down so the example runs in about a minute; pass
``--queries`` and ``--points`` to approach paper scale (20000 queries,
24 points)::

    python examples/poisson_sweep.py --queries 2000 --points 5
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.experiments.config import PoissonSweepConfig, paper_policy_suite
from repro.experiments.figures import render_figure2
from repro.experiments.scenario import run_scenario
from repro.metrics.reporting import format_comparison


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--queries", type=int, default=1_500, help="queries per run (paper: 20000)"
    )
    parser.add_argument(
        "--points", type=int, default=4, help="number of load factors (paper: 24)"
    )
    parser.add_argument(
        "--max-rho", type=float, default=0.88, help="heaviest load factor to sweep"
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    load_factors = tuple(
        round(float(value), 3) for value in np.linspace(0.3, args.max_rho, args.points)
    )
    config = PoissonSweepConfig(
        load_factors=load_factors,
        num_queries=args.queries,
        policies=tuple(paper_policy_suite()),
    )

    print(
        f"sweeping {len(load_factors)} load factors x {len(config.policies)} policies, "
        f"{args.queries} queries each..."
    )
    sweep = run_scenario("poisson", config)

    print()
    print(render_figure2(sweep))

    heavy = max(load_factors)
    rr_mean = sweep.run(("RR", heavy)).mean_response_time
    others = {
        name: sweep.run((name, heavy)).mean_response_time
        for name in ("SR4", "SR8", "SR16", "SRdyn")
    }
    print()
    print(format_comparison(f"mean response (s) at rho={heavy}", "RR", rr_mean, others))


if __name__ == "__main__":
    main()
