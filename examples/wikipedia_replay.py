#!/usr/bin/env python3
"""Wikipedia replay (paper §VI): RR vs SR4 over a diurnal trace.

Generates the synthetic 24-hour Wikipedia trace (diurnal wiki-page rate,
static/wiki mix, memcached-hit / MySQL-miss cost model — see DESIGN.md
§6), replays it at 50 % of peak under RR and SR4, and prints:

* the per-bin wiki-page query rate and median load time (Figure 6),
* the whole-day median and third quartile (the Figure 8 numbers the
  paper quotes in its text).

The day is time-compressed by default so the example finishes quickly;
pass ``--duration 86400`` for a full-length replay.

Run with::

    python examples/wikipedia_replay.py --duration 360
"""

from __future__ import annotations

import argparse
import dataclasses

from repro.experiments import WikipediaReplayConfig, run_scenario
from repro.experiments.figures import render_figure6
from repro.experiments.wikipedia_experiment import make_wikipedia_trace


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--duration",
        type=float,
        default=360.0,
        help="compressed duration of the replayed day in seconds (paper: 86400)",
    )
    parser.add_argument(
        "--replay-fraction",
        type=float,
        default=0.5,
        help="fraction of the trace replayed (paper: 0.5)",
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    config = dataclasses.replace(
        WikipediaReplayConfig(), replay_fraction=args.replay_fraction, static_per_wiki=0.5
    ).compressed(duration=args.duration)

    trace = make_wikipedia_trace(config)
    summary = trace.summary()
    print(
        f"synthetic trace: {summary.num_requests} requests over "
        f"{summary.duration:.0f} s (mean {summary.mean_rate:.1f} req/s), "
        f"{summary.kinds.get('wiki', 0)} wiki pages"
    )

    print("replaying under RR and SR4...")
    result = run_scenario("wikipedia", config, trace=trace)

    print()
    print(render_figure6(result))

    print()
    for name in result.keys():
        run = result.run(name)
        q1, median, q3 = run.wiki_quartiles()
        resets = run.counters["server.connections_reset"]
        print(
            f"{name}: whole-day wiki page load time — median {median:.3f} s, "
            f"third quartile {q3:.3f} s (resets: {resets})"
        )
    rr_q3 = result.run("RR").wiki_quartiles()[2]
    sr4_q3 = result.run("SR4").wiki_quartiles()[2]
    print(
        f"\nSR4 improves the third quartile by {rr_q3 / sr4_q3:.2f}x "
        "(the paper reports 0.48 s -> 0.28 s on its testbed)."
    )


if __name__ == "__main__":
    main()
