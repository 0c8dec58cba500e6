"""A call budget for the replay hot path, so layering cannot creep back.

Replay cost in this simulator is the number of Python frames one packet
hop enters (docs/performance.md, "Replay hot path").  This test replays
one small Poisson cell under ``cProfile`` and holds the number of
Python-level function calls — per query and per ``LANFabric.send`` —
under a committed budget.  The counts repeat exactly for a seed, so the
budget sits 10 % above the measured value: a change that adds a wrapper
frame, a property or a per-packet closure back onto the per-hop path
trips it, and the failure lists the ten largest ``tottime`` rows to show
where the calls went.

Only calls of Python functions are counted (``cProfile`` rows with a
source file), not C builtins: those are what cost an interpreter frame,
and their count does not depend on how a CPython version attributes
builtin calls.
"""

import cProfile
import io
import pstats

from repro.experiments.calibration import analytic_saturation_rate
from repro.experiments.config import TestbedConfig, sr_policy
from repro.experiments.platform import build_testbed
from repro.experiments.poisson_experiment import make_poisson_trace

QUERIES = 300

#: Measured on this cell in a fresh process: 52 941 calls, 2 194 sends
#: — 176.5 per query, 24.1 per fabric send (the parent of the change
#: that introduced this test: 97 860 calls, 326.2 and 44.6).  Budgets
#: are the measured values plus 10 %.
CALLS_PER_QUERY_BUDGET = 194.1
CALLS_PER_SEND_BUDGET = 26.5


def _profile_small_poisson_cell(monkeypatch):
    # The shipped default path: no probe.
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    config = TestbedConfig(
        num_servers=4,
        workers_per_server=8,
        cores_per_server=2,
        backlog_capacity=16,
        seed=7,
    )
    trace = make_poisson_trace(
        load_factor=0.88,
        num_queries=QUERIES,
        saturation_rate=analytic_saturation_rate(config, 0.1),
        service_mean=0.1,
        workload_seed=12_345,
    )
    testbed = build_testbed(config, sr_policy(4))
    profile = cProfile.Profile()
    profile.enable()
    testbed.run_trace(trace)
    profile.disable()
    assert testbed.client.queries_started == QUERIES
    return pstats.Stats(profile)


def _top_rows(stats: pstats.Stats, count: int = 10) -> str:
    stream = io.StringIO()
    stats.stream = stream
    stats.sort_stats("tottime").print_stats(count)
    return stream.getvalue()


def test_replay_stays_inside_its_python_call_budget(monkeypatch):
    stats = _profile_small_poisson_cell(monkeypatch)
    python_calls = 0
    sends = 0
    for (filename, _line, name), row in stats.stats.items():
        if filename == "~":
            continue  # C builtins: no interpreter frame
        python_calls += row[1]
        if name == "send" and filename.endswith("fabric.py"):
            sends = row[1]
    assert sends > 0
    per_query = python_calls / QUERIES
    per_send = python_calls / sends
    assert (
        per_query <= CALLS_PER_QUERY_BUDGET and per_send <= CALLS_PER_SEND_BUDGET
    ), (
        f"{python_calls} Python calls for {QUERIES} queries and {sends} fabric "
        f"sends: {per_query:.1f} per query (budget {CALLS_PER_QUERY_BUDGET}), "
        f"{per_send:.1f} per send (budget {CALLS_PER_SEND_BUDGET}).\n"
        + _top_rows(stats)
    )

