"""A call budget for the replay hot path, so layering cannot creep back.

Replay cost in this simulator is the number of Python frames one packet
hop enters (docs/performance.md, "Replay hot path").  This test replays
one small Poisson cell under ``cProfile`` and holds the number of
Python-level function calls — per query and per fabric hop
(``LANFabric.send_from``, the entry every attached node's ``send`` is
bound to) — under a committed budget.  The counts repeat exactly for a seed, so the
budget sits 10 % above the measured value: a change that adds a wrapper
frame, a property or a per-packet closure back onto the per-hop path
trips it, and the failure lists the ten largest ``tottime`` rows to show
where the calls went.

Only calls of Python functions are counted (``cProfile`` rows with a
source file), not C builtins: those are what cost an interpreter frame,
and their count does not depend on how a CPython version attributes
builtin calls.

A second test holds the event heap shallow on the same cell: a trace is
one pending arrival, not one heap entry per query.
"""

import cProfile
import io
import pstats

from repro.sim import engine

from repro.experiments.calibration import analytic_saturation_rate
from repro.experiments.config import TestbedConfig, sr_policy
from repro.experiments.platform import build_testbed
from repro.workload.poisson import poisson_trace

QUERIES = 300

#: Measured on this cell in a fresh process: 32 211 calls, 2 194 sends
#: — 107.4 per query, 14.7 per fabric hop (before the second hot-path
#: round: 52 941 calls, 176.5 and 24.1; before the first: 97 860 calls,
#: 326.2 and 44.6).  Budgets are the measured values plus 10 %.
CALLS_PER_QUERY_BUDGET = 118.1
CALLS_PER_SEND_BUDGET = 16.2

#: Most entries the event heap may hold at once on this cell (18
#: measured).  Scheduling every arrival of the trace up front would put
#: 300 there.
HEAP_HIGH_WATER_BUDGET = 64


def _small_poisson_cell(monkeypatch):
    # The shipped default path: no probe.
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    config = TestbedConfig(
        num_servers=4,
        workers_per_server=8,
        cores_per_server=2,
        backlog_capacity=16,
        seed=7,
    )
    trace = poisson_trace(
        0.88,
        analytic_saturation_rate(config, 0.1),
        QUERIES,
        0.1,
        [12_345, 880_000],
    )
    return build_testbed(config, sr_policy(4)), trace


def _profile_small_poisson_cell(monkeypatch):
    testbed, trace = _small_poisson_cell(monkeypatch)
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
        if name == "send_from" and filename.endswith("fabric.py"):
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


def test_replay_keeps_the_event_heap_shallow(monkeypatch):
    testbed, trace = _small_poisson_cell(monkeypatch)
    high_water = 0
    push = engine._heappush

    def counting_push(heap, entry):
        nonlocal high_water
        push(heap, entry)
        high_water = max(high_water, len(heap))

    monkeypatch.setattr(engine, "_heappush", counting_push)
    testbed.run_trace(trace)
    assert testbed.client.queries_completed == QUERIES
    assert 0 < high_water <= HEAP_HIGH_WATER_BUDGET, high_water
