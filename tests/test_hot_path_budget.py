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

A third test budgets a second cell, on the tier path the Poisson cell
never enters: two load balancers behind the ECMP edge, the chaos family's
``loss`` recipe on the fabric's channel (so every hop goes through the
fault pipeline), SYN-ACK relays between instances and the client's
retransmission and retry timers.
"""

import cProfile
import io
import pstats

from repro.net import fabric as fabric_module
from repro.sim import engine

from repro.experiments import registry
from repro.experiments.calibration import legitimate_poisson_trace
from repro.experiments.chaos_experiment import fault_config_for
from repro.experiments.config import ChaosConfig, PoissonSweepConfig, TestbedConfig, sr_policy
from repro.experiments.platform import build_testbed
from repro.net.faults import install_fault_channel

QUERIES = 300

#: Measured on this cell in a fresh process: 20 543 calls, 2 194 sends
#: — 68.5 per query, 9.4 per fabric hop (before the third hot-path
#: round: 31 419 calls, 104.7 and 14.3; before the second: 52 941 calls,
#: 176.5 and 24.1; before the first: 97 860 calls, 326.2 and 44.6).
#: Budgets are the measured values plus 10 %.
CALLS_PER_QUERY_BUDGET = 75.3
CALLS_PER_SEND_BUDGET = 10.3

TIER_QUERIES = 1_000

#: The tier cell (``chaos --lbs 2 --queries 1000``, the ``loss`` cell,
#: replay only), measured the same way: 158 467 calls, 8 034 fabric sends —
#: 158.5 per query, 19.7 per fabric hop (208.5 and 25.9 before the
#: third round).  Budgets are the measured values plus 10 %.
TIER_CALLS_PER_QUERY_BUDGET = 174.3
TIER_CALLS_PER_SEND_BUDGET = 21.7

#: Most entries the event heap may hold at once on this cell (18
#: measured).  Scheduling every arrival of the trace up front would put
#: 300 there.
HEAP_HIGH_WATER_BUDGET = 64


def _small_poisson_cell():
    # The shipped default path: no probe (``telemetry`` is off).
    spec = registry.get("poisson")
    config = PoissonSweepConfig(
        testbed=TestbedConfig(
            num_servers=4,
            workers_per_server=8,
            cores_per_server=2,
            backlog_capacity=16,
            seed=7,
        ),
        load_factors=(0.88,),
        num_queries=QUERIES,
        policies=(sr_policy(4),),
    )
    (cell,) = spec.cells(config)
    return build_testbed(config.testbed, sr_policy(4)), spec.make_trace(config, cell)


def _profile_replay(testbed, trace, queries):
    profile = cProfile.Profile()
    profile.enable()
    testbed.run_trace(trace)
    profile.disable()
    assert testbed.client.queries_started == queries
    return pstats.Stats(profile)


def _profile_small_poisson_cell():
    testbed, trace = _small_poisson_cell()
    return _profile_replay(testbed, trace, QUERIES)


def _profile_tier_loss_cell():
    config = ChaosConfig(num_queries=TIER_QUERIES)
    trace = legitimate_poisson_trace(config)
    with build_testbed(config.testbed, config.policy) as testbed:
        install_fault_channel(
            testbed.simulator,
            testbed.fabric,
            fault_config_for(config, "loss", trace.duration),
        )
        return _profile_replay(testbed, trace, TIER_QUERIES)


def _top_rows(stats: pstats.Stats, count: int = 10) -> str:
    stream = io.StringIO()
    stats.stream = stream
    stats.sort_stats("tottime").print_stats(count)
    return stream.getvalue()


def _assert_inside_budget(stats, queries, per_query_budget, per_send_budget):
    python_calls = 0
    sends = 0
    for (filename, _line, name), row in stats.stats.items():
        if filename == "~":
            continue  # C builtins: no interpreter frame
        python_calls += row[1]
        if name == "send_from" and filename.endswith("fabric.py"):
            sends = row[1]
    assert sends > 0
    per_query = python_calls / queries
    per_send = python_calls / sends
    assert per_query <= per_query_budget and per_send <= per_send_budget, (
        f"{python_calls} Python calls for {queries} queries and {sends} fabric "
        f"sends: {per_query:.1f} per query (budget {per_query_budget}), "
        f"{per_send:.1f} per send (budget {per_send_budget}).\n"
        + _top_rows(stats)
    )


def test_replay_stays_inside_its_python_call_budget():
    _assert_inside_budget(
        _profile_small_poisson_cell(),
        QUERIES,
        CALLS_PER_QUERY_BUDGET,
        CALLS_PER_SEND_BUDGET,
    )


def test_tier_replay_stays_inside_its_python_call_budget():
    _assert_inside_budget(
        _profile_tier_loss_cell(),
        TIER_QUERIES,
        TIER_CALLS_PER_QUERY_BUDGET,
        TIER_CALLS_PER_SEND_BUDGET,
    )


def test_replay_keeps_the_event_heap_shallow(monkeypatch):
    testbed, trace = _small_poisson_cell()
    high_water = 0
    push = engine._heappush

    def counting_push(heap, entry):
        nonlocal high_water
        push(heap, entry)
        high_water = max(high_water, len(heap))

    monkeypatch.setattr(engine, "_heappush", counting_push)
    monkeypatch.setattr(fabric_module, "_heappush", counting_push)  # the hop
    testbed.run_trace(trace)
    assert testbed.client.queries_completed == QUERIES
    assert 0 < high_water <= HEAP_HIGH_WATER_BUDGET, high_water
