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

Only calls of Python functions are counted (``cProfile`` entries whose
code is a code object), not C builtins: those are what cost an
interpreter frame, and their count does not depend on how a CPython
version attributes builtin calls.  The count is read from
``Profile.getstats()``, one entry per code object: ``pstats`` keys its
rows by (file, line, name), and every dataclass-generated ``__init__``
is ``<string>:2:__init__``, so it keeps one class's count of them all.

A second test holds the event heap shallow on the same cell: a trace is
one pending arrival, not one heap entry per query.

Two more tests hold a second cell, on the tier path the Poisson cell
never enters: two load balancers behind the ECMP edge, the chaos family's
``loss`` recipe on the fabric's channel (so every fabric hop runs the
fault pipeline's injectors, in line in ``LANFabric.send_from``), SYN-ACK
relays between instances, the client's retransmission and retry timers
and the servers' request timeouts.  One budgets its calls; the other its
heap, which the timers would fill with one entry each (most of them
cancelled) were they not one entry per timer lane.

``python tests/test_hot_path_budget.py`` prints both cells' calls per
query by package and by function: a hot-path change's before/after row.
"""

import cProfile
import os
import types
from collections import Counter

from repro.net import ecmp as ecmp_module
from repro.net import fabric as fabric_module
from repro.sim import engine

from repro.experiments import registry
from repro.experiments.calibration import legitimate_poisson_trace
from repro.experiments.chaos_experiment import fault_config_for
from repro.experiments.config import ChaosConfig, PoissonSweepConfig, TestbedConfig, sr_policy
from repro.experiments.platform import build_testbed
from repro.net.faults import install_fault_channel

QUERIES = 300

#: Measured on this cell in a fresh process, one count per code object:
#: 21 743 calls, 2 194 sends — 72.5 per query, 9.9 per fabric hop.  The
#: older figures counted ``pstats`` rows, which keep one dataclass
#: ``__init__`` of all (68.5 and 9.4 on the same code; before the third
#: hot-path round: 31 419 calls, 104.7 and 14.3; before the second:
#: 52 941 calls, 176.5 and 24.1; before the first: 97 860 calls, 326.2
#: and 44.6).  Budgets are the measured values plus 10 %.
CALLS_PER_QUERY_BUDGET = 79.7
CALLS_PER_SEND_BUDGET = 10.9

TIER_QUERIES = 1_000

#: The tier cell (``chaos --lbs 2 --queries 1000``, the ``loss`` cell,
#: replay only), measured the same way: 126 172 calls, 8 034 fabric sends —
#: 126.2 per query, 15.7 per fabric hop (138.7 and 17.3 before the tier
#: path's second round; in ``pstats`` rows, 134.5 and 16.7 before it,
#: 158.4 and 19.7 before the first, 208.5 and 25.9 before the third
#: hot-path round).  Budgets are the measured values plus 10 %.
TIER_CALLS_PER_QUERY_BUDGET = 138.8
TIER_CALLS_PER_SEND_BUDGET = 17.3

#: Most entries the event heap may hold at once on this cell (18
#: measured).  Scheduling every arrival of the trace up front would put
#: 300 there.
HEAP_HIGH_WATER_BUDGET = 64

#: The same on the tier cell: 65 measured; 1 164 when every client and
#: server timer was its own heap entry.
TIER_HEAP_HIGH_WATER_BUDGET = 128


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
    return _python_rows(profile)


def _python_rows(profile):
    """``(package, function, calls, own seconds)``, one row per Python code object."""
    rows = []
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, types.CodeType):  # a str names a C builtin
            rows.append(
                (_package(code.co_filename), _function(code), entry.callcount, entry.inlinetime)
            )
    return rows


def _package(filename):
    """The ``repro`` package a source file belongs to, else ``other``."""
    _, found, below = filename.replace(os.sep, "/").rpartition("/repro/")
    if not found:
        return "other"
    package, _, module = below.partition("/")
    return package if module else "repro"


def _function(code):
    """``module:qualname``; a generated function (a dataclass's ``__init__``) by its arguments."""
    if code.co_filename.startswith("<"):
        arguments = ", ".join(code.co_varnames[: code.co_argcount])
        return f"{code.co_filename} {code.co_name}({arguments})"
    module = os.path.splitext(os.path.basename(code.co_filename))[0]
    return f"{module}:{code.co_qualname}"


def _profile_small_poisson_cell():
    testbed, trace = _small_poisson_cell()
    return _profile_replay(testbed, trace, QUERIES)


def _tier_loss_cell():
    config = ChaosConfig(num_queries=TIER_QUERIES)
    trace = legitimate_poisson_trace(config)
    testbed = build_testbed(config.testbed, config.policy)
    install_fault_channel(
        testbed.simulator,
        testbed.fabric,
        fault_config_for(config, "loss", trace.duration),
    )
    return testbed, trace


def _profile_tier_loss_cell():
    testbed, trace = _tier_loss_cell()
    with testbed:
        return _profile_replay(testbed, trace, TIER_QUERIES)


def _fabric_sends(rows):
    return sum(calls for _, function, calls, _ in rows if function == "fabric:LANFabric.send_from")


def _by_function(rows, queries, count, key=lambda row: row[2]):
    lines = [
        f"{calls / queries:9.2f}  {own * 1e6 / queries:7.2f} us  {package:11} {function}"
        for package, function, calls, own in sorted(rows, key=key, reverse=True)[:count]
    ]
    return "\n".join(["calls/query  own/query  package     function", *lines])


def _assert_inside_budget(rows, queries, per_query_budget, per_send_budget):
    python_calls = sum(row[2] for row in rows)
    sends = _fabric_sends(rows)
    assert sends > 0
    per_query = python_calls / queries
    per_send = python_calls / sends
    assert per_query <= per_query_budget and per_send <= per_send_budget, (
        f"{python_calls} Python calls for {queries} queries and {sends} fabric "
        f"sends: {per_query:.1f} per query (budget {per_query_budget}), "
        f"{per_send:.1f} per send (budget {per_send_budget}).  Costliest own time:\n"
        + _by_function(rows, queries, 10, key=lambda row: row[3])
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


def _replay_heap_high_water(monkeypatch, testbed, trace):
    """Most entries on the event heap at once, over every push of the replay."""
    high_water = 0
    push = engine._heappush

    def counting_push(heap, entry):
        nonlocal high_water
        push(heap, entry)
        high_water = max(high_water, len(heap))

    # The engine's own pushes (timer lanes included), the fabric hop's
    # (clean or faulted) and the ECMP spread's.
    monkeypatch.setattr(engine, "_heappush", counting_push)
    monkeypatch.setattr(fabric_module, "_heappush", counting_push)
    monkeypatch.setattr(ecmp_module, "_heappush", counting_push)
    testbed.run_trace(trace)
    return high_water


def test_replay_keeps_the_event_heap_shallow(monkeypatch):
    testbed, trace = _small_poisson_cell()
    high_water = _replay_heap_high_water(monkeypatch, testbed, trace)
    assert testbed.client.queries_completed == QUERIES
    assert 0 < high_water <= HEAP_HIGH_WATER_BUDGET, high_water


def test_tier_replay_keeps_the_event_heap_shallow(monkeypatch):
    testbed, trace = _tier_loss_cell()
    with testbed:
        high_water = _replay_heap_high_water(monkeypatch, testbed, trace)
        assert testbed.client.queries_started == TIER_QUERIES
    assert 0 < high_water <= TIER_HEAP_HIGH_WATER_BUDGET, high_water


def _report(title, rows, queries):
    python_calls = sum(row[2] for row in rows)
    sends = _fabric_sends(rows)
    packages = Counter()
    for package, _, calls, _ in rows:
        packages[package] += calls
    print(f"{title}: {python_calls} Python calls, {sends} fabric sends — "
          f"{python_calls / queries:.1f} per query, {python_calls / sends:.1f} per fabric hop")
    print("  ".join(f"{package} {calls / queries:.2f}" for package, calls in packages.most_common()))
    print(_by_function(rows, queries, 30))
    print()


if __name__ == "__main__":
    _report("poisson cell", _profile_small_poisson_cell(), QUERIES)
    _report("tier loss cell", _profile_tier_loss_cell(), TIER_QUERIES)
