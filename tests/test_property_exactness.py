"""Exactness of the replay fast paths: same draws, same event order.

Two replacements on the replay hot path must be invisible in results:

* :class:`~repro.sim.random_streams.BoundedDraws` — candidate selection
  draws its candidates from pre-fetched blocks of the stream's raw words
  instead of calling ``Generator.choice``; every selection must equal,
  element for element, what ``Generator.choice(n, k, replace=False)``
  returns on the same stream, whatever the mix of pool sizes and however
  many selectors share the stream.
* :meth:`~repro.sim.engine.Simulator.schedule_series` — a trace keeps one
  pending arrival on the heap instead of all of them; the engine must
  pop the same ``(callback, argument, time)`` sequence as scheduling
  every item with ``schedule_at``, under ties, cancellations, ``stop()``,
  horizons and ``max_events``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidate_selection import RandomCandidateSelector, SingleRandomSelector
from repro.errors import SimulationError
from repro.net.addressing import IPv6Address
from repro.net.packet import FlowKey
from repro.sim.engine import Simulator
from repro.sim.random_streams import BoundedDraws, RandomStreams

FLOW = FlowKey(IPv6Address(1), 1024, IPv6Address(2), 80)


def _select(selector, n):
    """The selector's picks as indices of ``range(n)``."""
    return selector.select(FLOW, range(n))


# ----------------------------------------------------------------------
# candidate selection
# ----------------------------------------------------------------------
def test_every_pool_and_candidate_count_up_to_64_matches_generator_choice():
    reference = np.random.default_rng(2024)
    draws = BoundedDraws(np.random.default_rng(2024).bit_generator)
    for n in range(1, 65):
        for k in range(1, n + 1):
            selector = RandomCandidateSelector(draws, k)
            for _ in range(3):
                expected = reference.choice(n, size=k, replace=False).tolist()
                assert _select(selector, n) == expected, (n, k)


@pytest.mark.parametrize(
    "n, k",
    [
        (10_000, 200), (10_000, 201), (10_000, 10_000),  # n <= 10 000: Floyd
        (10_001, 200), (10_001, 201), (10_001, 10_001),  # tail shuffle from 201
        (20_000, 400), (20_000, 401), (50_000, 2),
    ],
)  # fmt: skip
def test_both_sides_of_numpys_tail_shuffle_switch(n, k):
    reference = np.random.default_rng(7)
    selector = RandomCandidateSelector(np.random.default_rng(7), k)
    for _ in range(2):
        assert _select(selector, n) == reference.choice(n, size=k, replace=False).tolist()


pool_and_count = st.integers(min_value=1, max_value=64).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n))
)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    calls=st.lists(pool_and_count, min_size=1, max_size=40),
)
@settings(max_examples=150, deadline=None)
def test_mixed_sizes_on_one_stream_match_generator_choice(seed, calls):
    reference = np.random.default_rng(seed)
    draws = BoundedDraws(np.random.default_rng(seed).bit_generator)
    for n, k in calls:
        expected = reference.choice(n, size=k, replace=False).tolist()
        assert draws.choice(n, k) == expected


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    order=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=60),
    pool=st.integers(min_value=2, max_value=16),
)
@settings(max_examples=100, deadline=None)
def test_tier_selectors_sharing_the_stream_draw_what_one_generator_would(
    seed, order, pool
):
    # Two tier instances built from one recipe share the stream's source
    # (RandomStreams.draws); interleaved, they consume one sequence,
    # exactly as two selectors holding the one shared generator did.
    streams = RandomStreams(seed)
    instances = [
        RandomCandidateSelector(streams.draws("candidate-selection"), 2),
        SingleRandomSelector(streams.draws("candidate-selection")),
    ]
    reference = RandomStreams(seed).stream("candidate-selection")
    for which in order:
        selector = instances[which]
        expected = reference.choice(
            pool, size=selector.num_candidates, replace=False
        ).tolist()
        assert _select(selector, pool) == expected


def test_a_half_word_the_generator_buffered_is_drawn_first():
    # A bare generator that already drew one 32-bit value holds the other
    # half of its last raw word; numpy's next draw returns it.
    reference = np.random.default_rng(5)
    private = np.random.default_rng(5)
    for generator in (reference, private):
        generator.integers(0, 1000, dtype=np.uint32)
    selector = RandomCandidateSelector(private, 3)
    for _ in range(20):
        assert _select(selector, 12) == reference.choice(12, size=3, replace=False).tolist()


def test_bit_generators_without_half_word_draws_are_refused():
    with pytest.raises(SimulationError, match="MT19937"):
        BoundedDraws(np.random.MT19937(0))


# ----------------------------------------------------------------------
# arrival series
# ----------------------------------------------------------------------
#: What an event's callback does besides logging itself.  "echo-next"
#: schedules an event at the next item's exact time (an item's own
#: callback) or at the current time (any other event's).
ACTIONS = ("noop", "echo-next", "cancel", "stop")

series_scenarios = st.fixed_dictionaries(
    {
        # Cumulative gaps: zero gaps make equal timestamps the rule.
        "gaps": st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0]), min_size=1, max_size=30),
        "item_actions": st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=30),
        "others": st.lists(
            st.tuples(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 4.0]), st.sampled_from(ACTIONS)),
            max_size=20,
        ),
        "split": st.integers(min_value=0, max_value=20),
        "horizon": st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
        "max_events": st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    }
)  # fmt: skip


def _series_run(scenario, as_series):
    """Replay one scenario; the items go in as a series or one by one."""
    simulator = Simulator(seed=0)
    log = []
    handles = []
    times = []
    clock = 0.0
    for gap in scenario["gaps"]:
        clock += gap
        times.append(clock)

    def act(action, index, at):
        if action == "echo-next":
            simulator.schedule_at(at, log.append, arg=("echo", index))
        elif action == "cancel" and handles:
            handles[index % len(handles)].cancel()
        elif action == "stop":
            simulator.stop()

    def item(index):
        log.append(("item", index, simulator.now))
        # The echo lands at the next item's exact time, scheduled after it.
        at = times[min(index + 1, len(times) - 1)]
        act(scenario["item_actions"][index % len(scenario["item_actions"])], index, at)

    def other(index):
        log.append(("other", index, simulator.now))
        act(scenario["others"][index][1], index, simulator.now)

    others = scenario["others"]
    split = min(scenario["split"], len(others))
    for index in range(split):
        handles.append(simulator.schedule_at(others[index][0], other, arg=index))
    if as_series:
        simulator.schedule_series(range(len(times)), times.__getitem__, item, "series")
    else:
        for index, time in enumerate(times):
            simulator.schedule_at(time, item, "series", index)
    for index in range(split, len(others)):
        handles.append(simulator.schedule_at(others[index][0], other, arg=index))

    stages = []
    simulator.run(until=scenario["horizon"], max_events=scenario["max_events"])
    stages.append((list(log), simulator.now, simulator.events_executed))
    while simulator.peek_next_time() is not None:
        simulator.run(max_events=scenario["max_events"])
        stages.append((list(log), simulator.now, simulator.events_executed))
    return stages, simulator


@given(scenario=series_scenarios)
@settings(max_examples=300, deadline=None)
def test_a_series_pops_what_per_item_scheduling_pops(scenario):
    expected, _ = _series_run(scenario, as_series=False)
    actual, simulator = _series_run(scenario, as_series=True)
    # Stage by stage: the same events, in the same order, at the same
    # clock, however the runs were cut (horizon, max_events, stop()).
    assert actual == expected
    assert simulator.pending_events == 0


@given(
    gaps=st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=1, max_size=200),
    background=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=50, deadline=None)
def test_a_series_occupies_one_heap_entry(gaps, background):
    simulator = Simulator(seed=0)
    times = list(np.cumsum(gaps).tolist())
    for index in range(background):
        simulator.schedule_at(float(index), lambda: None)
    simulator.schedule_series(times, float, lambda time: None, "series")
    assert simulator.pending_events == background + 1
    simulator.run()
    assert simulator.events_executed == background + len(times)
