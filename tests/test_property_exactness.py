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
* :class:`~repro.sim.engine.TimerLane` — timers of one delay keep one
  pending entry on the heap; a program of arms, cancels, plain
  ``schedule_in`` events and cut-short runs must execute what the same
  program written with ``schedule_in`` and ``EventHandle.cancel``
  executes.
* :meth:`~repro.sim.random_streams.RandomStreams.uniforms` and
  :meth:`~repro.sim.random_streams.RandomStreams.exponentials` — the
  fault plane's injectors draw from blocks; every draw must equal the
  scalar ``Generator.random()`` / ``Generator.exponential(mean)`` draw
  across the block edges, and a stream is handed out in one form only.
* :class:`~repro.net.ecmp.HopScorer` — the ECMP hash scores key bytes and
  compares digests as bytes; every hop choice (the live router, the pure
  selector, the ``scale`` pod table) must equal the text-key integer
  formula written out below, ties included.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.candidate_selection import RandomCandidateSelector, SingleRandomSelector
from repro.errors import SchedulingError, SimulationError
from repro.experiments.scale_experiment import _FRONTEND_CLIENT, _FRONTEND_VIP, _pod_table
from repro.net import ecmp as ecmp_module
from repro.net.addressing import _TEXT_FORMS, IPv6Address, _format_ipv6
from repro.net.ecmp import HASH_SCHEMES, EcmpEdgeRouter, select_next_hop_name
from repro.net.faults import FaultConfig, build_injectors
from repro.net.packet import FlowKey
from repro.net.router import NetworkNode
from repro.net.tcp import EPHEMERAL_PORT_BASE, HTTP_PORT
from repro.sim.engine import Simulator, TimerLane
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


# ----------------------------------------------------------------------
# timer lanes
# ----------------------------------------------------------------------
#: The lanes' delays: equal arming times make ties the rule.
LANE_DELAYS = (0.0, 0.5, 1.0)
#: Timers armed per program at most (a reaction may arm another).
MAX_TIMERS = 60

lane_steps = st.lists(
    st.one_of(
        st.tuples(st.just("arm"), st.integers(0, len(LANE_DELAYS) - 1)),
        st.tuples(st.just("plain"), st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])),
        st.tuples(st.just("cancel"), st.integers(0, MAX_TIMERS)),
        st.tuples(
            st.just("run"),
            st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 1.75, 3.0])),
            st.one_of(st.none(), st.integers(0, 4)),
        ),
    ),
    max_size=40,
)
#: What a firing timer does, by its argument: the same in both programs.
lane_reactions = st.lists(
    st.sampled_from(("noop", "arm", "plain", "cancel", "stop")), min_size=1, max_size=8
)


def _lane_program(steps, reactions, with_lanes):
    """Run one program; lane timers go on lanes or through ``schedule_in``.

    Returns what it executed (``(now, sequence, label, arg)`` per event),
    ``now`` at each return of ``run``, and the simulator.
    """
    simulator = Simulator(seed=0)
    executed, returns = [], []
    timers = []  # (lane index or None, the lane's entry or an EventHandle)
    sequence_of, label_of = {}, {}

    def fire(arg):
        executed.append((simulator.now, sequence_of[arg], label_of[arg], arg))
        reaction = reactions[arg % len(reactions)]
        if reaction == "arm":
            arm(arg % len(LANE_DELAYS))
        elif reaction == "plain":
            plain(0.5 * (arg % 3))
        elif reaction == "cancel":
            cancel(3 * arg + 1)
        elif reaction == "stop":
            simulator.stop()

    lanes = [
        TimerLane(simulator, delay, fire, f"lane-{index}")
        for index, delay in enumerate(LANE_DELAYS)
    ]

    def arm(index):
        arg = len(sequence_of)
        if arg >= MAX_TIMERS:
            return
        label_of[arg] = f"lane-{index}"
        if with_lanes:
            entry = lanes[index].arm(arg)
            sequence_of[arg] = entry[1]
            timers.append((index, entry))
        else:
            handle = simulator.schedule_in(LANE_DELAYS[index], fire, f"lane-{index}", arg)
            sequence_of[arg] = handle._entry[1]
            timers.append((None, handle))

    def plain(delay):
        arg = len(sequence_of)
        if arg >= MAX_TIMERS:
            return
        label_of[arg] = "plain"
        handle = simulator.schedule_in(delay, fire, "plain", arg)
        sequence_of[arg] = handle._entry[1]
        timers.append((None, handle))

    def cancel(which):
        if timers:
            index, timer = timers[which % len(timers)]
            if index is None:
                timer.cancel()
            else:
                lanes[index].cancel(timer)

    def check_heap():
        dead = sum(1 for entry in simulator._heap if entry[2] is None)
        assert simulator._cancelled_on_heap == dead

    def run(until=None, max_events=None):
        returns.append(simulator.run(until=until, max_events=max_events))
        check_heap()

    for step in steps:
        if step[0] == "arm":
            arm(step[1])
        elif step[0] == "plain":
            plain(step[1])
        elif step[0] == "cancel":
            cancel(step[1])
        else:
            run(step[1], step[2])
        check_heap()
    while simulator.peek_next_time() is not None:
        run(max_events=3)
    return executed, returns, simulator


@given(steps=lane_steps, reactions=lane_reactions)
@settings(max_examples=300, deadline=None)
def test_lanes_execute_what_schedule_in_and_cancel_execute(steps, reactions):
    expected, expected_returns, reference = _lane_program(steps, reactions, False)
    actual, returns, simulator = _lane_program(steps, reactions, True)
    assert actual == expected
    assert returns == expected_returns
    assert simulator.events_executed == reference.events_executed
    assert simulator.pending_events == 0


@given(
    delay=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([-1.0, -0.0, math.nan, math.inf, -math.inf, 1e308]),
    ),
    now=st.sampled_from([0.0, 2.5, 1e308]),
)
@settings(max_examples=200, deadline=None)
def test_a_lane_refuses_the_delays_schedule_in_refuses(delay, now):
    simulator = Simulator(seed=0, start_time=now)
    try:
        simulator.schedule_in(delay, print, "timer")
    except SchedulingError as error:
        with pytest.raises(SchedulingError) as refused:
            TimerLane(simulator, delay, print, "timer")
        assert str(refused.value) == str(error)
    else:
        lane = TimerLane(simulator, delay, print, "timer")
        assert lane.arm(None)[0] == now + delay


# ----------------------------------------------------------------------
# the fault plane's block draw sources
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=0, max_value=800),
    mean=st.floats(min_value=1e-9, max_value=1e3, allow_nan=False),
)
@example(seed=0, count=255, mean=0.002)
@example(seed=1, count=256, mean=0.002)
@example(seed=2, count=257, mean=1.0)
@example(seed=3, count=513, mean=3e-4)
@settings(max_examples=60, deadline=None)
def test_block_sources_draw_what_the_scalar_generator_draws(seed, count, mean):
    uniforms = RandomStreams(seed).uniforms("fault")
    exponentials = RandomStreams(seed).exponentials("fault")
    uniform_reference = RandomStreams(seed).stream("fault")
    exponential_reference = RandomStreams(seed).stream("fault")
    for _ in range(count):
        assert uniforms() == uniform_reference.random()
        assert mean * exponentials() == exponential_reference.exponential(mean)


SOURCE_FORMS = ("stream", "draws", "uniforms", "exponentials")


@pytest.mark.parametrize(
    "first, second",
    [(first, second) for first in SOURCE_FORMS for second in SOURCE_FORMS if first != second],
)
def test_a_stream_is_handed_out_in_one_form_only(first, second):
    streams = RandomStreams(seed=1)
    handed = getattr(streams, first)("fault")
    with pytest.raises(SimulationError):
        getattr(streams, second)("fault")
    # The first form is still the stream's, and still the same object.
    assert getattr(streams, first)("fault") is handed
    getattr(streams, second)("other")


def test_only_an_enabled_injector_claims_its_stream():
    simulator = Simulator(seed=0)
    build_injectors(simulator, FaultConfig(loss_rate=0.1))
    with pytest.raises(SimulationError):
        simulator.streams.stream("fault-iid-loss")
    simulator.streams.stream("fault-jitter")  # disabled: left free


# ----------------------------------------------------------------------
# the ECMP hash over key bytes
# ----------------------------------------------------------------------
def _coarse(digest):
    """Eight score bytes with four values (top bit of the first, low bit of
    the last byte), so hops tie often and the order of both ends counts."""
    return bytes([digest[0] & 0x80, 0, 0, 0, 0, 0, 0, digest[7] & 1]) + digest[8:]


class _CoarseSha256:
    def __init__(self, data):
        self._digest = _coarse(hashlib.sha256(data).digest())

    def digest(self):
        return self._digest


def _reference_index(hop_names, flow_key, scheme, ties):
    """The text-key formula: ``sha256(f"{salt}:{key}")``'s first 8 bytes as
    a big-endian integer, the first highest in name order (rendezvous) or
    one score modulo the group size; addresses formatted without the memo."""
    names = sorted(hop_names)
    src, src_port, dst, dst_port = flow_key
    text = lambda address: address if isinstance(address, str) else _format_ipv6(int(address))
    key = f"tcp|{text(src)}|{src_port}|{text(dst)}|{dst_port}"

    def score(salt):
        digest = hashlib.sha256(f"{salt}:{key}".encode("utf-8")).digest()
        return int.from_bytes((_coarse(digest) if ties else digest)[:8], "big")

    if scheme == "modulo":
        return score("ecmp-modulo") % len(names)
    scores = [score(f"ecmp-hrw:{name}") for name in names]
    return scores.index(max(scores))


addresses = st.integers(min_value=0, max_value=2**128 - 1).map(IPv6Address)
ports = st.integers(min_value=0, max_value=65535)


@given(
    hop_names=st.lists(
        st.text(alphabet="abcxyz-019", min_size=1, max_size=6),
        min_size=1,
        max_size=6,
        unique=True,
    ),
    flows=st.lists(st.tuples(addresses, ports, addresses, ports), min_size=1, max_size=8),
    cached=st.booleans(),
    scheme=st.sampled_from(HASH_SCHEMES),
    ties=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_the_bytes_scorer_picks_the_hop_the_text_key_formula_picks(
    hop_names, flows, cached, scheme, ties
):
    names = sorted(hop_names)
    simulator = Simulator(seed=0)
    router = EcmpEdgeRouter(simulator, "edge", IPv6Address(1), hash_scheme=scheme)
    for name in hop_names:
        router.add_next_hop(NetworkNode(simulator, name))
    with pytest.MonkeyPatch.context() as patch:
        if ties:
            patch.setattr(ecmp_module, "_sha256", _CoarseSha256)
        for src, src_port, dst, dst_port in flows:
            flow = FlowKey(src, src_port, dst, dst_port)
            for address in (src, dst):
                if cached:
                    str(address)
                else:
                    _TEXT_FORMS.pop(address, None)
            expected = names[_reference_index(hop_names, flow, scheme, ties)]
            assert select_next_hop_name(hop_names, flow, scheme) == expected
            router.invalidate_next_hop_cache()
            assert router.next_hop_for(flow).name == expected
            assert _TEXT_FORMS[src] == _format_ipv6(int(src))
        size = 24
        table = _pod_table.__wrapped__(tuple(hop_names), scheme, size)
        for offset in range(size):
            frontend = (_FRONTEND_CLIENT, EPHEMERAL_PORT_BASE + offset, _FRONTEND_VIP, HTTP_PORT)
            chosen = names[_reference_index(hop_names, frontend, scheme, ties)]
            assert table[offset] == hop_names.index(chosen)
