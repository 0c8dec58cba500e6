"""Property-based tests for the simulation engine and network substrate."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addressing import IPv6Address
from repro.net.packet import FlowKey, Packet, TCPSegment
from repro.net.srh import SegmentRoutingHeader
from repro.sim.engine import Simulator

# ----------------------------------------------------------------------
# simulation engine
# ----------------------------------------------------------------------
event_times = st.lists(
    st.floats(min_value=0.0, max_value=1_000.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)


@given(times=event_times)
@settings(max_examples=100, deadline=None)
def test_events_always_execute_in_nondecreasing_time_order(times):
    simulator = Simulator(seed=0)
    executed = []
    for time in times:
        simulator.schedule_at(time, lambda t=time: executed.append(simulator.now))
    simulator.run()
    assert len(executed) == len(times)
    assert executed == sorted(executed)
    assert executed == sorted(times)


@given(times=event_times, cancel_mask=st.lists(st.booleans(), min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_cancelled_events_never_fire_and_others_always_do(times, cancel_mask):
    simulator = Simulator(seed=0)
    fired = []
    handles = []
    for index, time in enumerate(times):
        handles.append(
            simulator.schedule_at(time, lambda i=index: fired.append(i))
        )
    cancelled = set()
    for index, handle in enumerate(handles):
        if cancel_mask[index % len(cancel_mask)]:
            handle.cancel()
            cancelled.add(index)
    simulator.run()
    assert set(fired) == set(range(len(times))) - cancelled


@given(
    times=event_times,
    horizon=st.floats(min_value=0.0, max_value=1_000.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_run_until_never_executes_later_events(times, horizon):
    simulator = Simulator(seed=0)
    executed = []
    for time in times:
        simulator.schedule_at(time, lambda t=time: executed.append(t))
    simulator.run(until=horizon)
    assert all(time <= horizon for time in executed)
    # Draining afterwards executes exactly the remainder.
    simulator.run()
    assert sorted(executed) == sorted(times)


#: One scheduled event: a timestamp drawn from a *small* set, so that
#: collisions are the rule, and what its callback does besides logging —
#: nothing, cancel another handle, schedule at the current time, or stop.
colliding_schedules = st.lists(
    st.tuples(
        st.sampled_from([0.0, 1.0, 1.5, 2.0]),
        st.one_of(
            st.sampled_from(["noop", "spawn", "stop"]),
            st.integers(min_value=0, max_value=59),  # cancel that handle
        ),
    ),
    min_size=1,
    max_size=60,
)


def _build_colliding_simulator(schedule):
    simulator = Simulator(seed=0)
    log = []
    handles = []

    def fire(index):
        action = schedule[index][1]
        log.append((index, simulator.now))
        if action == "spawn":
            simulator.schedule_at(simulator.now, log.append, arg=("spawned", index))
        elif action == "stop":
            simulator.stop()
        elif action != "noop":
            handles[action % len(handles)].cancel()

    for index, (time, _action) in enumerate(schedule):
        handles.append(simulator.schedule_at(time, fire, arg=index))
    return simulator, log


@given(
    schedule=colliding_schedules,
    max_events=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
)
@settings(max_examples=200, deadline=None)
def test_an_interrupted_run_executes_the_sequence_of_one_run(schedule, max_events):
    # However often run() is cut short (max_events, or a callback's
    # stop()) and resumed: same events, same order, same clock at each.
    whole, reference = _build_colliding_simulator(schedule)
    while whole.pending_events:  # only a callback's stop() cuts these runs
        whole.run()
    resumed, log = _build_colliding_simulator(schedule)
    while resumed.pending_events:
        resumed.run(max_events=max_events)
    assert log == reference
    assert resumed.events_executed == whole.events_executed == len(reference)
    assert resumed.now == whole.now


# ----------------------------------------------------------------------
# IPv6 addresses
# ----------------------------------------------------------------------
address_values = st.integers(min_value=0, max_value=(1 << 128) - 1)


@given(value=address_values)
@settings(max_examples=300, deadline=None)
def test_ipv6_format_parse_roundtrip(value):
    address = IPv6Address(value)
    assert IPv6Address.parse(str(address)) == address


@given(values=st.lists(address_values, min_size=2, max_size=10, unique=True))
@settings(max_examples=100, deadline=None)
def test_ipv6_ordering_matches_integer_ordering(values):
    addresses = [IPv6Address(value) for value in values]
    assert sorted(addresses) == [IPv6Address(value) for value in sorted(values)]


# ----------------------------------------------------------------------
# Segment Routing header
# ----------------------------------------------------------------------
segment_lists = st.lists(address_values, min_size=1, max_size=8, unique=True).map(
    lambda values: [IPv6Address(value) for value in values]
)


@given(path=segment_lists)
@settings(max_examples=200, deadline=None)
def test_srh_traversal_roundtrip(path):
    srh = SegmentRoutingHeader.from_traversal(path)
    assert list(srh.traversal_order()) == path
    assert srh.active_segment == path[0]
    assert srh.segments[0] == path[-1]


@given(path=segment_lists)
@settings(max_examples=200, deadline=None)
def test_srh_advancing_visits_segments_in_order(path):
    srh = SegmentRoutingHeader.from_traversal(path)
    visited = [srh.active_segment]
    while srh.segments_left:
        visited.append(srh.advance())
    assert visited == path


@given(path=segment_lists, data=st.data())
@settings(max_examples=200, deadline=None)
def test_srh_segments_left_is_monotonically_non_increasing(path, data):
    srh = SegmentRoutingHeader.from_traversal(path)
    previous = srh.segments_left
    while srh.segments_left:
        jump = data.draw(st.integers(min_value=0, max_value=srh.segments_left))
        srh.set_segments_left(jump)
        assert srh.segments_left <= previous
        previous = srh.segments_left
        if srh.segments_left > 0:
            srh.advance()
            previous = srh.segments_left
    assert srh.active_segment == path[-1] or srh.segments_left == 0


# ----------------------------------------------------------------------
# packet flow-key cache
# ----------------------------------------------------------------------
def _strip_srh(packet: Packet) -> None:
    """The load balancer's SRH strip, written as data (as the data path
    does): the header goes and the destination becomes its final
    segment, which keeps the flow key."""
    final = packet.srh.segments[0]
    packet.srh = None
    packet._dst = final


def _fresh_flow_key(packet: Packet) -> FlowKey:
    """The flow key computed from first principles, bypassing the cache."""
    return FlowKey(
        src_address=packet.src,
        src_port=packet.tcp.src_port,
        dst_address=packet.srh.segments[0] if packet.srh is not None else packet.dst,
        dst_port=packet.tcp.dst_port,
    )


#: Op codes for the random SRH-mutation walk below.
_FLOW_KEY_OPS = st.lists(
    st.sampled_from(["attach", "advance", "detach", "set_left", "assign_dst"]),
    min_size=0,
    max_size=30,
)


@given(ops=_FLOW_KEY_OPS, path=segment_lists, data=st.data())
@settings(max_examples=200, deadline=None)
def test_flow_key_cache_matches_fresh_computation_under_any_mutation(
    ops, path, data
):
    """`packet.flow_key()` after any sequence of sanctioned mutations
    must equal the key computed fresh from the packet's current state."""
    src = IPv6Address(1)
    dst = IPv6Address(2)
    packet = Packet(src=src, dst=dst, tcp=TCPSegment(src_port=1000, dst_port=80))
    assert packet.flow_key() == _fresh_flow_key(packet)
    for op in ops:
        if op == "attach":
            packet.attach_srh(SegmentRoutingHeader.from_traversal(path))
        elif op == "advance":
            if packet.srh is None or packet.srh.segments_left == 0:
                continue
            packet.advance_srh()
        elif op == "detach":
            if packet.srh is None:
                continue
            _strip_srh(packet)
        elif op == "set_left":
            if packet.srh is None:
                continue
            jump = data.draw(
                st.integers(min_value=0, max_value=packet.srh.segments_left)
            )
            packet.set_segments_left(jump)
        else:  # assign_dst (only meaningful without an SRH)
            if packet.srh is not None:
                continue
            packet.dst = data.draw(address_values.map(IPv6Address))
        assert packet.flow_key() == _fresh_flow_key(packet)
        # The SRH invariant must also survive every mutation.
        if packet.srh is not None:
            assert packet.dst == packet.srh.active_segment


@given(ops=_FLOW_KEY_OPS, path=segment_lists)
@settings(max_examples=100, deadline=None)
def test_flow_key_cache_copy_independence(ops, path):
    """Mutating a packet never changes the key of a prior copy()."""
    packet = Packet(
        src=IPv6Address(1),
        dst=IPv6Address(2),
        tcp=TCPSegment(src_port=1000, dst_port=80),
    )
    packet.attach_srh(SegmentRoutingHeader.from_traversal(path))
    packet.flow_key()  # warm the cache so the copy inherits it
    clone = packet.copy()
    expected = _fresh_flow_key(clone)
    for op in ops:
        if op == "advance" and packet.srh is not None and packet.srh.segments_left:
            packet.advance_srh()
        elif op == "detach" and packet.srh is not None:
            _strip_srh(packet)
        elif op == "attach":
            packet.attach_srh(SegmentRoutingHeader.from_traversal(path))
    assert clone.flow_key() == expected == _fresh_flow_key(clone)
