"""Unit tests for the delivery-channel layer (:mod:`repro.net.channel`)."""

import pickle

import pytest

from repro.net.channel import BatchFrame, InProcessChannel


class FakeSink:
    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


class TestInProcessChannel:
    def test_delivers_after_delay(self, simulator):
        sink = FakeSink()
        channel = InProcessChannel(simulator)
        channel.deliver(sink, "pkt", 0.25, "deliver->sink")
        simulator.run()
        assert sink.received == ["pkt"]
        assert simulator.now == pytest.approx(0.25)

    def test_is_one_schedule_call_with_the_given_label(self, simulator):
        # The bit-identity guarantee, stated on what a run can observe:
        # a delivery is exactly one engine event, it fires at
        # now + delay, it delivers the packet once, and it is FIFO
        # against ordinary timers scheduled for the same instant.
        order = []
        sink = FakeSink()
        sink.receive = lambda packet: order.append(packet)
        simulator.schedule_in(0.25, lambda: None)
        simulator.run()  # deliveries are relative to a non-zero "now"
        simulator.schedule_in(0.5, lambda: order.append("timer-before"))
        before = simulator.pending_events
        InProcessChannel(simulator).deliver(sink, "pkt", 0.5, "my-label")
        assert simulator.pending_events == before + 1
        simulator.schedule_in(0.5, lambda: order.append("timer-after"))
        assert simulator.peek_next_time() == pytest.approx(0.75)
        simulator.run()
        assert simulator.now == pytest.approx(0.75)
        assert order == ["timer-before", "pkt", "timer-after"]

    def test_send_calls_the_arrival_with_the_packet(self, simulator):
        # The primitive every channel implements: arrive(packet) after
        # the delay, the packet riding on the event as its argument.
        arrived = []
        InProcessChannel(simulator).send(arrived.append, "pkt", 0.1, "hop")
        assert arrived == []
        simulator.run()
        assert arrived == ["pkt"]
        assert simulator.now == pytest.approx(0.1)

    def test_guard_true_delivers(self, simulator):
        sink = FakeSink()
        InProcessChannel(simulator).deliver(sink, "pkt", 0.1, "x", lambda: True)
        simulator.run()
        assert sink.received == ["pkt"]

    def test_guard_false_drops(self, simulator):
        sink = FakeSink()
        InProcessChannel(simulator).deliver(sink, "pkt", 0.1, "x", lambda: False)
        simulator.run()
        assert sink.received == []

    def test_guard_runs_at_delivery_time_not_send_time(self, simulator):
        sink = FakeSink()
        state = {"alive": True}
        InProcessChannel(simulator).deliver(
            sink, "pkt", 1.0, "x", lambda: state["alive"]
        )
        # Flip the state after the send but before the delay elapses.
        simulator.schedule_in(0.5, lambda: state.update(alive=False))
        simulator.run()
        assert sink.received == []


class TestBatchFrame:
    def test_leftover_frame_still_pickles(self):
        # The frozen benchmark's net.frame_roundtrip_ns_per_item pickles
        # this shape; nothing in src/ ships it any more.
        frame = BatchFrame(0, 1.0, ((0.5, (7, 0.1, 0.4, None)),))
        assert pickle.loads(pickle.dumps(frame)) == frame
        assert BatchFrame(2, 3.0).items == ()
