"""Unit tests for the delivery-channel layer (:mod:`repro.net.channel`)."""

import math
import multiprocessing

import pytest

from repro.errors import NetworkError
from repro.net.channel import (
    BatchFrame,
    CollectingSender,
    InProcessChannel,
    MergedItem,
    PipeChannelReceiver,
    PipeChannelSender,
    drain_receivers,
    merge_frames,
)


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


class TestFrameSenders:
    @pytest.fixture(params=["collecting", "pipe"])
    def sender_and_frames(self, request):
        if request.param == "collecting":
            sender = CollectingSender(partition=3)
            return sender, lambda: list(sender.frames)
        receive_end, send_end = multiprocessing.Pipe(duplex=False)
        sender = PipeChannelSender(send_end, partition=3)
        receiver = PipeChannelReceiver(receive_end)

        def frames():
            collected = []
            while receive_end.poll(0):
                collected.append(receiver.recv())
            return collected

        return sender, frames

    def test_flush_emits_staged_items_in_order(self, sender_and_frames):
        sender, frames = sender_and_frames
        sender.stage(1.0, "a")
        sender.stage(2.0, "b")
        sender.flush(5.0)
        (frame,) = frames()
        assert frame == BatchFrame(3, 5.0, ((1.0, "a"), (2.0, "b")))
        assert not frame.final

    def test_empty_flush_is_a_null_message(self, sender_and_frames):
        sender, frames = sender_and_frames
        sender.flush(5.0)
        (frame,) = frames()
        assert frame.items == ()
        assert frame.window_end == 5.0

    def test_close_sends_the_sentinel_with_summary(self, sender_and_frames):
        sender, frames = sender_and_frames
        sender.flush(5.0)
        sender.stage(6.0, "late")
        sender.close(summary={"events": 7})
        _, sentinel = frames()
        assert sentinel.final
        assert math.isinf(sentinel.window_end)
        assert sentinel.items == ((6.0, "late"),)
        assert sentinel.summary == {"events": 7}

    def test_close_is_idempotent(self, sender_and_frames):
        sender, frames = sender_and_frames
        sender.close()
        sender.close()
        assert len(frames()) == 1

    def test_staging_behind_the_watermark_rejected(self, sender_and_frames):
        sender, _ = sender_and_frames
        sender.flush(5.0)
        with pytest.raises(NetworkError):
            sender.stage(5.0, "too-old")

    def test_watermark_may_not_move_backwards(self, sender_and_frames):
        sender, _ = sender_and_frames
        sender.flush(5.0)
        with pytest.raises(NetworkError):
            sender.flush(4.0)

    def test_closed_sender_rejects_stage_and_flush(self, sender_and_frames):
        sender, _ = sender_and_frames
        sender.close()
        with pytest.raises(NetworkError):
            sender.stage(1.0, "x")
        with pytest.raises(NetworkError):
            sender.flush(2.0)


class TestMergeFrames:
    def test_orders_by_time_then_partition_then_seq(self):
        frames = [
            BatchFrame(1, 10.0, ((2.0, "b1"), (4.0, "b2"))),
            BatchFrame(0, 10.0, ((2.0, "a1"), (3.0, "a2"))),
        ]
        merged = merge_frames(frames)
        assert [item.payload for item in merged] == ["a1", "b1", "a2", "b2"]
        assert merged[0] == MergedItem(2.0, 0, 0, "a1")

    def test_equal_times_within_a_partition_keep_emission_order(self):
        frames = [BatchFrame(0, 10.0, ((1.0, "first"), (1.0, "second")))]
        assert [item.payload for item in merge_frames(frames)] == [
            "first",
            "second",
        ]

    def test_cross_partition_interleaving_is_irrelevant(self):
        a1 = BatchFrame(0, 5.0, ((1.0, "a1"),))
        a2 = BatchFrame(0, 10.0, ((6.0, "a2"),))
        b1 = BatchFrame(1, 5.0, ((2.0, "b1"),))
        b2 = BatchFrame(1, 10.0, ((7.0, "b2"),))
        reference = merge_frames([a1, a2, b1, b2])
        assert merge_frames([b1, a1, b2, a2]) == reference
        assert merge_frames([a1, b1, a2, b2]) == reference

    def test_out_of_order_watermarks_within_a_partition_rejected(self):
        frames = [BatchFrame(0, 10.0, ()), BatchFrame(0, 5.0, ())]
        with pytest.raises(NetworkError):
            merge_frames(frames)

    def test_seq_counts_across_frames(self):
        frames = [
            BatchFrame(0, 5.0, ((1.0, "x"),)),
            BatchFrame(0, 10.0, ((6.0, "y"),)),
        ]
        merged = merge_frames(frames)
        assert [(item.seq, item.payload) for item in merged] == [(0, "x"), (1, "y")]


class TestPipePlumbing:
    def test_receiver_rejects_foreign_payloads(self):
        receive_end, send_end = multiprocessing.Pipe(duplex=False)
        send_end.send("not-a-frame")
        with pytest.raises(NetworkError):
            PipeChannelReceiver(receive_end).recv()

    def test_drain_receivers_collects_until_every_sentinel(self):
        ends = [multiprocessing.Pipe(duplex=False) for _ in range(2)]
        senders = [
            PipeChannelSender(send_end, partition)
            for partition, (_, send_end) in enumerate(ends)
        ]
        receivers = [PipeChannelReceiver(receive_end) for receive_end, _ in ends]
        senders[0].stage(1.0, "a")
        senders[0].flush(5.0)
        senders[1].close(summary={"pod": 1})
        senders[0].close()
        frames = drain_receivers(receivers)
        assert sorted(
            (frame.partition, frame.final) for frame in frames
        ) == [(0, False), (0, True), (1, True)]

    def test_drain_receivers_raises_on_eof_before_sentinel(self):
        receive_end, send_end = multiprocessing.Pipe(duplex=False)
        send_end.close()
        with pytest.raises(NetworkError):
            drain_receivers([PipeChannelReceiver(receive_end)])
