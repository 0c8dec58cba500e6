"""Unit tests for the fault plane's injectors and its counters."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import NetworkError
from repro.net.channel import InProcessChannel
from repro.net.faults import (
    CorruptionInjector,
    FaultConfig,
    FaultInjectionChannel,
    GilbertElliottLossInjector,
    IIDLossInjector,
    JitterInjector,
    LinkFlapInjector,
    LinkStats,
    ReorderInjector,
    build_injectors,
)
from repro.sim.engine import Simulator


def _draws(*values):
    """A stand-in draw source: hands out fixed draws, in order (standard
    exponentials for a jitter stage, uniforms for the others)."""
    return iter(values).__next__


class _Sink:
    def __init__(self, simulator):
        self.simulator = simulator
        self.received = []

    def receive(self, packet):
        self.received.append((packet, self.simulator.now))


class TestLinkStats:
    def test_snapshot_names_every_field_in_order(self):
        # The fault.* counters and the telemetry series are read through
        # the snapshot, so no field may go missing from it.
        # packets_dropped is derived (the sum of the reasons) and follows
        # packets_sent.
        names = [field.name for field in dataclasses.fields(LinkStats)]
        assert list(LinkStats().snapshot()) == [names[0], "packets_dropped", *names[1:]]
        assert names == [
            "packets_sent",
            "packets_dropped_loss",
            "packets_dropped_burst",
            "packets_dropped_corrupted",
            "packets_dropped_link_down",
            "packets_delayed_jitter",
            "packets_reordered",
        ]

    def test_packets_dropped_is_the_sum_of_the_drop_reasons(self):
        simulator = Simulator(seed=1)
        config = FaultConfig(
            loss_rate=0.3, burst_enter=0.2, corruption_rate=0.1,
            jitter_mean=0.001, reorder_rate=0.2, reorder_window=0.01,
            flap_windows=((0.5, 0.6),),
        )
        pipeline = FaultInjectionChannel(
            simulator, InProcessChannel(simulator), build_injectors(simulator, config)
        )
        sink = _Sink(simulator)
        for index in range(200):
            simulator.schedule_at(
                index * 0.005, lambda i=index: pipeline.deliver(sink, i, 0.001, "pkt")
            )
        simulator.run()
        snapshot = pipeline.stats.snapshot()
        assert snapshot["packets_sent"] == 200
        assert snapshot["packets_dropped"] > 0
        assert snapshot["packets_dropped"] == sum(
            value for name, value in snapshot.items()
            if name.startswith("packets_dropped_")
        )
        assert len(sink.received) == 200 - snapshot["packets_dropped"]


class TestInjectors:
    def test_iid_loss_drops_below_the_rate(self):
        stats = LinkStats()
        injector = IIDLossInjector(_draws(0.1, 0.9), rate=0.5)
        assert injector.assess(0.0, stats) is None
        assert injector.assess(0.0, stats) == 0.0
        assert stats.packets_dropped_loss == 1

    def test_corruption_counts_as_its_own_drop_reason(self):
        stats = LinkStats()
        injector = CorruptionInjector(_draws(0.0), rate=0.5)
        assert injector.assess(0.0, stats) is None
        assert (stats.packets_dropped_corrupted, stats.packets_dropped_loss) == (1, 0)

    def test_burst_loss_drops_only_in_the_bad_state(self):
        stats = LinkStats()
        injector = GilbertElliottLossInjector(_draws(0.9, 0.1, 0.5, 0.9, 0.1), enter=0.2, exit=0.3)
        # good stays good (0.9 >= enter): nothing lost, no loss draw
        assert injector.assess(0.0, stats) == 0.0
        # good -> bad (0.1 < enter), then lost (0.5 < loss_bad = 1)
        assert injector.assess(0.0, stats) is None
        assert injector.bad
        # bad stays bad (0.9 >= exit), then lost (0.1 < loss_bad)
        assert injector.assess(0.0, stats) is None
        assert injector.bad
        assert stats.packets_dropped_burst == 2

    def test_jitter_delays_and_is_capped(self):
        stats = LinkStats()
        injector = JitterInjector(_draws(0.5, 10.0), mean=0.002, cap=0.01)
        assert injector.assess(0.0, stats) == pytest.approx(0.001)
        assert injector.assess(0.0, stats) == 0.01
        assert stats.packets_delayed_jitter == 2
        assert stats.packets_dropped == 0

    def test_reorder_holds_back_within_the_window(self):
        stats = LinkStats()
        injector = ReorderInjector(_draws(0.1, 0.5, 0.9), rate=0.2, window=0.04)
        assert injector.assess(0.0, stats) == pytest.approx(0.02)
        assert injector.assess(0.0, stats) == 0.0
        assert stats.packets_reordered == 1

    def test_flap_drops_inside_each_window_only(self):
        stats = LinkStats()
        injector = LinkFlapInjector([(1.0, 2.0), (3.0, 4.0)])
        verdicts = [injector.assess(now, stats) for now in (0.5, 1.0, 1.5, 2.0, 3.5, 4.0)]
        assert verdicts == [0.0, None, None, 0.0, None, 0.0]
        assert stats.packets_dropped_link_down == 3

    @pytest.mark.parametrize(
        "make",
        [
            lambda: IIDLossInjector(None, 1.5),
            lambda: CorruptionInjector(None, -0.1),
            lambda: GilbertElliottLossInjector(None, enter=0.1, exit=2.0),
            lambda: JitterInjector(None, mean=-1.0),
            lambda: JitterInjector(None, mean=1.0, cap=-1.0),
            lambda: ReorderInjector(None, rate=0.5, window=0.0),
            lambda: LinkFlapInjector([(2.0, 1.0)]),
            lambda: LinkFlapInjector([(1.0, 3.0), (2.0, 4.0)]),
        ],
    )
    def test_invalid_settings_are_refused(self, make):
        with pytest.raises(NetworkError):
            make()


class TestPipeline:
    def test_the_first_dropping_stage_ends_the_packet(self):
        simulator = Simulator(seed=2)
        loss = IIDLossInjector(_draws(0.0), rate=1.0)
        corruption = CorruptionInjector(_draws(), rate=1.0)
        pipeline = FaultInjectionChannel(simulator, InProcessChannel(simulator), [loss, corruption])
        sink = _Sink(simulator)
        pipeline.deliver(sink, "pkt", 0.001, "x")
        simulator.run()
        assert sink.received == []
        assert pipeline.stats.packets_dropped == 1
        assert pipeline.stats.packets_dropped_loss == 1
        assert pipeline.stats.packets_dropped_corrupted == 0

    def test_delays_of_every_stage_add_to_the_hop(self):
        simulator = Simulator(seed=2)
        jitter = JitterInjector(_draws(1.0), mean=0.002)
        reorder = ReorderInjector(_draws(0.0, 0.5), rate=1.0, window=0.01)
        pipeline = FaultInjectionChannel(simulator, InProcessChannel(simulator), [jitter, reorder])
        sink = _Sink(simulator)
        pipeline.deliver(sink, "pkt", 0.001, "x")
        simulator.run()
        assert sink.received == [("pkt", pytest.approx(0.001 + 0.002 + 0.005))]
        assert pipeline.stats.packets_sent - pipeline.stats.packets_dropped == 1

    def test_the_default_config_is_disabled(self):
        assert build_injectors(None, FaultConfig()) == ()
        assert build_injectors(None, FaultConfig(flap_windows=((1.0, 2.0),)))

    def test_an_invalid_config_fails_at_construction(self):
        with pytest.raises(NetworkError):
            FaultConfig(reorder_rate=0.5)
