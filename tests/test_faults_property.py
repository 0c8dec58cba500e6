"""Property tests for the fault-injection plane (ISSUE satellite).

Two claims:

* **Bit-identity when disabled** — a :class:`FaultInjectionChannel`
  whose every injector is configured off (zero loss, zero jitter, no
  flap schedule) delivers exactly what the bare inner channel would:
  the same packets, at float-identical times, in the same order, with
  the same labels — and draws nothing from any RNG stream, so the rest
  of the simulation is unperturbed too.

* **Counter reconciliation** — for *any* configuration (arbitrary
  rates, burst parameters, flap schedules), every offered packet is
  either handed to the inner channel or counted once in the unified
  drop total, and the drop total always equals the sum of the
  per-reason counters: ``packets_sent - packets_dropped`` is exactly
  the delivered count.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.chaos_experiment import fault_config_for
from repro.experiments.config import ChaosConfig
from repro.net.channel import InProcessChannel
from repro.net.faults import (
    CorruptionInjector,
    FaultConfig,
    FaultInjectionChannel,
    GilbertElliottLossInjector,
    IIDLossInjector,
    build_injectors,
    install_fault_channel,
)
from repro.sim.engine import Simulator


class RecordingSink:
    """Collects ``(packet, delivery time)`` pairs."""

    def __init__(self, simulator):
        self.simulator = simulator
        self.received = []

    def receive(self, packet):
        self.received.append((packet, self.simulator.now))


#: (send time offset, hop delay) pairs; times are drawn from a modest
#: grid so schedules collide and FIFO tie-breaking is exercised too.
send_plans = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False, width=32),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32),
    ),
    min_size=0,
    max_size=40,
)


def _replay(channel, simulator, plan):
    """Send one packet per plan entry through ``channel``; return sink."""
    sink = RecordingSink(simulator)
    for index, (at, delay) in enumerate(plan):
        simulator.schedule_at(
            at,
            (lambda i=index, d=delay: channel.deliver(sink, i, d, "pkt")),
            label="send",
        )
    simulator.run()
    return sink


@given(plan=send_plans)
@settings(max_examples=60, deadline=None)
def test_disabled_pipeline_is_bit_identical(plan):
    bare_sim = Simulator(seed=7)
    bare = _replay(InProcessChannel(bare_sim), bare_sim, plan)

    faulty_sim = Simulator(seed=7)
    pipeline = FaultInjectionChannel(
        faulty_sim,
        InProcessChannel(faulty_sim),
        build_injectors(faulty_sim, FaultConfig()),
    )
    faulty = _replay(pipeline, faulty_sim, plan)

    # Same packets, same order, float-identical delivery times.
    assert [packet for packet, _ in faulty.received] == [
        packet for packet, _ in bare.received
    ]
    for (_, bare_time), (_, faulty_time) in zip(bare.received, faulty.received):
        assert math.copysign(1.0, bare_time) == math.copysign(1.0, faulty_time)
        assert bare_time == faulty_time
    assert faulty_sim.now == bare_sim.now
    # Nothing was dropped, delayed, or drawn.
    assert pipeline.stats.packets_sent == len(plan)
    assert pipeline.stats.packets_dropped == 0
    assert pipeline.stats.packets_delayed_jitter == 0
    assert pipeline.stats.packets_reordered == 0
    # The injectors' RNG substreams are untouched: both simulators'
    # streams produce identical draws afterwards.
    for name in ("fault-iid-loss", "fault-jitter", "unrelated-stream"):
        bare_draw = bare_sim.streams.stream(name).random(4).tolist()
        faulty_draw = faulty_sim.streams.stream(name).random(4).tolist()
        assert bare_draw == faulty_draw


probability = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def fault_configs(draw):
    """Arbitrary valid fault recipes, including flap schedules."""
    # Sorted, strictly positive gaps turn into non-overlapping windows.
    raw = sorted(
        draw(
            st.lists(
                st.tuples(
                    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                    st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
                ),
                max_size=3,
            )
        )
    )
    windows = []
    previous_end = 0.0
    for start, length in raw:
        start = max(start, previous_end)
        windows.append((start, start + length))
        previous_end = start + length
    return FaultConfig(
        loss_rate=draw(probability),
        burst_enter=draw(probability),
        burst_exit=draw(probability),
        burst_loss=draw(probability),
        jitter_mean=draw(
            st.floats(min_value=0.0, max_value=0.01, allow_nan=False)
        ),
        corruption_rate=draw(probability),
        flap_windows=tuple(windows),
    )


@given(config=fault_configs(), plan=send_plans)
@settings(max_examples=60, deadline=None)
def test_counters_always_reconcile(config, plan):
    simulator = Simulator(seed=11)
    pipeline = FaultInjectionChannel(
        simulator,
        InProcessChannel(simulator),
        build_injectors(simulator, config),
    )
    sink = _replay(pipeline, simulator, plan)

    stats = pipeline.stats
    assert stats.packets_sent == len(plan)
    assert stats.packets_dropped == (
        stats.packets_dropped_loss
        + stats.packets_dropped_burst
        + stats.packets_dropped_corrupted
        + stats.packets_dropped_link_down
    )
    assert len(sink.received) == stats.packets_sent - stats.packets_dropped


def test_install_fault_channel_wraps_and_returns():
    simulator = Simulator(seed=3)

    class FakeFabric:
        def __init__(self):
            self.channel = InProcessChannel(simulator)

    fabric = FakeFabric()
    inner = fabric.channel
    pipeline = install_fault_channel(simulator, fabric, FaultConfig(loss_rate=1.0))
    assert fabric.channel is pipeline
    assert pipeline.inner is inner
    sink = RecordingSink(simulator)
    fabric.channel.deliver(sink, "pkt", 0.1, "x")
    simulator.run()
    assert sink.received == []
    assert pipeline.stats.packets_dropped == 1
    assert pipeline.stats.packets_dropped_loss == 1


def test_a_pipeline_holds_only_the_injectors_its_config_enables():
    """A disabled stage could neither drop nor delay, so it is left out:
    the chaos ``baseline`` cell runs no fault code per hop, and the
    ``loss`` cell runs exactly its three loss processes."""
    config = ChaosConfig()
    simulator = Simulator(seed=5)
    assert build_injectors(simulator, fault_config_for(config, "baseline", 10.0)) == ()
    loss = build_injectors(simulator, fault_config_for(config, "loss", 10.0))
    assert [type(injector) for injector in loss] == [
        IIDLossInjector,
        GilbertElliottLossInjector,
        CorruptionInjector,
    ]
