"""Fault-injection plane: composable impairments on the delivery seam.

Every packet hop of the testbed is scheduled by one
:class:`~repro.net.channel.DeliveryChannel` (the fabric's or the ECMP
edge's).  :class:`FaultInjectionChannel` wraps any of them
with a pipeline of *injectors* — deterministic, seed-derived models of
the ways real networks misbehave (on the fabric's own in-process
channel, :meth:`LANFabric.send_from <repro.net.fabric.LANFabric.send_from>`
runs the pipeline's steps in line, in the same order):

* :class:`IIDLossInjector` — independent per-packet loss;
* :class:`GilbertElliottLossInjector` — bursty loss from the classic
  two-state (good/bad) Markov channel;
* :class:`CorruptionInjector` — corruption-as-drop: a corrupted frame
  fails its checksum at the receiver and is discarded, which at this
  abstraction level is indistinguishable from a loss (but worth its own
  counter, because the remedies differ);
* :class:`JitterInjector` — extra per-packet latency (exponential,
  optionally capped);
* :class:`ReorderInjector` — bounded reordering: a fraction of packets
  is held back by a bounded extra delay so later packets overtake them;
* :class:`LinkFlapInjector` — scheduled link-down windows during which
  every packet offered to the hop is dropped (no RNG at all).

Determinism and bit-identity
----------------------------
Each randomized injector draws from its **own** named
:class:`~repro.sim.random_streams.RandomStreams` substream (the
``STREAM`` class attribute), so enabling one impairment never perturbs
the draws of any other component — the same isolation contract the
candidate selector and the workload generators already rely on.

A *disabled* injector (zero rate / zero mean / empty schedule) could
neither drop nor delay a packet, so :func:`build_injectors` leaves it
out: a pipeline runs no per-packet code, and draws no random value, for
an impairment its config turns off.  An all-disabled pipeline holds no
injector and forwards ``send`` with the delay object untouched —
**bit-identical** to the bare inner channel: same event times, same
FIFO sequence numbers, same labels, same RNG states — pinned by the
hypothesis property test in
``tests/test_faults_property.py`` and by the ``chaos`` family's
``baseline`` golden fingerprint.

Accounting
----------
The pipeline owns a :class:`LinkStats` instance:
``packets_sent`` counts every packet offered to the pipeline, each
injector counts its drops (or delays) under its own reason counter, and
``packets_dropped`` is the sum of the drop reasons — the same
one-drop/one-reason scheme as the fabric (see
docs/architecture.md).  ``packets_sent - packets_dropped`` always equals
the number of packets handed to the inner channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import NetworkError
from repro.net.channel import Arrival, DeliveryChannel, SinkDelivery
from repro.sim.engine import Simulator


@dataclass
class LinkStats:
    """A fault pipeline's counters.

    ``packets_sent`` counts every packet offered to the pipeline; every
    drop is counted in exactly one of the reason counters, and
    ``packets_dropped`` is their sum (the same accounting scheme as
    :class:`~repro.net.fabric.FabricStats`, documented in
    docs/architecture.md):

    * ``packets_dropped_loss`` — independent (i.i.d.) packet loss;
    * ``packets_dropped_burst`` — Gilbert–Elliott bursty loss;
    * ``packets_dropped_corrupted`` — corruption-as-drop (the frame
      fails its checksum at the receiver);
    * ``packets_dropped_link_down`` — offered during a scheduled flap
      window.

    ``packets_delayed_jitter`` and ``packets_reordered`` count delay
    shaping, not drops — they do not contribute to ``packets_dropped``.
    """

    packets_sent: int = 0
    packets_dropped_loss: int = 0
    packets_dropped_burst: int = 0
    packets_dropped_corrupted: int = 0
    packets_dropped_link_down: int = 0
    packets_delayed_jitter: int = 0
    packets_reordered: int = 0

    @property
    def packets_dropped(self) -> int:
        """Unified drop total across every drop reason."""
        return (
            self.packets_dropped_loss
            + self.packets_dropped_burst
            + self.packets_dropped_corrupted
            + self.packets_dropped_link_down
        )

    def snapshot(self) -> Dict[str, int]:
        """Flat numeric counters (the uniform telemetry-sampler API).

        One entry per counter, drop reasons included — this is how the
        telemetry probe streams fault-plane accounting as time series
        and how the chaos scenario exposes per-reason totals in its
        payload without naming each field.
        """
        return {
            "packets_sent": self.packets_sent,
            "packets_dropped": self.packets_dropped,
            "packets_dropped_loss": self.packets_dropped_loss,
            "packets_dropped_burst": self.packets_dropped_burst,
            "packets_dropped_corrupted": self.packets_dropped_corrupted,
            "packets_dropped_link_down": self.packets_dropped_link_down,
            "packets_delayed_jitter": self.packets_delayed_jitter,
            "packets_reordered": self.packets_reordered,
        }


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise NetworkError(f"{name} must be in [0, 1], got {value!r}")


class FaultInjector:
    """One impairment stage of a fault pipeline.

    :meth:`assess` is called once per offered packet, in pipeline order,
    at the packet's *send* time.  It returns ``None`` to drop the packet
    (after counting the drop under its reason counter on ``stats``) or a
    non-negative extra delay in seconds.  An injector whose
    :attr:`enabled` is false could do neither, so :func:`build_injectors`
    leaves it out of the pipeline and :meth:`assess` only ever runs on an
    enabled one — that is what keeps an all-disabled pipeline
    bit-identical to the bare channel.
    """

    #: Name of the injector's :class:`RandomStreams` substream (``None``
    #: for purely scheduled injectors).
    STREAM: Optional[str] = None

    @property
    def enabled(self) -> bool:
        """Whether :meth:`assess` can drop or delay a packet."""
        raise NotImplementedError

    def assess(self, now: float, stats: LinkStats) -> Optional[float]:
        raise NotImplementedError


class IIDLossInjector(FaultInjector):
    """Drop each packet independently with probability ``rate``."""

    STREAM = "fault-iid-loss"
    __slots__ = ("rate", "_rng")

    def __init__(self, rng: Any, rate: float) -> None:
        _check_probability("loss rate", rate)
        self.rate = rate
        self._rng = rng

    @property
    def enabled(self) -> bool:
        return self.rate > 0.0

    def assess(self, now: float, stats: LinkStats) -> Optional[float]:
        if self._rng.random() < self.rate:
            stats.packets_dropped_loss += 1
            return None
        return 0.0


class CorruptionInjector(FaultInjector):
    """Corrupt (and therefore drop) each packet with probability ``rate``."""

    STREAM = "fault-corruption"
    __slots__ = ("rate", "_rng")

    def __init__(self, rng: Any, rate: float) -> None:
        _check_probability("corruption rate", rate)
        self.rate = rate
        self._rng = rng

    @property
    def enabled(self) -> bool:
        return self.rate > 0.0

    def assess(self, now: float, stats: LinkStats) -> Optional[float]:
        if self._rng.random() < self.rate:
            stats.packets_dropped_corrupted += 1
            return None
        return 0.0


class GilbertElliottLossInjector(FaultInjector):
    """Bursty loss from the two-state Gilbert–Elliott channel.

    The channel is ``good`` or ``bad``; each offered packet first drives
    one Markov transition (``enter``: good→bad, ``exit``: bad→good),
    then is lost with the state's loss probability (``loss_good`` /
    ``loss_bad``).  ``enter = 0`` with ``loss_good = 0`` disables the
    injector entirely (the chain can neither leave the good state nor
    drop in it), in which case no random values are drawn.
    """

    STREAM = "fault-burst-loss"
    __slots__ = ("enter", "exit", "loss_good", "loss_bad", "bad", "_rng")

    def __init__(
        self,
        rng: Any,
        enter: float,
        exit: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> None:
        _check_probability("burst enter probability", enter)
        _check_probability("burst exit probability", exit)
        _check_probability("good-state loss probability", loss_good)
        _check_probability("bad-state loss probability", loss_bad)
        self.enter = enter
        self.exit = exit
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.bad = False
        self._rng = rng

    @property
    def enabled(self) -> bool:
        return self.enter > 0.0 or self.loss_good > 0.0

    def assess(self, now: float, stats: LinkStats) -> Optional[float]:
        rng = self._rng
        if self.bad:
            if rng.random() < self.exit:
                self.bad = False
        elif rng.random() < self.enter:
            self.bad = True
        loss = self.loss_bad if self.bad else self.loss_good
        if loss > 0.0 and rng.random() < loss:
            stats.packets_dropped_burst += 1
            return None
        return 0.0


class JitterInjector(FaultInjector):
    """Add exponentially distributed extra latency (mean ``mean``).

    ``cap`` truncates the draw (0 = uncapped), bounding how far one
    packet can fall behind its peers.
    """

    STREAM = "fault-jitter"
    __slots__ = ("mean", "cap", "_rng")

    def __init__(self, rng: Any, mean: float, cap: float = 0.0) -> None:
        if mean < 0.0:
            raise NetworkError(f"jitter mean must be non-negative, got {mean!r}")
        if cap < 0.0:
            raise NetworkError(f"jitter cap must be non-negative, got {cap!r}")
        self.mean = mean
        self.cap = cap
        self._rng = rng

    @property
    def enabled(self) -> bool:
        return self.mean > 0.0

    def assess(self, now: float, stats: LinkStats) -> Optional[float]:
        extra = self._rng.exponential(self.mean)
        if self.cap > 0.0 and extra > self.cap:
            extra = self.cap
        stats.packets_delayed_jitter += 1
        return extra


class ReorderInjector(FaultInjector):
    """Bounded reordering: hold back a fraction of packets.

    With probability ``rate`` a packet is delayed by a uniform draw from
    ``[0, window]`` seconds, so packets sent later (within the window)
    overtake it.  The bound is the window: no packet is ever displaced
    by more than ``window`` seconds.
    """

    STREAM = "fault-reorder"
    __slots__ = ("rate", "window", "_rng")

    def __init__(self, rng: Any, rate: float, window: float) -> None:
        _check_probability("reorder rate", rate)
        if window < 0.0:
            raise NetworkError(
                f"reorder window must be non-negative, got {window!r}"
            )
        if rate > 0.0 and window <= 0.0:
            raise NetworkError(
                "a positive reorder rate needs a positive reorder window"
            )
        self.rate = rate
        self.window = window
        self._rng = rng

    @property
    def enabled(self) -> bool:
        return self.rate > 0.0

    def assess(self, now: float, stats: LinkStats) -> Optional[float]:
        if self._rng.random() < self.rate:
            stats.packets_reordered += 1
            return self._rng.random() * self.window
        return 0.0


class LinkFlapInjector(FaultInjector):
    """Scheduled link flaps: drop every packet offered inside a window.

    ``windows`` is a sorted, non-overlapping sequence of
    ``(down_at, up_at)`` intervals in simulated seconds.  Purely
    scheduled — no RNG — so an empty schedule is trivially disabled.
    Deliveries are assessed in non-decreasing simulated time, so a
    cursor over the schedule suffices.
    """

    STREAM = None
    __slots__ = ("windows", "_cursor")

    def __init__(self, windows: Sequence[Tuple[float, float]]) -> None:
        ordered = tuple((float(start), float(end)) for start, end in windows)
        previous_end = 0.0
        for start, end in ordered:
            if start < 0.0 or end <= start:
                raise NetworkError(
                    f"flap window must satisfy 0 <= start < end, got "
                    f"({start!r}, {end!r})"
                )
            if start < previous_end:
                raise NetworkError(
                    "flap windows must be sorted and non-overlapping, got "
                    f"{ordered!r}"
                )
            previous_end = end
        self.windows = ordered
        self._cursor = 0

    @property
    def enabled(self) -> bool:
        return bool(self.windows)

    def assess(self, now: float, stats: LinkStats) -> Optional[float]:
        windows = self.windows
        cursor = self._cursor
        while cursor < len(windows) and now >= windows[cursor][1]:
            cursor += 1
        self._cursor = cursor
        if cursor < len(windows) and now >= windows[cursor][0]:
            stats.packets_dropped_link_down += 1
            return None
        return 0.0


@dataclass(frozen=True)
class FaultConfig:
    """Declarative description of one fault pipeline.

    The all-zero default describes a pipeline that is constructed but
    entirely disabled — bit-identical to no pipeline at all.
    """

    #: Independent per-packet loss probability.
    loss_rate: float = 0.0
    #: Gilbert–Elliott transition/loss probabilities (per packet).
    burst_enter: float = 0.0
    burst_exit: float = 0.25
    burst_loss: float = 1.0
    #: Mean (and truncation cap, 0 = uncapped) of the exponential
    #: per-packet extra latency, in seconds.
    jitter_mean: float = 0.0
    jitter_cap: float = 0.0
    #: Fraction of packets held back, and the bound on how long.
    reorder_rate: float = 0.0
    reorder_window: float = 0.0
    #: Corruption-as-drop probability.
    corruption_rate: float = 0.0
    #: Scheduled ``(down_at, up_at)`` link-down windows, in seconds.
    flap_windows: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        # Construction of throwaway injectors performs the full
        # validation; an invalid field raises here, not mid-run.
        build_injectors(None, self)


def build_injectors(
    simulator: Optional[Simulator], config: FaultConfig
) -> Tuple[FaultInjector, ...]:
    """The enabled stages of the pipeline described by ``config``.

    Canonical order: structural outage first (flaps), then the loss
    processes, then the delay shaping — so a packet that survives every
    loss stage accumulates the delay stages' extra latency.  Every stage
    is constructed, so every field is validated, but a disabled one
    (which would draw nothing and add ``0.0``) is left out.
    ``simulator=None`` builds RNG-less throwaway injectors, used only to
    validate a :class:`FaultConfig`.
    """

    def stream(name: Optional[str]) -> Any:
        if simulator is None or name is None:
            return None
        return simulator.streams.stream(name)

    injectors = (
        LinkFlapInjector(config.flap_windows),
        IIDLossInjector(stream(IIDLossInjector.STREAM), config.loss_rate),
        GilbertElliottLossInjector(
            stream(GilbertElliottLossInjector.STREAM),
            enter=config.burst_enter,
            exit=config.burst_exit,
            loss_good=0.0,
            loss_bad=config.burst_loss,
        ),
        CorruptionInjector(
            stream(CorruptionInjector.STREAM), config.corruption_rate
        ),
        JitterInjector(
            stream(JitterInjector.STREAM), config.jitter_mean, config.jitter_cap
        ),
        ReorderInjector(
            stream(ReorderInjector.STREAM),
            config.reorder_rate,
            config.reorder_window,
        ),
    )
    return tuple(injector for injector in injectors if injector.enabled)


class FaultInjectionChannel(SinkDelivery):
    """:class:`DeliveryChannel` wrapper running packets through injectors.

    Wraps any inner channel (plain, or another fault channel).
    Offered packets traverse the pipeline at send time: the first
    injector returning ``None`` drops the packet (counted once, under
    the injector's reason counter);
    otherwise the injectors' extra delays are summed onto the hop delay
    and the packet is forwarded to the inner channel unchanged.
    :meth:`LANFabric.send_from <repro.net.fabric.LANFabric.send_from>`
    copies :meth:`send` in line for a pipeline whose ``inner`` is the
    fabric's own in-process channel; a change here is a change there.
    """

    __slots__ = ("simulator", "inner", "injectors", "stats")

    def __init__(
        self,
        simulator: Simulator,
        inner: DeliveryChannel,
        injectors: Sequence[FaultInjector],
    ) -> None:
        self.simulator = simulator
        self.inner = inner
        self.injectors = tuple(injectors)
        self.stats = LinkStats()

    def send(self, arrive: Arrival, packet: Any, delay: float, label: str) -> None:
        stats = self.stats
        stats.packets_sent += 1
        now = self.simulator.clock._now
        extra = 0.0
        for injector in self.injectors:
            verdict = injector.assess(now, stats)
            if verdict is None:
                return
            extra += verdict
        if extra > 0.0:
            delay = delay + extra
        self.inner.send(arrive, packet, delay, label)


def install_fault_channel(
    simulator: Simulator, fabric: Any, config: FaultConfig
) -> FaultInjectionChannel:
    """Wrap ``fabric``'s delivery channel with a pipeline from ``config``.

    Works on anything exposing a ``channel`` attribute (the LAN fabric,
    the ECMP edge router).  Returns the installed
    channel so callers can read its drop/delay counters after the run.
    """
    channel = FaultInjectionChannel(
        simulator, fabric.channel, build_injectors(simulator, config)
    )
    fabric.channel = channel
    return channel
