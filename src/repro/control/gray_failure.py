"""Gray failures: servers that get slow instead of dying.

Crash failures are the easy case — the load balancer stops receiving
steering SYN-ACKs and the flow simply re-offers elsewhere.  The failure
mode that actually hurts power-of-two-choices dispatch is the *gray*
one: a server whose CPU silently degrades keeps accepting connections
(its scoreboard still has idle workers when the SYN arrives) but serves
them slowly, so its busy count creeps up, its acceptance threshold keeps
admitting work, and the fleet's tail latency inflates long before
anything "fails".

Two pieces model this:

* :class:`GrayFailureInjector` degrades a victim server's CPU ``speed``
  at a scheduled time, optionally wobbling it around the degraded value
  (deterministic square-wave jitter — no RNG, so runs stay bit-identical
  across worker counts), and can restore it later.
* :class:`GrayFailureWatchdog` is the control-plane counterpart: a
  periodic detector comparing each server's busy-thread count against
  the fleet median.  A server persistently above ``slow_factor ×``
  median is *quarantined* — the watchdog records a
  :class:`QuarantineEvent` and invokes a callback, which the adversarial
  scenario wires to a graceful drain plus replacement provisioning (the
  autoscaler's reaction to non-crash degradation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.errors import ExperimentError
from repro.server.virtual_router import ServerNode
from repro.sim.engine import PeriodicTask, Simulator

class GrayFailureInjector:
    """Degrade one server's CPU speed without killing it.

    Parameters
    ----------
    simulator:
        Shared simulation engine.
    server:
        The victim.
    degraded_factor:
        Multiplier (in ``(0, 1)``) applied to the server's nominal speed
        at ``start_at``.
    start_at:
        Absolute simulation time the degradation begins.
    duration:
        When given, nominal speed is restored this many seconds after
        the degradation started; ``None`` leaves the server degraded.
    jitter_amplitude:
        When positive, the degraded speed wobbles by ``± amplitude``
        (relative) every ``jitter_interval`` seconds — a deterministic
        square wave modelling the erratic latency of a failing part.
    jitter_interval:
        Period of the wobble (required positive when jitter is on).
    """

    def __init__(
        self,
        simulator: Simulator,
        server: ServerNode,
        degraded_factor: float = 0.25,
        start_at: float = 0.0,
        duration: Optional[float] = None,
        jitter_amplitude: float = 0.0,
        jitter_interval: float = 0.5,
    ) -> None:
        if not 0 < degraded_factor < 1:
            raise ExperimentError(
                f"degraded factor must be in (0, 1), got {degraded_factor!r}"
            )
        if start_at < 0:
            raise ExperimentError(
                f"start time must be non-negative, got {start_at!r}"
            )
        if duration is not None and duration <= 0:
            raise ExperimentError(
                f"duration must be positive, got {duration!r}"
            )
        if not 0 <= jitter_amplitude < 1:
            raise ExperimentError(
                f"jitter amplitude must be in [0, 1), got {jitter_amplitude!r}"
            )
        if jitter_amplitude > 0 and jitter_interval <= 0:
            raise ExperimentError(
                f"jitter interval must be positive, got {jitter_interval!r}"
            )
        self.simulator = simulator
        self.server = server
        self.degraded_factor = degraded_factor
        self.start_at = start_at
        self.duration = duration
        self.jitter_amplitude = jitter_amplitude
        self.jitter_interval = jitter_interval
        self.active = False
        self.degraded_at: Optional[float] = None
        self.restored_at: Optional[float] = None
        self._nominal_speed: Optional[float] = None
        self._jitter_task: Optional[PeriodicTask] = None
        self._jitter_phase = 0

    def start(self) -> None:
        """Arm the injector (schedules the degradation)."""
        self.simulator.schedule_at(
            self.start_at, self._degrade, label="gray-degrade"
        )
        if self.duration is not None:
            self.simulator.schedule_at(
                self.start_at + self.duration, self.restore, label="gray-restore"
            )

    def _degrade(self) -> None:
        if self.active:
            return
        self._nominal_speed = self.server.app.cpu.speed
        self.active = True
        self.degraded_at = self.simulator.now
        self.server.app.cpu.set_speed(self._nominal_speed * self.degraded_factor)
        if self.jitter_amplitude > 0:
            self._jitter_task = PeriodicTask(
                self.simulator,
                self.jitter_interval,
                self._wobble,
                label="gray-jitter",
            )
            self._jitter_task.start()

    def _wobble(self) -> None:
        if not self.active or self._nominal_speed is None:
            return
        self._jitter_phase += 1
        swing = (
            1 + self.jitter_amplitude
            if self._jitter_phase % 2
            else 1 - self.jitter_amplitude
        )
        self.server.app.cpu.set_speed(
            self._nominal_speed * self.degraded_factor * swing
        )

    def restore(self) -> None:
        """Return the server to nominal speed and stop the wobble."""
        if not self.active or self._nominal_speed is None:
            return
        if self._jitter_task is not None:
            self._jitter_task.stop()
            self._jitter_task = None
        self.active = False
        self.restored_at = self.simulator.now
        self.server.app.cpu.set_speed(self._nominal_speed)

    def __repr__(self) -> str:
        return (
            f"GrayFailureInjector(server={self.server.name!r}, "
            f"factor={self.degraded_factor:g}, active={self.active})"
        )


@dataclass(frozen=True)
class QuarantineEvent:
    """One watchdog quarantine decision."""

    time: float
    server: str
    busy_threads: int
    fleet_median: float
    strikes: int


class GrayFailureWatchdog:
    """Median-relative slow-server detector (the quarantine signal).

    Every ``interval`` seconds the watchdog compares each serving
    (non-draining) server's busy-thread count against the fleet median.
    A server needs ``consecutive`` ticks above ``slow_factor × median``
    (and at least ``min_busy`` busy threads, so an idle fleet never
    trips it) to be quarantined; any compliant tick resets its strikes.
    Detection is purely observational — the ``on_quarantine`` callback
    decides what quarantine *means* (the adversarial scenario drains the
    victim through the server lifecycle and provisions a replacement).
    """

    def __init__(
        self,
        simulator: Simulator,
        servers: Callable[[], Sequence[ServerNode]],
        on_quarantine: Optional[Callable[[ServerNode], None]] = None,
        interval: float = 0.5,
        slow_factor: float = 2.0,
        min_busy: int = 2,
        consecutive: int = 3,
        max_quarantines: int = 1,
    ) -> None:
        if interval <= 0:
            raise ExperimentError(
                f"watchdog interval must be positive, got {interval!r}"
            )
        if slow_factor <= 1:
            raise ExperimentError(
                f"slow factor must be > 1, got {slow_factor!r}"
            )
        if min_busy < 1:
            raise ExperimentError(f"min_busy must be >= 1, got {min_busy!r}")
        if consecutive < 1:
            raise ExperimentError(
                f"consecutive must be >= 1, got {consecutive!r}"
            )
        if max_quarantines < 1:
            raise ExperimentError(
                f"max_quarantines must be >= 1, got {max_quarantines!r}"
            )
        self.simulator = simulator
        self._servers = servers
        self.on_quarantine = on_quarantine
        self.interval = interval
        self.slow_factor = slow_factor
        self.min_busy = min_busy
        self.consecutive = consecutive
        self.max_quarantines = max_quarantines
        self.events: List[QuarantineEvent] = []
        self.ticks = 0
        self._strikes: Dict[str, int] = {}
        self._quarantined: Set[str] = set()
        self._task: Optional[PeriodicTask] = None

    def start(self, first_delay: Optional[float] = None) -> None:
        """Begin periodic detection."""
        if self._task is None:
            self._task = PeriodicTask(
                self.simulator, self.interval, self._tick, label="gray-watchdog"
            )
        self._task.start(first_delay)

    def stop(self) -> None:
        """Stop detection (horizon hook).

        The stopped task is dropped: its callback is this watchdog, and
        the pair would otherwise hold the testbed until a GC pass.
        """
        if self._task is not None:
            self._task.stop()
            self._task = None

    def _tick(self) -> None:
        self.ticks += 1
        servers = [
            server
            for server in self._servers()
            if not server.draining and server.name not in self._quarantined
        ]
        if len(servers) < 2:
            return
        counts = [server.app.busy_threads for server in servers]
        busy = sorted(counts)
        # Upper median over integers: deterministic, no float .5 cases.
        median = busy[len(busy) // 2]
        threshold = max(self.min_busy, self.slow_factor * median)
        for server, count in zip(servers, counts):
            if count >= threshold and count > median:
                strikes = self._strikes.get(server.name, 0) + 1
                self._strikes[server.name] = strikes
                if (
                    strikes >= self.consecutive
                    and len(self._quarantined) < self.max_quarantines
                ):
                    self._quarantine(server, count, median, strikes)
            else:
                self._strikes[server.name] = 0

    def _quarantine(
        self, server: ServerNode, busy: int, median: float, strikes: int
    ) -> None:
        self._quarantined.add(server.name)
        self.events.append(
            QuarantineEvent(
                time=self.simulator.now,
                server=server.name,
                busy_threads=busy,
                fleet_median=float(median),
                strikes=strikes,
            )
        )
        if self.on_quarantine is not None:
            self.on_quarantine(server)

    @property
    def quarantined(self) -> Sequence[str]:
        """Names of quarantined servers, sorted."""
        return tuple(sorted(self._quarantined))

    def __repr__(self) -> str:
        return (
            f"GrayFailureWatchdog(interval={self.interval:g}, "
            f"quarantined={sorted(self._quarantined)!r})"
        )
