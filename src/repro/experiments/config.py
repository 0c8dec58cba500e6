"""Experiment configuration dataclasses.

The configuration mirrors the paper's experimental platform (§IV): one
load balancer, twelve application servers with 2 cores and 32 Apache
workers each, a TCP backlog of 128 with abort-on-overflow, and the two
workloads of §V and §VI.  Every parameter is a field so that ablation
benchmarks and downstream users can deviate from the paper's setup
explicitly and visibly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.errors import ExperimentError

#: The 24 load factors swept by the paper's Figure 2 (evenly spaced in (0, 1)).
PAPER_LOAD_FACTORS: Tuple[float, ...] = tuple(
    round(0.04 * step, 2) for step in range(1, 25)
)

#: The two load factors highlighted by Figures 3-5.
HIGH_LOAD_FACTOR = 0.88
LIGHT_LOAD_FACTOR = 0.61


@dataclass(frozen=True)
class TestbedConfig:
    """Static description of the simulated testbed."""

    # Not a test class, despite the name (keeps pytest collection quiet).
    __test__ = False

    num_servers: int = 12
    workers_per_server: int = 32
    cores_per_server: int = 2
    backlog_capacity: int = 128
    abort_on_overflow: bool = True
    cpu_model: str = "processor-sharing"
    fabric_latency: float = 50e-6
    flow_idle_timeout: float = 60.0
    #: Size of the SRLB tier.  1 (the paper's platform) deploys a single
    #: load balancer advertising the VIP itself; 2+ deploys a
    #: :class:`~repro.core.lb_tier.LoadBalancerTier` behind an ECMP edge
    #: router, which is what the resilience experiments exercise.
    num_load_balancers: int = 1
    #: Flow-to-instance mapping of the ECMP edge (tier deployments only):
    #: ``"rendezvous"`` (consistent) or ``"modulo"`` (naive).
    ecmp_hash: str = "rendezvous"
    #: When positive, clients trickle each request upload over this many
    #: seconds (in ``request_chunks`` paced segments), stretching the
    #: window during which a flow depends on load-balancer steering
    #: state.  The resilience experiments use this to model long-lived
    #: flows; 0 keeps the paper's send-at-once behaviour.
    request_spread: float = 0.0
    request_chunks: int = 1
    #: Server-side ``RequestReadTimeout`` in seconds (0 disables it):
    #: a worker whose connection never delivers its request payload is
    #: reset after this long.  Long-lived-flow scenarios (request_spread
    #: > 0) need it so abandoned flows do not pin workers forever.
    request_timeout: float = 0.0
    #: Per-server CPU speed multipliers for heterogeneous fleets: server
    #: ``i`` executes CPU demand at ``server_speed_factors[i]`` times the
    #: nominal rate.  Empty (the default) means a homogeneous fleet at
    #: speed 1.0, the paper's platform.  When non-empty the tuple must
    #: name every server.
    server_speed_factors: Tuple[float, ...] = ()
    #: Client SYN retransmission: initial RTO in seconds (doubles per
    #: retransmit up to the cap, at most ``syn_retransmit_limit`` times).
    #: 0 (the default) disables retransmission — the pre-fault-plane
    #: behaviour, under which every existing golden was pinned.
    syn_retransmit_timeout: float = 0.0
    syn_retransmit_cap: float = 60.0
    syn_retransmit_limit: int = 6
    #: Per-attempt client deadline (0 disables): when it fires, the query
    #: is retried from scratch on a fresh source port, at most
    #: ``max_retries`` times before the client gives up.
    retry_timeout: float = 0.0
    max_retries: int = 0
    #: Server load-shedding high-water mark on the listen backlog (0
    #: disables): SYNs arriving at or above this depth are fast-RST'd
    #: before admission and counted as ``connections_shed``.
    backlog_shed_watermark: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_servers <= 0:
            raise ExperimentError(
                f"num_servers must be positive, got {self.num_servers!r}"
            )
        if self.num_load_balancers <= 0:
            raise ExperimentError(
                f"num_load_balancers must be positive, got {self.num_load_balancers!r}"
            )
        if self.ecmp_hash not in ("rendezvous", "modulo"):
            raise ExperimentError(
                f"ecmp_hash must be 'rendezvous' or 'modulo', got {self.ecmp_hash!r}"
            )
        if self.request_spread < 0:
            raise ExperimentError(
                f"request_spread must be non-negative, got {self.request_spread!r}"
            )
        if self.request_chunks <= 0:
            raise ExperimentError(
                f"request_chunks must be positive, got {self.request_chunks!r}"
            )
        if self.request_timeout < 0:
            raise ExperimentError(
                f"request_timeout must be non-negative, got {self.request_timeout!r}"
            )
        if self.workers_per_server <= 0:
            raise ExperimentError(
                f"workers_per_server must be positive, got {self.workers_per_server!r}"
            )
        if self.cores_per_server <= 0:
            raise ExperimentError(
                f"cores_per_server must be positive, got {self.cores_per_server!r}"
            )
        if self.backlog_capacity <= 0:
            raise ExperimentError(
                f"backlog_capacity must be positive, got {self.backlog_capacity!r}"
            )
        if self.syn_retransmit_timeout < 0:
            raise ExperimentError(
                "syn_retransmit_timeout must be non-negative, got "
                f"{self.syn_retransmit_timeout!r}"
            )
        if self.syn_retransmit_cap <= 0:
            raise ExperimentError(
                "syn_retransmit_cap must be positive, got "
                f"{self.syn_retransmit_cap!r}"
            )
        if self.syn_retransmit_limit < 0:
            raise ExperimentError(
                "syn_retransmit_limit must be non-negative, got "
                f"{self.syn_retransmit_limit!r}"
            )
        if self.retry_timeout < 0:
            raise ExperimentError(
                f"retry_timeout must be non-negative, got {self.retry_timeout!r}"
            )
        if self.max_retries < 0:
            raise ExperimentError(
                f"max_retries must be non-negative, got {self.max_retries!r}"
            )
        if not 0 <= self.backlog_shed_watermark <= self.backlog_capacity:
            raise ExperimentError(
                "backlog_shed_watermark must be in [0, backlog_capacity], got "
                f"{self.backlog_shed_watermark!r} with capacity "
                f"{self.backlog_capacity!r}"
            )
        if self.server_speed_factors:
            if len(self.server_speed_factors) != self.num_servers:
                raise ExperimentError(
                    f"server_speed_factors names {len(self.server_speed_factors)} "
                    f"servers but the fleet has {self.num_servers}"
                )
            for speed in self.server_speed_factors:
                if speed <= 0:
                    raise ExperimentError(
                        f"server speed factors must be positive, got {speed!r}"
                    )

    @property
    def total_cores(self) -> int:
        """Aggregate CPU capacity of the server fleet."""
        return self.num_servers * self.cores_per_server

    def speed_of(self, server_index: int) -> float:
        """CPU speed multiplier of one server (1.0 when homogeneous)."""
        if not self.server_speed_factors:
            return 1.0
        return self.server_speed_factors[server_index]

    @property
    def total_capacity(self) -> float:
        """Aggregate speed-weighted core capacity of the fleet.

        Equal to :attr:`total_cores` for homogeneous fleets; the
        saturation-rate calibration uses this so heterogeneous fleets
        normalise load factors against their true capacity.
        """
        if not self.server_speed_factors:
            return float(self.total_cores)
        return float(
            sum(self.cores_per_server * speed for speed in self.server_speed_factors)
        )

    @property
    def total_workers(self) -> int:
        """Aggregate worker-pool size of the server fleet."""
        return self.num_servers * self.workers_per_server

    def with_seed(self, seed: int) -> "TestbedConfig":
        """Copy of this configuration with a different RNG seed."""
        return replace(self, seed=seed)


@dataclass(frozen=True)
class PolicySpec:
    """A named load-balancing configuration (selection + acceptance).

    The paper's configurations:

    * ``RR`` — one random candidate, no Service Hunting choice (the
      baseline random load balancer);
    * ``SR4`` / ``SR8`` / ``SR16`` — two random candidates, static
      acceptance threshold c;
    * ``SRdyn`` — two random candidates, dynamic threshold.
    """

    name: str
    acceptance_policy: str
    num_candidates: int = 2
    selector: str = "random"

    def __post_init__(self) -> None:
        if not self.name:
            raise ExperimentError("policy spec needs a name")
        if self.num_candidates <= 0:
            raise ExperimentError(
                f"num_candidates must be positive, got {self.num_candidates!r}"
            )


def rr_policy() -> PolicySpec:
    """The paper's RR baseline: one random server, always accepted."""
    return PolicySpec(name="RR", acceptance_policy="always", num_candidates=1)


def sr_policy(threshold: int, num_candidates: int = 2) -> PolicySpec:
    """A static ``SRc`` configuration with the given threshold."""
    if threshold < 0:
        raise ExperimentError(f"threshold must be >= 0, got {threshold!r}")
    return PolicySpec(
        name=f"SR{threshold}",
        acceptance_policy=f"SR{threshold}",
        num_candidates=num_candidates,
    )


def srdyn_policy(num_candidates: int = 2) -> PolicySpec:
    """The dynamic ``SRdyn`` configuration."""
    return PolicySpec(
        name="SRdyn", acceptance_policy="SRdyn", num_candidates=num_candidates
    )


def paper_policy_suite() -> List[PolicySpec]:
    """The five configurations compared throughout the paper's evaluation."""
    return [rr_policy(), sr_policy(4), sr_policy(8), sr_policy(16), srdyn_policy()]


@dataclass(frozen=True)
class PoissonSweepConfig:
    """Configuration of the Poisson-workload experiments (Figures 2–5)."""

    testbed: TestbedConfig = field(default_factory=TestbedConfig)
    load_factors: Tuple[float, ...] = PAPER_LOAD_FACTORS
    num_queries: int = 20_000
    service_mean: float = 0.1
    policies: Tuple[PolicySpec, ...] = field(
        default_factory=lambda: tuple(paper_policy_suite())
    )
    saturation_rate: Optional[float] = None
    load_sample_interval: float = 0.5
    workload_seed: int = 12_345

    def __post_init__(self) -> None:
        if not self.load_factors:
            raise ExperimentError("at least one load factor is required")
        for load_factor in self.load_factors:
            if not 0 < load_factor:
                raise ExperimentError(
                    f"load factors must be positive, got {load_factor!r}"
                )
        if self.num_queries <= 0:
            raise ExperimentError(
                f"num_queries must be positive, got {self.num_queries!r}"
            )
        if self.service_mean <= 0:
            raise ExperimentError(
                f"service_mean must be positive, got {self.service_mean!r}"
            )
        if not self.policies:
            raise ExperimentError("at least one policy is required")

    def scaled(self, num_queries: int, load_factors: Optional[Sequence[float]] = None) -> "PoissonSweepConfig":
        """A cheaper copy of the configuration (for benchmarks and CI)."""
        return replace(
            self,
            num_queries=num_queries,
            load_factors=tuple(load_factors) if load_factors is not None else self.load_factors,
        )


@dataclass(frozen=True)
class WikipediaReplayConfig:
    """Configuration of the Wikipedia-replay experiments (Figures 6–8)."""

    testbed: TestbedConfig = field(default_factory=TestbedConfig)
    duration: float = 86_400.0
    replay_fraction: float = 0.5
    static_per_wiki: float = 1.0
    bin_width: float = 600.0
    policies: Tuple[PolicySpec, ...] = field(
        default_factory=lambda: (rr_policy(), sr_policy(4))
    )
    mean_wiki_rate: float = 85.0
    wiki_rate_amplitude: float = 30.0
    trough_hour: float = 8.0
    workload_seed: int = 54_321

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ExperimentError(f"duration must be positive, got {self.duration!r}")
        if not 0 < self.replay_fraction <= 1:
            raise ExperimentError(
                f"replay_fraction must be in (0, 1], got {self.replay_fraction!r}"
            )
        if self.bin_width <= 0:
            raise ExperimentError(
                f"bin_width must be positive, got {self.bin_width!r}"
            )
        if not self.policies:
            raise ExperimentError("at least one policy is required")

    def compressed(self, duration: float, bin_width: Optional[float] = None) -> "WikipediaReplayConfig":
        """Time-lapse copy: same diurnal shape, shorter wall-clock duration.

        The bin width is scaled proportionally by default so the figures
        keep the same number of bins as the paper's 144 ten-minute bins.
        """
        if bin_width is None:
            bin_width = self.bin_width * duration / self.duration
        return replace(self, duration=duration, bin_width=bin_width)


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change of the load-balancer tier during a run.

    ``at_fraction`` places the event relative to the workload's arrival
    phase (0.5 = halfway through the trace), so the same churn schedule
    is meaningful at any experiment scale.  ``instance`` names the
    instance to kill; ``None`` kills the alive instance with the largest
    flow table — the most steering state at risk (entries are not
    expired during a run, so this is cumulative, not live, state).
    """

    at_fraction: float
    action: str = "kill"
    instance: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0 < self.at_fraction < 1:
            raise ExperimentError(
                f"at_fraction must be in (0, 1), got {self.at_fraction!r}"
            )
        if self.action not in ("kill", "add"):
            raise ExperimentError(
                f"churn action must be 'kill' or 'add', got {self.action!r}"
            )


@dataclass(frozen=True)
class ResilienceConfig:
    """Configuration of the LB-churn resilience experiments.

    The experiment replays the same Poisson workload against a
    load-balancer *tier* under each candidate-selection scheme, applies
    the churn schedule mid-run, and measures how many in-flight flows
    break — the paper's §II-B resiliency claim, quantified.
    """

    testbed: TestbedConfig = field(
        default_factory=lambda: TestbedConfig(
            num_load_balancers=4,
            # Spread uploads keep flows steering-dependent for ~2 s, so
            # mid-run churn has in-flight flows to break; the read
            # timeout frees workers pinned by flows the churn broke.
            request_spread=2.0,
            request_chunks=5,
            request_timeout=5.0,
        )
    )
    load_factor: float = 0.6
    num_queries: int = 6_000
    service_mean: float = 0.1
    acceptance_policy: str = "SR8"
    num_candidates: int = 2
    selection_schemes: Tuple[str, ...] = ("random", "consistent-hash")
    churn: Tuple[ChurnEvent, ...] = (ChurnEvent(at_fraction=0.5),)
    workload_seed: int = 2_024

    def __post_init__(self) -> None:
        if self.testbed.num_load_balancers < 2:
            raise ExperimentError(
                "resilience experiments need a tier of at least 2 load "
                f"balancers, got {self.testbed.num_load_balancers!r}"
            )
        if not 0 < self.load_factor:
            raise ExperimentError(
                f"load_factor must be positive, got {self.load_factor!r}"
            )
        if self.num_queries <= 0:
            raise ExperimentError(
                f"num_queries must be positive, got {self.num_queries!r}"
            )
        if not self.selection_schemes:
            raise ExperimentError("at least one selection scheme is required")
        # Reject schedules that would kill the whole tier before the
        # simulation wastes minutes discovering it mid-run.
        alive = self.testbed.num_load_balancers
        for event in sorted(self.churn, key=lambda event: event.at_fraction):
            alive += 1 if event.action == "add" else -1
            if alive < 1:
                raise ExperimentError(
                    "churn schedule kills every load-balancer instance: "
                    f"{self.testbed.num_load_balancers} instances cannot "
                    f"absorb {len(self.churn)} events ending below 1 alive"
                )

    def scaled(self, num_queries: int) -> "ResilienceConfig":
        """A cheaper copy of the configuration (for tests and CI)."""
        return replace(self, num_queries=num_queries)

    def policy_for(self, scheme: str) -> PolicySpec:
        """The :class:`PolicySpec` running the tier under ``scheme``."""
        return PolicySpec(
            name=scheme,
            acceptance_policy=self.acceptance_policy,
            num_candidates=self.num_candidates,
            selector=scheme,
        )


@dataclass(frozen=True)
class FlashCrowdConfig:
    """Configuration of the flash-crowd scenario family.

    The workload is a step schedule of Poisson arrival rates over the
    paper's testbed: a baseline phase, a sudden overload spike (a flash
    crowd arriving), and a recovery phase back at the baseline rate.
    Every policy replays the same trace, so the comparison isolates how
    well the power-of-two-choices policies absorb the sudden overload
    (and how quickly response times drain back down afterwards).
    """

    testbed: TestbedConfig = field(default_factory=TestbedConfig)
    #: Load factors (relative to the analytic saturation rate) of the
    #: three phases.  The spike deliberately exceeds 1.0: the paper's
    #: Service Hunting claim is most interesting when the fleet is
    #: transiently oversubscribed.
    baseline_load: float = 0.5
    spike_load: float = 1.5
    #: Durations of the three phases, in seconds.
    baseline_duration: float = 40.0
    spike_duration: float = 15.0
    recovery_duration: float = 45.0
    service_mean: float = 0.1
    policies: Tuple[PolicySpec, ...] = field(
        default_factory=lambda: (rr_policy(), sr_policy(4), srdyn_policy())
    )
    #: Width of the time bins used by the per-bin figure series.
    bin_width: float = 5.0
    saturation_rate: Optional[float] = None
    workload_seed: int = 77_777

    def __post_init__(self) -> None:
        if self.baseline_load <= 0 or self.spike_load <= 0:
            raise ExperimentError(
                "flash-crowd load factors must be positive, got "
                f"baseline={self.baseline_load!r}, spike={self.spike_load!r}"
            )
        if self.spike_load <= self.baseline_load:
            raise ExperimentError(
                "the spike must exceed the baseline load, got "
                f"baseline={self.baseline_load!r} >= spike={self.spike_load!r}"
            )
        for name, duration in (
            ("baseline_duration", self.baseline_duration),
            ("spike_duration", self.spike_duration),
            ("recovery_duration", self.recovery_duration),
        ):
            if duration <= 0:
                raise ExperimentError(
                    f"{name} must be positive, got {duration!r}"
                )
        if self.service_mean <= 0:
            raise ExperimentError(
                f"service_mean must be positive, got {self.service_mean!r}"
            )
        if self.bin_width <= 0:
            raise ExperimentError(
                f"bin_width must be positive, got {self.bin_width!r}"
            )
        if not self.policies:
            raise ExperimentError("at least one policy is required")

    @property
    def total_duration(self) -> float:
        """Arrival-phase length of the generated trace, in seconds."""
        return self.baseline_duration + self.spike_duration + self.recovery_duration

    @property
    def spike_window(self) -> Tuple[float, float]:
        """``(start, end)`` of the overload phase, in trace time."""
        return (
            self.baseline_duration,
            self.baseline_duration + self.spike_duration,
        )

    def scaled(self, time_factor: float) -> "FlashCrowdConfig":
        """A copy with every phase duration multiplied by ``time_factor``."""
        if time_factor <= 0:
            raise ExperimentError(
                f"time_factor must be positive, got {time_factor!r}"
            )
        return replace(
            self,
            baseline_duration=self.baseline_duration * time_factor,
            spike_duration=self.spike_duration * time_factor,
            recovery_duration=self.recovery_duration * time_factor,
            bin_width=self.bin_width * time_factor,
        )


@dataclass(frozen=True)
class AutoscaleConfig:
    """Configuration of the autoscale scenario family.

    A diurnal (sinusoid-plus-noise) workload is replayed under several
    *provisioning modes* over the same testbed recipe:

    * ``static`` — the fleet is fixed at ``max_servers`` for the whole
      run (classic peak-sized over-provisioning; no control plane);
    * ``reactive`` — the fleet starts at ``min_servers`` and an
      :class:`~repro.control.autoscaler.Autoscaler` with the reactive
      threshold policy grows/shrinks it;
    * ``predictive`` — same, with the EWMA-slope forecasting policy.

    Load factors are normalised against the *maximum* fleet's analytic
    saturation rate, so ``mean_load``/``load_amplitude`` describe what
    fraction of the peak-sized fleet the day consumes; the comparison
    reports cost (capacity-seconds) against SLO (p99 response time).
    """

    # --- testbed recipe (per-server shape; the fleet size is elastic) ---
    workers_per_server: int = 32
    cores_per_server: int = 2
    backlog_capacity: int = 128
    num_load_balancers: int = 1
    min_servers: int = 4
    max_servers: int = 12
    acceptance_policy: str = "SR8"
    num_candidates: int = 2
    selector: str = "random"
    seed: int = 0

    # --- diurnal workload -------------------------------------------------
    #: Day-average load, as a fraction of the max fleet's saturation rate.
    mean_load: float = 0.5
    #: Peak-to-mean load swing (the trough is ``mean_load - load_amplitude``).
    load_amplitude: float = 0.3
    #: Length of one compressed day, in seconds.
    period: float = 240.0
    #: Total schedule length (may cover several periods).
    duration: float = 480.0
    #: Piecewise-constant steps the sinusoid is discretised into.
    num_steps: int = 96
    #: Relative std-dev of the per-step multiplicative rate noise.
    rate_noise: float = 0.05
    service_mean: float = 0.1
    saturation_rate: Optional[float] = None
    workload_seed: int = 424_242

    # --- control plane ----------------------------------------------------
    monitor_interval: float = 1.0
    ewma_time_constant: float = 5.0
    #: Smoothed busy-fraction watermarks of the scaling policies.  Note
    #: the scale: with 32 workers over 2 cores a server saturates its
    #: CPU long before its worker pool, so useful watermarks sit well
    #: below 1 (0.12 of 32 workers ≈ 4 busy threads ≈ ρ ≈ 0.8).
    scale_up_fraction: float = 0.12
    scale_down_fraction: float = 0.04
    #: Asymmetric action cooldowns: short for scale-ups (a climbing ramp
    #: needs servers ordered back-to-back), long for scale-downs (wait
    #: out the signal dilution the previous action caused).
    scale_up_cooldown: float = 4.0
    scale_down_cooldown: float = 15.0
    provisioning_delay: float = 8.0
    warmup_duration: float = 8.0
    warmup_speed: float = 0.5
    drain_check_interval: float = 0.5
    #: Forecast horizon of the predictive policy (≈ provisioning delay
    #: plus warm-up, so capacity lands when the forecast said so).
    prediction_horizon: float = 20.0
    #: τ of the predictive policy's slope EWMA — a control-plane clock
    #: like the others, so :meth:`scaled` compresses it too.
    slope_time_constant: float = 10.0

    # --- evaluation -------------------------------------------------------
    #: The p99 response-time SLO the comparison is judged against.
    slo_p99: float = 1.5
    modes: Tuple[str, ...] = ("static", "reactive", "predictive")

    def __post_init__(self) -> None:
        if self.min_servers < 1:
            raise ExperimentError(
                f"min_servers must be at least 1, got {self.min_servers!r}"
            )
        if self.max_servers < self.min_servers:
            raise ExperimentError(
                f"max_servers ({self.max_servers!r}) must be >= min_servers "
                f"({self.min_servers!r})"
            )
        if self.min_servers < self.num_candidates:
            # Candidate selection needs num_candidates distinct servers;
            # an elastic fleet scaled to its floor must still satisfy it,
            # so reject the config instead of crashing mid-run.
            raise ExperimentError(
                f"min_servers ({self.min_servers!r}) must be >= num_candidates "
                f"({self.num_candidates!r}): the scaled-down fleet must still "
                "support candidate selection"
            )
        if self.mean_load <= 0:
            raise ExperimentError(
                f"mean_load must be positive, got {self.mean_load!r}"
            )
        if not 0 <= self.load_amplitude <= self.mean_load:
            raise ExperimentError(
                f"load_amplitude must be in [0, mean_load], got "
                f"{self.load_amplitude!r} (mean_load {self.mean_load!r})"
            )
        if self.mean_load + self.load_amplitude > 1.0:
            raise ExperimentError(
                "the diurnal peak exceeds the maximum fleet's capacity: "
                f"mean_load + load_amplitude = "
                f"{self.mean_load + self.load_amplitude!r} > 1.0"
            )
        for name, value in (
            ("period", self.period),
            ("duration", self.duration),
            ("service_mean", self.service_mean),
            ("monitor_interval", self.monitor_interval),
            ("ewma_time_constant", self.ewma_time_constant),
            ("drain_check_interval", self.drain_check_interval),
            ("prediction_horizon", self.prediction_horizon),
            ("slope_time_constant", self.slope_time_constant),
            ("slo_p99", self.slo_p99),
        ):
            # Finiteness matters as much as the sign: an overflowed
            # time factor (duration=inf) would make the diurnal trace
            # generator draw arrivals forever.
            if not math.isfinite(value) or value <= 0:
                raise ExperimentError(
                    f"{name} must be positive and finite, got {value!r}"
                )
        if self.num_steps <= 0:
            raise ExperimentError(
                f"num_steps must be positive, got {self.num_steps!r}"
            )
        if self.rate_noise < 0:
            raise ExperimentError(
                f"rate_noise must be non-negative, got {self.rate_noise!r}"
            )
        if not 0 <= self.scale_down_fraction < self.scale_up_fraction <= 1:
            raise ExperimentError(
                "scaling watermarks must satisfy 0 <= down < up <= 1, got "
                f"down={self.scale_down_fraction!r} up={self.scale_up_fraction!r}"
            )
        for name, value in (
            ("scale_up_cooldown", self.scale_up_cooldown),
            ("scale_down_cooldown", self.scale_down_cooldown),
            ("provisioning_delay", self.provisioning_delay),
            ("warmup_duration", self.warmup_duration),
        ):
            if not math.isfinite(value) or value < 0:
                raise ExperimentError(
                    f"{name} must be non-negative and finite, got {value!r}"
                )
        if not 0 < self.warmup_speed <= 1:
            raise ExperimentError(
                f"warmup_speed must be in (0, 1], got {self.warmup_speed!r}"
            )
        if not self.modes:
            raise ExperimentError("at least one provisioning mode is required")
        for mode in self.modes:
            if mode not in ("static", "reactive", "predictive"):
                raise ExperimentError(
                    f"unknown provisioning mode {mode!r}: expected static, "
                    "reactive or predictive"
                )

    def initial_servers(self, mode: str) -> int:
        """Fleet size a mode starts with (static runs peak-sized)."""
        return self.max_servers if mode == "static" else self.min_servers

    def testbed_for(self, mode: str) -> TestbedConfig:
        """The testbed one provisioning mode starts from."""
        return TestbedConfig(
            num_servers=self.initial_servers(mode),
            workers_per_server=self.workers_per_server,
            cores_per_server=self.cores_per_server,
            backlog_capacity=self.backlog_capacity,
            num_load_balancers=self.num_load_balancers,
            seed=self.seed,
        )

    @property
    def max_testbed(self) -> TestbedConfig:
        """The peak-sized testbed load factors are normalised against."""
        return self.testbed_for("static")

    @property
    def policy(self) -> PolicySpec:
        """The Service Hunting policy every mode runs the fleet under."""
        return PolicySpec(
            name=self.acceptance_policy,
            acceptance_policy=self.acceptance_policy,
            num_candidates=self.num_candidates,
            selector=self.selector,
        )

    def scaled(self, time_factor: float) -> "AutoscaleConfig":
        """A copy with the whole day (and control-plane clocks) compressed."""
        if time_factor <= 0:
            raise ExperimentError(
                f"time_factor must be positive, got {time_factor!r}"
            )
        return replace(
            self,
            period=self.period * time_factor,
            duration=self.duration * time_factor,
            monitor_interval=self.monitor_interval * time_factor,
            ewma_time_constant=self.ewma_time_constant * time_factor,
            scale_up_cooldown=self.scale_up_cooldown * time_factor,
            scale_down_cooldown=self.scale_down_cooldown * time_factor,
            provisioning_delay=self.provisioning_delay * time_factor,
            warmup_duration=self.warmup_duration * time_factor,
            drain_check_interval=self.drain_check_interval * time_factor,
            prediction_horizon=self.prediction_horizon * time_factor,
            slope_time_constant=self.slope_time_constant * time_factor,
        )


@dataclass(frozen=True)
class HeterogeneousFleetConfig:
    """Configuration of the heterogeneous-fleet scenario family.

    The fleet is split into a *fast* tier and a *slow* tier of servers
    whose CPUs run at different speed multipliers (the cores-per-server
    count stays uniform, as does the worker pool).  The same Poisson
    workload — normalised against the fleet's speed-weighted capacity —
    is replayed under each policy; the scenario reports, next to the
    response-time comparison, how each policy shares the accepted
    queries between the tiers relative to the capacity each tier brings.
    This stresses Service Hunting's fairness: busy-thread thresholds see
    queue *length*, not server speed, so slow servers refuse later than
    they should and a bad policy overloads them.
    """

    num_fast: int = 4
    num_slow: int = 8
    fast_speed: float = 2.0
    slow_speed: float = 0.75
    workers_per_server: int = 32
    cores_per_server: int = 2
    backlog_capacity: int = 128
    seed: int = 0
    load_factors: Tuple[float, ...] = (0.85,)
    num_queries: int = 6_000
    service_mean: float = 0.1
    policies: Tuple[PolicySpec, ...] = field(
        default_factory=lambda: (rr_policy(), sr_policy(4), srdyn_policy())
    )
    saturation_rate: Optional[float] = None
    load_sample_interval: float = 0.5
    workload_seed: int = 24_242

    def __post_init__(self) -> None:
        if self.num_fast <= 0 or self.num_slow <= 0:
            raise ExperimentError(
                "a heterogeneous fleet needs both tiers populated, got "
                f"num_fast={self.num_fast!r}, num_slow={self.num_slow!r}"
            )
        if self.fast_speed <= self.slow_speed:
            raise ExperimentError(
                "the fast tier must be faster than the slow tier, got "
                f"fast_speed={self.fast_speed!r} <= slow_speed={self.slow_speed!r}"
            )
        if self.slow_speed <= 0:
            raise ExperimentError(
                f"slow_speed must be positive, got {self.slow_speed!r}"
            )
        if not self.load_factors:
            raise ExperimentError("at least one load factor is required")
        for load_factor in self.load_factors:
            if load_factor <= 0:
                raise ExperimentError(
                    f"load factors must be positive, got {load_factor!r}"
                )
        if self.num_queries <= 0:
            raise ExperimentError(
                f"num_queries must be positive, got {self.num_queries!r}"
            )
        if self.service_mean <= 0:
            raise ExperimentError(
                f"service_mean must be positive, got {self.service_mean!r}"
            )
        if not self.policies:
            raise ExperimentError("at least one policy is required")

    @property
    def num_servers(self) -> int:
        """Total fleet size (fast tier first, then slow tier)."""
        return self.num_fast + self.num_slow

    @property
    def testbed(self) -> TestbedConfig:
        """The mixed-speed testbed described by this configuration."""
        return TestbedConfig(
            num_servers=self.num_servers,
            workers_per_server=self.workers_per_server,
            cores_per_server=self.cores_per_server,
            backlog_capacity=self.backlog_capacity,
            server_speed_factors=(
                (self.fast_speed,) * self.num_fast
                + (self.slow_speed,) * self.num_slow
            ),
            seed=self.seed,
        )

    def fast_server_names(self) -> Tuple[str, ...]:
        """Node names of the fast tier (the builder numbers servers 0..N-1)."""
        return tuple(f"server-{index}" for index in range(self.num_fast))

    def scaled(self, num_queries: int) -> "HeterogeneousFleetConfig":
        """A cheaper copy of the configuration (for tests and CI)."""
        return replace(self, num_queries=num_queries)


@dataclass(frozen=True)
class HeavyTailConfig:
    """Configuration of the heavy-tailed session scenario family.

    A Poisson arrival stream mixes one-shot bounded-Pareto requests with
    keep-alive user sessions (one aggregated request per session whose
    demand sums a geometric-length series of lognormal per-request
    demands).  Arrivals are attributed to a large Zipf-distributed user
    population, and the client derives a stable source port per user so
    flow affinity repeats across sessions.  The same trace is replayed
    under each policy.
    """

    testbed: TestbedConfig = field(default_factory=TestbedConfig)
    load_factor: float = 0.7
    num_arrivals: int = 4_000
    heavy_fraction: float = 0.25
    pareto_alpha: float = 1.5
    pareto_lower: float = 0.02
    pareto_upper: float = 2.5
    request_median: float = 0.04
    request_sigma: float = 0.6
    mean_session_length: float = 4.0
    num_users: int = 200_000
    user_zipf: float = 1.3
    size_median: int = 16_000
    size_sigma: float = 1.0
    size_cap: int = 262_144
    policies: Tuple[PolicySpec, ...] = field(
        default_factory=lambda: (rr_policy(), sr_policy(4), srdyn_policy())
    )
    workload_seed: int = 86_420

    def __post_init__(self) -> None:
        if self.load_factor <= 0:
            raise ExperimentError(
                f"load_factor must be positive, got {self.load_factor!r}"
            )
        if self.num_arrivals <= 0:
            raise ExperimentError(
                f"num_arrivals must be positive, got {self.num_arrivals!r}"
            )
        if not 0 <= self.heavy_fraction <= 1:
            raise ExperimentError(
                f"heavy_fraction must be in [0, 1], got {self.heavy_fraction!r}"
            )
        if self.pareto_alpha <= 0 or self.pareto_lower <= 0:
            raise ExperimentError(
                "Pareto parameters must be positive, got "
                f"alpha={self.pareto_alpha!r}, lower={self.pareto_lower!r}"
            )
        if self.pareto_upper <= self.pareto_lower:
            raise ExperimentError(
                "Pareto upper bound must exceed the lower bound, got "
                f"[{self.pareto_lower!r}, {self.pareto_upper!r}]"
            )
        if self.request_median <= 0 or self.request_sigma < 0:
            raise ExperimentError(
                "invalid lognormal request model: "
                f"median={self.request_median!r}, sigma={self.request_sigma!r}"
            )
        if self.mean_session_length < 1:
            raise ExperimentError(
                "mean_session_length must be >= 1, got "
                f"{self.mean_session_length!r}"
            )
        if self.num_users <= 0:
            raise ExperimentError(
                f"num_users must be positive, got {self.num_users!r}"
            )
        if self.user_zipf <= 1:
            raise ExperimentError(
                f"user_zipf must be > 1, got {self.user_zipf!r}"
            )
        if not self.policies:
            raise ExperimentError("at least one policy is required")

    def scaled(self, num_arrivals: int) -> "HeavyTailConfig":
        """A cheaper copy of the configuration (for tests and CI)."""
        return replace(self, num_arrivals=num_arrivals)


@dataclass(frozen=True)
class AdversarialConfig:
    """Configuration of the adversarial-traffic scenario family.

    One legitimate Poisson workload is replayed against a load-balancer
    *tier* under each attack mode: a spoofed-source SYN flood, a
    hash-collision flood that concentrates on one ECMP bucket, and a
    gray failure (a server degraded, not killed, with a watchdog
    quarantining it through the server lifecycle).  ``baseline`` runs
    the same workload unmolested for comparison.
    """

    testbed: TestbedConfig = field(
        default_factory=lambda: TestbedConfig(
            num_servers=12,
            num_load_balancers=4,
            # Short flow-idle timeout so housekeeping can reap the flood's
            # flow-table entries in-run; the request timeout frees workers
            # pinned by half-open attack connections.
            flow_idle_timeout=5.0,
            request_timeout=2.0,
        )
    )
    load_factor: float = 0.55
    num_queries: int = 4_000
    service_mean: float = 0.05
    acceptance_policy: str = "SR8"
    num_candidates: int = 2
    modes: Tuple[str, ...] = (
        "baseline",
        "syn-flood",
        "hash-collision",
        "gray-failure",
    )
    #: Attack window, as fractions of the legitimate trace's duration.
    attack_start_fraction: float = 0.25
    attack_end_fraction: float = 0.65
    #: Flood intensity as a multiple of the legitimate arrival rate.
    flood_rate_factor: float = 3.0
    #: Spoofed source pool size (source churn) for the plain SYN flood.
    flood_sources: int = 32
    #: Number of distinct colliding 5-tuples the offline search finds.
    collision_flows: int = 256
    #: Index of the LB instance the collision flood concentrates on.
    collision_target: int = 0
    #: Gray failure: victim CPU speed multiplier and square-wave jitter.
    degraded_speed: float = 0.2
    jitter_amplitude: float = 0.3
    jitter_interval: float = 0.5
    #: Watchdog (quarantine signal) parameters.
    watchdog_interval: float = 0.5
    watchdog_slow_factor: float = 2.0
    #: Busy-thread floor below which a server can never be quarantined;
    #: keeps a lightly loaded fleet (median ~1) from tripping the
    #: detector on ordinary Poisson bursts.
    watchdog_min_busy: int = 5
    watchdog_consecutive: int = 3
    #: Whether quarantine drains the victim and provisions a replacement.
    quarantine: bool = True
    #: Flow-table housekeeping period on every LB instance.
    housekeeping_interval: float = 1.0
    workload_seed: int = 13_579

    _KNOWN_MODES = ("baseline", "syn-flood", "hash-collision", "gray-failure")

    def __post_init__(self) -> None:
        if self.testbed.num_load_balancers < 2:
            raise ExperimentError(
                "adversarial experiments need a tier of at least 2 load "
                f"balancers, got {self.testbed.num_load_balancers!r}"
            )
        if self.testbed.request_timeout <= 0:
            raise ExperimentError(
                "adversarial experiments need a positive request_timeout "
                "(otherwise half-open attack connections pin workers "
                "forever), got "
                f"{self.testbed.request_timeout!r}"
            )
        if self.load_factor <= 0:
            raise ExperimentError(
                f"load_factor must be positive, got {self.load_factor!r}"
            )
        if self.num_queries <= 0:
            raise ExperimentError(
                f"num_queries must be positive, got {self.num_queries!r}"
            )
        if self.service_mean <= 0:
            raise ExperimentError(
                f"service_mean must be positive, got {self.service_mean!r}"
            )
        if not self.modes:
            raise ExperimentError("at least one attack mode is required")
        for mode in self.modes:
            if mode not in self._KNOWN_MODES:
                raise ExperimentError(
                    f"unknown attack mode {mode!r}: expected one of "
                    f"{self._KNOWN_MODES}"
                )
        if not 0 < self.attack_start_fraction < self.attack_end_fraction <= 1:
            raise ExperimentError(
                "attack window must satisfy 0 < start < end <= 1, got "
                f"[{self.attack_start_fraction!r}, "
                f"{self.attack_end_fraction!r}]"
            )
        if self.flood_rate_factor <= 0:
            raise ExperimentError(
                f"flood_rate_factor must be positive, got "
                f"{self.flood_rate_factor!r}"
            )
        if self.flood_sources <= 0:
            raise ExperimentError(
                f"flood_sources must be positive, got {self.flood_sources!r}"
            )
        if self.collision_flows <= 0:
            raise ExperimentError(
                f"collision_flows must be positive, got "
                f"{self.collision_flows!r}"
            )
        if not 0 <= self.collision_target < self.testbed.num_load_balancers:
            raise ExperimentError(
                f"collision_target {self.collision_target!r} is out of "
                f"range for a tier of {self.testbed.num_load_balancers} "
                "instances"
            )
        if not 0 < self.degraded_speed < 1:
            raise ExperimentError(
                f"degraded_speed must be in (0, 1), got "
                f"{self.degraded_speed!r}"
            )
        if self.housekeeping_interval <= 0:
            raise ExperimentError(
                "housekeeping_interval must be positive, got "
                f"{self.housekeeping_interval!r}"
            )

    @property
    def policy(self) -> PolicySpec:
        """The Service Hunting policy every mode runs under."""
        return PolicySpec(
            name=self.acceptance_policy,
            acceptance_policy=self.acceptance_policy,
            num_candidates=self.num_candidates,
        )

    def scaled(self, num_queries: int) -> "AdversarialConfig":
        """A cheaper copy of the configuration (for tests and CI)."""
        return replace(self, num_queries=num_queries)


@dataclass(frozen=True)
class ScaleConfig:
    """Configuration of the partitioned million-client ``scale`` scenario.

    The scenario models one datacenter front end spreading an aggregate
    query stream over ``pods`` identical load-balancer/server pods via
    the pure ECMP hash (:func:`repro.net.ecmp.select_next_hop_name`).
    Each pod is an independent :class:`TestbedConfig`-shaped slice with
    its own simulator, so the run can be executed by
    :mod:`repro.sim.partition` on one process or many — bit-identically.

    ``testbed`` describes one pod, not the whole deployment; the
    deployment is ``pods`` copies of it behind the front-end stage.
    """

    testbed: TestbedConfig = field(default_factory=TestbedConfig)
    pods: int = 4
    #: Aggregate query count across every pod (the north-star scale runs
    #: use 1e6+); each pod receives the share the front-end hash deals it.
    num_queries: int = 1_000_000
    load_factor: float = 0.8
    service_mean: float = 0.02
    acceptance_policy: str = "SR8"
    num_candidates: int = 2
    #: Front-end ECMP hash over pods: ``rendezvous`` or ``modulo``.
    ecmp_hash: str = "rendezvous"
    #: Per-pod saturation rate override; analytic when ``None``.
    saturation_rate: Optional[float] = None
    workload_seed: int = 86_420

    def __post_init__(self) -> None:
        if self.pods < 1:
            raise ExperimentError(f"pods must be positive, got {self.pods!r}")
        if self.num_queries < self.pods:
            raise ExperimentError(
                f"num_queries ({self.num_queries!r}) must be at least the "
                f"pod count ({self.pods!r})"
            )
        if self.load_factor <= 0:
            raise ExperimentError(
                f"load_factor must be positive, got {self.load_factor!r}"
            )
        if self.service_mean <= 0:
            raise ExperimentError(
                f"service_mean must be positive, got {self.service_mean!r}"
            )
        if self.ecmp_hash not in ("rendezvous", "modulo"):
            raise ExperimentError(
                f"unknown ecmp_hash {self.ecmp_hash!r}: expected "
                "'rendezvous' or 'modulo'"
            )
        if self.saturation_rate is not None and self.saturation_rate <= 0:
            raise ExperimentError(
                "saturation_rate must be positive, got "
                f"{self.saturation_rate!r}"
            )

    @property
    def policy(self) -> PolicySpec:
        """The Service Hunting policy every pod runs under."""
        return PolicySpec(
            name=self.acceptance_policy,
            acceptance_policy=self.acceptance_policy,
            num_candidates=self.num_candidates,
        )

    def pod_names(self) -> Tuple[str, ...]:
        """Stable front-end next-hop names, one per pod."""
        return tuple(f"pod-{index}" for index in range(self.pods))

    def scaled(self, num_queries: int, pods: Optional[int] = None) -> "ScaleConfig":
        """A cheaper copy of the configuration (for tests and CI)."""
        return replace(
            self,
            num_queries=num_queries,
            pods=pods if pods is not None else self.pods,
        )

@dataclass(frozen=True)
class ChaosConfig:
    """Configuration of the fault-injection ``chaos`` scenario family.

    One legitimate Poisson workload is replayed against a 2-LB ECMP tier
    while :mod:`repro.net.faults` impairs the fabric: ``loss`` mixes
    i.i.d. loss, corruption-as-drop and Gilbert–Elliott bursts; ``flap``
    schedules link-down windows; ``jitter`` adds latency jitter plus
    bounded reordering.  ``baseline`` runs the same workload through a
    fully *disabled* fault pipeline — pinning that an installed-but-idle
    pipeline stays bit-identical to no pipeline at all.  The testbed
    arms the client's SYN retransmission and bounded retries and the
    servers' load-shedding watermark, so the cells measure recovery, not
    just damage.
    """

    testbed: TestbedConfig = field(
        default_factory=lambda: TestbedConfig(
            num_servers=12,
            num_load_balancers=2,
            # Reap flow-table entries orphaned by dropped packets in-run,
            # and free workers pinned by half-open connections whose
            # request payload was lost.
            flow_idle_timeout=5.0,
            request_timeout=2.0,
            # Client robustness: fast initial RTO (the simulated RTTs are
            # sub-millisecond), doubling to a 2 s cap, then bounded
            # full-connection retries on fresh source ports.
            syn_retransmit_timeout=0.2,
            syn_retransmit_cap=2.0,
            syn_retransmit_limit=4,
            retry_timeout=1.5,
            max_retries=3,
            # Shed just below the backlog capacity of 128.
            backlog_shed_watermark=112,
        )
    )
    load_factor: float = 0.6
    num_queries: int = 4_000
    service_mean: float = 0.05
    acceptance_policy: str = "SR8"
    num_candidates: int = 2
    modes: Tuple[str, ...] = ("baseline", "loss", "flap", "jitter")
    #: ``loss`` cell: i.i.d. loss and corruption rates, plus the
    #: Gilbert–Elliott burst process (enter/exit per packet, loss
    #: probability while in the bad state).
    loss_rate: float = 0.01
    corruption_rate: float = 0.001
    burst_enter: float = 0.0005
    burst_exit: float = 0.2
    burst_loss: float = 0.9
    #: ``flap`` cell: number of link-down windows and each one's length
    #: in seconds, spread evenly over the trace.
    flap_count: int = 2
    flap_down: float = 0.25
    #: ``jitter`` cell: exponential extra latency (mean/cap seconds) and
    #: bounded reordering (rate, hold-back window seconds).
    jitter_mean: float = 0.002
    jitter_cap: float = 0.02
    reorder_rate: float = 0.02
    reorder_window: float = 0.001
    workload_seed: int = 97_531

    _KNOWN_MODES = ("baseline", "loss", "flap", "jitter")

    def __post_init__(self) -> None:
        if self.testbed.num_load_balancers < 2:
            raise ExperimentError(
                "chaos experiments need a tier of at least 2 load "
                f"balancers, got {self.testbed.num_load_balancers!r}"
            )
        if self.load_factor <= 0:
            raise ExperimentError(
                f"load_factor must be positive, got {self.load_factor!r}"
            )
        if self.num_queries <= 0:
            raise ExperimentError(
                f"num_queries must be positive, got {self.num_queries!r}"
            )
        if self.service_mean <= 0:
            raise ExperimentError(
                f"service_mean must be positive, got {self.service_mean!r}"
            )
        if not self.modes:
            raise ExperimentError("at least one chaos mode is required")
        for mode in self.modes:
            if mode not in self._KNOWN_MODES:
                raise ExperimentError(
                    f"unknown chaos mode {mode!r}: expected one of "
                    f"{self._KNOWN_MODES}"
                )
        for name in (
            "loss_rate",
            "corruption_rate",
            "burst_enter",
            "burst_exit",
            "burst_loss",
            "reorder_rate",
        ):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ExperimentError(
                    f"{name} must be in [0, 1], got {value!r}"
                )
        if self.flap_count < 0:
            raise ExperimentError(
                f"flap_count must be non-negative, got {self.flap_count!r}"
            )
        if self.flap_down <= 0:
            raise ExperimentError(
                f"flap_down must be positive, got {self.flap_down!r}"
            )
        for name in ("jitter_mean", "jitter_cap", "reorder_window"):
            value = getattr(self, name)
            if value < 0:
                raise ExperimentError(
                    f"{name} must be non-negative, got {value!r}"
                )

    @property
    def policy(self) -> PolicySpec:
        """The Service Hunting policy every cell runs under."""
        return PolicySpec(
            name=self.acceptance_policy,
            acceptance_policy=self.acceptance_policy,
            num_candidates=self.num_candidates,
        )

    def scaled(self, num_queries: int) -> "ChaosConfig":
        """A cheaper copy of the configuration (for tests and CI)."""
        return replace(self, num_queries=num_queries)
