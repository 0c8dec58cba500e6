"""Experiment configuration dataclasses.

The configuration mirrors the paper's experimental platform (§IV): one
load balancer, twelve application servers with 2 cores and 32 Apache
workers each, a TCP backlog of 128, and the two workloads of §V and
§VI.  A field exists because something sets it: a flag, or a test,
benchmark or example that deviates from the default.  A value nothing
sets is a constant of the module that reads it (the paper's
abort-on-overflow backlog, the fabric latency, a family's fault or
workload mix), so ``tests/test_code_census.py`` reports a field that
no flag exposes and no constructor or ``replace`` call sets.

A field declared through :func:`~repro.experiments.params.param` is the
parameter table of its family: the ``--flag``, help text, default and
legal values written here are what the sub-command, the
``__post_init__`` range check and the ``docs/cli.md`` check all read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, List, Optional, Tuple

from repro.core.candidate_selection import check_selector_name
from repro.core.policies import make_policy
from repro.errors import ExperimentError, ReproError
from repro.experiments.params import (
    NON_NEGATIVE,
    POSITIVE,
    UNIT_INTERVAL,
    Bound,
    CheckedConfig,
    Param,
    param,
)
from repro.server.cpu import CPU_MODELS

#: The 24 load factors swept by the paper's Figure 2 (evenly spaced in (0, 1)).
PAPER_LOAD_FACTORS: Tuple[float, ...] = tuple(
    round(0.04 * step, 2) for step in range(1, 25)
)

#: The two load factors highlighted by Figures 3-5.
HIGH_LOAD_FACTOR = 0.88
LIGHT_LOAD_FACTOR = 0.61

#: Largest request id a testbed replays: its demand table holds eight
#: bytes per id up to the largest one seen.
MAX_REQUEST_ID = (1 << 24) - 1

#: A ``--queries`` count: a generated trace numbers its queries 1..N, so
#: N above :data:`MAX_REQUEST_ID` could not be replayed.
_QUERIES = Bound(f"in [1, {MAX_REQUEST_ID}]", lambda value: 1 <= value <= MAX_REQUEST_ID)

_OPEN_UNIT_INTERVAL = Bound("in (0, 1)", lambda value: 0 < value < 1)
_FRACTION = Bound("in (0, 1]", lambda value: 0 < value <= 1)
#: A ``workload_seed``: numpy's seed sequence takes no other value.
_SEED = Bound("a non-negative integer", lambda value: isinstance(value, int) and value >= 0)

_ECMP_HASHES = ("rendezvous", "modulo")


# The bound of a name field is the registry's own lookup, and the
# lookup's error is the message.  Platform build looks the name up again,
# inside every worker process; checking it where it enters a config
# makes a typo fail before one starts.
def _policy_name(field: str, name: str) -> None:
    make_policy(name)


def _selector_name(field: str, name: str) -> None:
    check_selector_name(name)


#: The per-server flags of a family whose fleet size is its own (``expose=``
#: of a ``testbed`` field): heterogeneous-fleet and autoscale.
SERVER_SHAPE = ("workers_per_server", "cores_per_server", "seed")

#: The flags every other family sizes its platform with (families add the
#: tier and client flags they use).
TESTBED_SHAPE = ("num_servers",) + SERVER_SHAPE


@dataclass(frozen=True)
class TestbedConfig(CheckedConfig):
    """Static description of the simulated testbed."""

    # Not a test class, despite the name (keeps pytest collection quiet).
    __test__ = False

    num_servers: int = param(12, "--servers", "number of servers (paper: 12)", POSITIVE)
    workers_per_server: int = param(32, "--workers", "workers per server (paper: 32)", POSITIVE)
    cores_per_server: int = param(2, "--cores", "cores per server (paper: 2)", POSITIVE)
    backlog_capacity: int = param(128, bound=POSITIVE)
    cpu_model: str = param("processor-sharing", choices=CPU_MODELS)
    flow_idle_timeout: float = param(
        60.0,
        "--flow-idle-timeout",
        "LB flow-table idle timeout (housekeeping reclaims after this)",
        POSITIVE,
    )
    #: Size of the SRLB tier.  1 (the paper's platform) deploys a single
    #: load balancer advertising the VIP itself; 2+ deploys a
    #: :class:`~repro.core.lb_tier.LoadBalancerTier` behind an ECMP edge
    #: router, which is what the resilience experiments exercise.
    num_load_balancers: int = param(
        1, "--lbs", "load-balancer instances in the tier (>= 2)", POSITIVE
    )
    #: Tier deployments only: ``"rendezvous"`` is consistent, ``"modulo"`` naive.
    ecmp_hash: str = param(
        "rendezvous",
        "--ecmp-hash",
        "flow-to-instance mapping of the ECMP edge",
        choices=_ECMP_HASHES,
    )
    #: When positive, clients trickle each request upload over this many
    #: seconds (in ``request_chunks`` paced segments), stretching the
    #: window during which a flow depends on load-balancer steering
    #: state.  The resilience experiments use this to model long-lived
    #: flows; 0 keeps the paper's send-at-once behaviour.
    request_spread: float = param(0.0, "--spread", "request upload spread in seconds", NON_NEGATIVE)
    request_chunks: int = param(1, "--chunks", "segments per spread upload", POSITIVE)
    #: Server-side ``RequestReadTimeout`` in seconds (0 disables it):
    #: a worker whose connection never delivers its request payload is
    #: reset after this long.  Long-lived-flow scenarios (request_spread
    #: > 0) need it so abandoned flows do not pin workers forever.
    request_timeout: float = param(
        0.0,
        "--request-timeout",
        "server-side request timeout freeing workers pinned by the flood",
        NON_NEGATIVE,
    )
    #: Per-server CPU speed multipliers for heterogeneous fleets: server
    #: ``i`` executes CPU demand at ``server_speed_factors[i]`` times the
    #: nominal rate.  Empty (the default) means a homogeneous fleet at
    #: speed 1.0, the paper's platform.  When non-empty the tuple must
    #: name every server.
    server_speed_factors: Tuple[float, ...] = ()
    #: Client SYN retransmission: the RTO doubles per retransmit up to
    #: the cap, at most ``syn_retransmit_limit`` times.  0 (the default)
    #: disables retransmission — the pre-fault-plane behaviour, under
    #: which every existing golden was pinned.
    syn_retransmit_timeout: float = param(
        0.0, "--syn-rto", "initial SYN retransmission timeout in seconds (0 disables)", NON_NEGATIVE
    )
    syn_retransmit_cap: float = param(
        60.0, "--syn-rto-cap", "upper bound on the exponentially backed-off SYN RTO", POSITIVE
    )
    syn_retransmit_limit: int = param(
        6, "--syn-rto-limit", "maximum SYN retransmissions per connection attempt", NON_NEGATIVE
    )
    #: 0 disables: when it fires, the query is retried from scratch, at
    #: most ``max_retries`` times before the client gives up.
    retry_timeout: float = param(
        0.0,
        "--retry-timeout",
        "per-attempt client deadline before retrying on a fresh port",
        NON_NEGATIVE,
    )
    max_retries: int = param(
        0, "--max-retries", "full-connection retries before the client gives up", NON_NEGATIVE
    )
    #: SYNs arriving at or above this listen-backlog depth are fast-RST'd
    #: before admission and counted as ``connections_shed``.
    backlog_shed_watermark: int = param(
        0, "--shed-watermark", "backlog depth above which servers fast-RST new SYNs (0 disables)"
    )
    seed: int = param(0, "--seed", "testbed RNG seed", NON_NEGATIVE)
    #: Observers of the run, which never change its results.  ``telemetry``
    #: attaches the streaming probe (:mod:`repro.telemetry.probe`), whose
    #: payload comes home as the run result's ``telemetry``;
    #: ``sample_load`` attaches the busy-worker sampler Figure 4 plots.
    #: Both stop at the run's horizon.
    telemetry: bool = False
    sample_load: bool = False

    def check_rules(self) -> None:
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
                POSITIVE("server speed factors", speed)

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
class PolicySpec(CheckedConfig):
    """A named load-balancing configuration (selection + acceptance).

    The paper's configurations:

    * ``RR`` — one random candidate, no Service Hunting choice (the
      baseline random load balancer);
    * ``SR4`` / ``SR8`` / ``SR16`` — two random candidates, static
      acceptance threshold c;
    * ``SRdyn`` — two random candidates, dynamic threshold.
    """

    name: str
    acceptance_policy: str = param(bound=_policy_name)
    num_candidates: int = param(2, bound=POSITIVE)
    selector: str = param("random", bound=_selector_name)

    def check_rules(self) -> None:
        if not self.name:
            raise ExperimentError("policy spec needs a name")


def rr_policy() -> PolicySpec:
    """The paper's RR baseline: one random server, always accepted."""
    return PolicySpec(name="RR", acceptance_policy="always", num_candidates=1)


def sr_policy(threshold: int) -> PolicySpec:
    """A static ``SRc`` configuration with the given threshold."""
    NON_NEGATIVE("threshold", threshold)
    return PolicySpec(name=f"SR{threshold}", acceptance_policy=f"SR{threshold}")


def srdyn_policy() -> PolicySpec:
    """The dynamic ``SRdyn`` configuration."""
    return PolicySpec(name="SRdyn", acceptance_policy="SRdyn")


def paper_policy_suite() -> List[PolicySpec]:
    """The five configurations compared throughout the paper's evaluation."""
    return [rr_policy(), sr_policy(4), sr_policy(8), sr_policy(16), srdyn_policy()]


def policy_spec_from_name(name: str) -> PolicySpec:
    """Translate a CLI policy name into a :class:`PolicySpec`."""
    if name == "RR":
        return rr_policy()
    if name == "SRdyn":
        return srdyn_policy()
    if name.startswith("SR") and name[2:].isdigit():
        return sr_policy(int(name[2:]))
    raise ReproError(
        f"unknown policy {name!r}: expected RR, SRdyn or SR<threshold> (e.g. SR4)"
    )


#: The comparison a shell-size sweep runs: the baseline, the paper's
#: best static threshold and the dynamic one.
_SHELL_POLICIES = (rr_policy(), sr_policy(4), srdyn_policy())

#: ``--policy`` of the families whose cells are policies.
_POLICY_FLAG = dict(
    flag="--policy",
    help="policy to run (RR, SR<k>, SRdyn)",
    convert=policy_spec_from_name,
)


#: Candidates per SYN of the families whose cells run one policy.
NUM_CANDIDATES = 2


class _OnePolicy:
    """A family whose every cell runs the fleet under one Service Hunting policy.

    ``acceptance_policy`` is a field where a flag sets it (``scale``),
    and the paper's best static threshold elsewhere.
    """

    acceptance_policy = "SR8"

    @property
    def policy(self) -> PolicySpec:
        """The Service Hunting policy every cell runs under."""
        return PolicySpec(
            name=self.acceptance_policy,
            acceptance_policy=self.acceptance_policy,
            num_candidates=NUM_CANDIDATES,
        )


def _lb_tier(field: str, testbed: TestbedConfig) -> None:
    """The bound of the ``testbed`` of a family that runs a load-balancer tier."""
    if testbed.num_load_balancers < 2:
        raise ExperimentError(
            f"{field} needs a tier of at least 2 load balancers, got "
            f"{testbed.num_load_balancers!r}"
        )


@dataclass(frozen=True)
class PoissonSweepConfig(CheckedConfig):
    """Configuration of the Poisson-workload experiments (Figures 2–5)."""

    testbed: TestbedConfig = param(default_factory=TestbedConfig, expose=TESTBED_SHAPE)
    load_factors: Tuple[float, ...] = param(
        PAPER_LOAD_FACTORS, "--rho", "load factor", POSITIVE, cli_default=(HIGH_LOAD_FACTOR,)
    )
    num_queries: int = param(20_000, "--queries", "queries per run", _QUERIES, cli_default=3_000)
    service_mean: float = param(
        0.1, "--service-mean", "mean CPU demand per query, seconds", POSITIVE
    )
    policies: Tuple[PolicySpec, ...] = param(
        tuple(paper_policy_suite()), cli_default=_SHELL_POLICIES, **_POLICY_FLAG
    )
    workload_seed: int = param(12_345, bound=_SEED)

    @property
    def fleet(self) -> TestbedConfig:
        """The testbed every cell builds."""
        return self.testbed


@dataclass(frozen=True)
class WikipediaReplayConfig(CheckedConfig):
    """Configuration of the Wikipedia-replay experiments (Figures 6–8)."""

    testbed: TestbedConfig = param(default_factory=TestbedConfig, expose=TESTBED_SHAPE)
    duration: float = param(
        86_400.0, "--duration", "compressed day length in seconds", POSITIVE, cli_default=480.0
    )
    replay_fraction: float = param(
        0.5, "--replay-fraction", "fraction of the full trace replayed", _FRACTION
    )
    static_per_wiki: float = param(
        1.0, "--static-per-wiki", "static requests per wiki query", NON_NEGATIVE, cli_default=0.5
    )
    bin_width: float = param(600.0, bound=POSITIVE)
    policies: Tuple[PolicySpec, ...] = param((rr_policy(), sr_policy(4)))
    workload_seed: int = param(54_321, bound=_SEED)

    def compressed(self, duration: float) -> "WikipediaReplayConfig":
        """Time-lapse copy: same diurnal shape, shorter wall-clock duration.

        The bin width is scaled proportionally so the figures keep the
        same number of bins as the paper's 144 ten-minute bins.
        """
        return replace(
            self, duration=duration, bin_width=self.bin_width * duration / self.duration
        )


@dataclass(frozen=True)
class ChurnEvent(CheckedConfig):
    """One membership change of the load-balancer tier during a run.

    ``at_fraction`` places the event relative to the workload's arrival
    phase (0.5 = halfway through the trace), so the same churn schedule
    is meaningful at any experiment scale.  ``instance`` names the
    instance to kill; ``None`` kills the alive instance with the largest
    flow table — the most steering state at risk (entries are not
    expired during a run, so this is cumulative, not live, state).
    """

    at_fraction: float = param(bound=_OPEN_UNIT_INTERVAL)
    action: str = param("kill", choices=("kill", "add"))
    instance: Optional[str] = None


@dataclass(frozen=True)
class ResilienceConfig(CheckedConfig):
    """Configuration of the LB-churn resilience experiments.

    The experiment replays the same Poisson workload against a
    load-balancer *tier* under each candidate-selection scheme, applies
    the churn schedule mid-run, and measures how many in-flight flows
    break — the paper's §II-B resiliency claim, quantified.
    """

    testbed: TestbedConfig = param(
        default_factory=lambda: TestbedConfig(
            num_load_balancers=4,
            # Spread uploads keep flows steering-dependent for ~2 s, so
            # mid-run churn has in-flight flows to break; the read
            # timeout frees workers pinned by flows the churn broke.
            request_spread=2.0,
            request_chunks=5,
            request_timeout=5.0,
        ),
        expose=TESTBED_SHAPE
        + ("num_load_balancers", "ecmp_hash", "request_spread", "request_chunks"),
        bound=_lb_tier,
    )
    load_factor: float = param(0.6, "--rho", "load factor", POSITIVE)
    num_queries: int = param(6_000, "--queries", "queries in the run", _QUERIES, cli_default=4_000)
    service_mean: float = param(0.1, bound=POSITIVE)
    acceptance_policy: str = param(
        "SR8", "--policy", "acceptance policy on the servers", _policy_name
    )
    num_candidates: int = 2
    selection_schemes: Tuple[str, ...] = param(
        ("random", "consistent-hash"), "--scheme", "selection scheme", _selector_name
    )
    churn: Tuple[ChurnEvent, ...] = (ChurnEvent(at_fraction=0.5),)
    workload_seed: int = param(2_024, bound=_SEED)

    #: Flags that are not fields: ``ResilienceScenario.config_from_flags``
    #: folds them into ``churn``.
    cli_flags: ClassVar[Tuple[Param, ...]] = (
        Param(
            "--kill-at",
            "kill one instance at this fraction of the run; repeatable; default 0.5",
            kind=float,
            repeat=True,
        ),
        Param(
            "--add-at",
            "add one instance at this fraction of the run; repeatable",
            kind=float,
            repeat=True,
        ),
    )

    def check_rules(self) -> None:
        if "random" in self.selection_schemes and self.num_candidates < 2:
            raise ExperimentError("resilience runs need at least 2 candidates")
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

    def policy_for(self, scheme: str) -> PolicySpec:
        """The :class:`PolicySpec` running the tier under ``scheme``."""
        return PolicySpec(
            name=scheme,
            acceptance_policy=self.acceptance_policy,
            num_candidates=self.num_candidates,
            selector=scheme,
        )


@dataclass(frozen=True)
class FlashCrowdConfig(CheckedConfig):
    """Configuration of the flash-crowd scenario family.

    The workload is a step schedule of Poisson arrival rates over the
    paper's testbed: a baseline phase, a sudden overload spike (a flash
    crowd arriving), and a recovery phase back at the baseline rate.
    Every policy replays the same trace, so the comparison isolates how
    well the power-of-two-choices policies absorb the sudden overload
    (and how quickly response times drain back down afterwards).
    """

    testbed: TestbedConfig = param(default_factory=TestbedConfig, expose=TESTBED_SHAPE)
    #: Load factors are relative to the analytic saturation rate.  The
    #: spike deliberately exceeds 1.0: the paper's Service Hunting claim
    #: is most interesting when the fleet is transiently oversubscribed.
    baseline_load: float = param(0.5, "--baseline-rho", "baseline load factor", POSITIVE)
    spike_load: float = param(1.5, "--spike-rho", "load factor during the spike", POSITIVE)
    baseline_duration: float = param(
        40.0, "--baseline-duration", "baseline phase, seconds", POSITIVE
    )
    spike_duration: float = param(15.0, "--spike-duration", "spike phase, seconds", POSITIVE)
    recovery_duration: float = param(
        45.0, "--recovery-duration", "recovery phase, seconds", POSITIVE
    )
    policies: Tuple[PolicySpec, ...] = param(_SHELL_POLICIES, **_POLICY_FLAG)
    bin_width: float = param(5.0, "--bin-width", "figure time-bin width, seconds", POSITIVE)
    workload_seed: int = param(77_777, bound=_SEED)

    def check_rules(self) -> None:
        if self.spike_load <= self.baseline_load:
            raise ExperimentError(
                "the spike must exceed the baseline load, got "
                f"baseline={self.baseline_load!r} >= spike={self.spike_load!r}"
            )

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
        POSITIVE("time_factor", time_factor)
        return replace(
            self,
            baseline_duration=self.baseline_duration * time_factor,
            spike_duration=self.spike_duration * time_factor,
            recovery_duration=self.recovery_duration * time_factor,
            bin_width=self.bin_width * time_factor,
        )


@dataclass(frozen=True)
class AutoscaleConfig(_OnePolicy, CheckedConfig):
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

    # --- testbed recipe (its server count is ignored: the fleet is elastic) ---
    testbed: TestbedConfig = param(default_factory=TestbedConfig, expose=SERVER_SHAPE)
    min_servers: int = param(4, "--min-servers", "elastic fleet floor", POSITIVE)
    max_servers: int = param(
        12, "--max-servers", "elastic fleet ceiling (and the static fleet's size)"
    )

    # --- diurnal workload -------------------------------------------------
    mean_load: float = param(
        0.5, "--mean-load", "day-average load as a fraction of the max fleet's capacity", POSITIVE
    )
    #: The trough is ``mean_load - load_amplitude``.
    load_amplitude: float = param(
        0.3, "--load-amplitude", "peak-to-mean swing of the diurnal sinusoid", NON_NEGATIVE
    )
    period: float = param(240.0, "--period", "compressed day length, seconds", POSITIVE)
    #: May cover several periods.
    duration: float = param(480.0, "--duration", "total schedule length, seconds", POSITIVE)
    #: Piecewise-constant steps the sinusoid is discretised into.
    num_steps: int = param(96, bound=POSITIVE)
    #: Relative std-dev of the per-step multiplicative rate noise.
    rate_noise: float = param(0.05, bound=NON_NEGATIVE)
    workload_seed: int = param(424_242, bound=_SEED)

    # --- control plane ----------------------------------------------------
    monitor_interval: float = param(1.0, bound=POSITIVE)
    ewma_time_constant: float = param(5.0, bound=POSITIVE)
    #: Smoothed busy-fraction watermarks of the scaling policies.  Note
    #: the scale: with 32 workers over 2 cores a server saturates its
    #: CPU long before its worker pool, so useful watermarks sit well
    #: below 1 (0.12 of 32 workers ≈ 4 busy threads ≈ ρ ≈ 0.8).
    scale_up_fraction: float = 0.12
    scale_down_fraction: float = 0.04
    #: Asymmetric action cooldowns: short for scale-ups (a climbing ramp
    #: needs servers ordered back-to-back), long for scale-downs (wait
    #: out the signal dilution the previous action caused).
    scale_up_cooldown: float = param(4.0, bound=NON_NEGATIVE)
    scale_down_cooldown: float = param(15.0, bound=NON_NEGATIVE)
    provisioning_delay: float = param(8.0, bound=NON_NEGATIVE)
    warmup_duration: float = param(8.0, bound=NON_NEGATIVE)
    drain_check_interval: float = param(0.5, bound=POSITIVE)
    #: Forecast horizon of the predictive policy (≈ provisioning delay
    #: plus warm-up, so capacity lands when the forecast said so).
    prediction_horizon: float = param(20.0, bound=POSITIVE)
    #: τ of the predictive policy's slope EWMA — a control-plane clock
    #: like the others, so :meth:`scaled` compresses it too.
    slope_time_constant: float = param(10.0, bound=POSITIVE)

    # --- evaluation -------------------------------------------------------
    #: The comparison is judged against this SLO.
    slo_p99: float = param(1.5, "--slo-p99", "p99 response-time target, seconds", POSITIVE)
    modes: Tuple[str, ...] = param(
        ("static", "reactive", "predictive"),
        "--mode",
        "provisioning mode",
        choices=("static", "reactive", "predictive"),
    )

    #: A flag that is not a field: ``AutoscaleScenario.config_from_flags``
    #: applies it through :meth:`scaled`.
    cli_flags: ClassVar[Tuple[Param, ...]] = (
        Param(
            "--time-factor",
            "compress the day and every control-plane clock by this factor",
            kind=float,
            default=1.0,
        ),
    )

    def check_rules(self) -> None:
        if self.max_servers < self.min_servers:
            raise ExperimentError(
                f"max_servers ({self.max_servers!r}) must be >= min_servers "
                f"({self.min_servers!r})"
            )
        if self.min_servers < NUM_CANDIDATES:
            # Candidate selection needs NUM_CANDIDATES distinct servers;
            # an elastic fleet scaled to its floor must still satisfy it,
            # so reject the config instead of crashing mid-run.
            raise ExperimentError(
                f"min_servers ({self.min_servers!r}) must be >= num_candidates "
                f"({NUM_CANDIDATES!r}): the scaled-down fleet must still "
                "support candidate selection"
            )
        if self.load_amplitude > self.mean_load:
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
        if not 0 <= self.scale_down_fraction < self.scale_up_fraction <= 1:
            raise ExperimentError(
                "scaling watermarks must satisfy 0 <= down < up <= 1, got "
                f"down={self.scale_down_fraction!r} up={self.scale_up_fraction!r}"
            )

    def initial_servers(self, mode: str) -> int:
        """Fleet size a mode starts with (static runs peak-sized)."""
        return self.max_servers if mode == "static" else self.min_servers

    def testbed_for(self, mode: str) -> TestbedConfig:
        """The testbed one provisioning mode starts from."""
        return replace(self.testbed, num_servers=self.initial_servers(mode))

    @property
    def max_testbed(self) -> TestbedConfig:
        """The peak-sized testbed load factors are normalised against."""
        return self.testbed_for("static")

    def scaled(self, time_factor: float) -> "AutoscaleConfig":
        """A copy with the whole day (and control-plane clocks) compressed."""
        POSITIVE("time_factor", time_factor)
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
class HeterogeneousFleetConfig(CheckedConfig):
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

    num_fast: int = param(4, "--fast", "servers in the fast tier", POSITIVE)
    num_slow: int = param(8, "--slow", "servers in the slow tier", POSITIVE)
    fast_speed: float = param(2.0, "--fast-speed", "fast-tier CPU speed multiplier", POSITIVE)
    slow_speed: float = param(0.75, "--slow-speed", "slow-tier CPU speed multiplier", POSITIVE)
    #: The per-server shape; :attr:`fleet` sizes it and sets the speeds.
    testbed: TestbedConfig = param(default_factory=TestbedConfig, expose=SERVER_SHAPE)
    load_factors: Tuple[float, ...] = param((0.85,), "--rho", "load factor", POSITIVE)
    num_queries: int = param(6_000, "--queries", "queries per run", _QUERIES, cli_default=4_000)
    policies: Tuple[PolicySpec, ...] = param(_SHELL_POLICIES, **_POLICY_FLAG)
    workload_seed: int = param(24_242, bound=_SEED)
    #: Mean CPU demand per query, seconds, at nominal server speed.
    service_mean: ClassVar[float] = 0.1

    def check_rules(self) -> None:
        if self.fast_speed <= self.slow_speed:
            raise ExperimentError(
                "the fast tier must be faster than the slow tier, got "
                f"fast_speed={self.fast_speed!r} <= slow_speed={self.slow_speed!r}"
            )

    @property
    def num_servers(self) -> int:
        """Total fleet size (fast tier first, then slow tier)."""
        return self.num_fast + self.num_slow

    @property
    def fleet(self) -> TestbedConfig:
        """The mixed-speed testbed described by this configuration."""
        return replace(
            self.testbed,
            num_servers=self.num_servers,
            server_speed_factors=(
                (self.fast_speed,) * self.num_fast
                + (self.slow_speed,) * self.num_slow
            ),
        )

    def fast_server_names(self) -> Tuple[str, ...]:
        """Node names of the fast tier (the builder numbers servers 0..N-1)."""
        return tuple(f"server-{index}" for index in range(self.num_fast))


@dataclass(frozen=True)
class HeavyTailConfig(CheckedConfig):
    """Configuration of the heavy-tailed session scenario family.

    A Poisson arrival stream mixes one-shot bounded-Pareto requests with
    keep-alive user sessions (one aggregated request per session whose
    demand sums a geometric-length series of lognormal per-request
    demands).  Arrivals are attributed to a large Zipf-distributed user
    population, and the client derives a stable source port per user so
    flow affinity repeats across sessions.  The same trace is replayed
    under each policy.
    """

    testbed: TestbedConfig = param(default_factory=TestbedConfig, expose=TESTBED_SHAPE)
    load_factor: float = param(0.7, "--rho", "offered load over fleet capacity", POSITIVE)
    num_arrivals: int = param(4_000, "--arrivals", "arrivals (sessions + one-shots)", POSITIVE)
    heavy_fraction: float = param(
        0.25,
        "--heavy-fraction",
        "probability an arrival is a one-shot bounded-Pareto request",
        UNIT_INTERVAL,
    )
    mean_session_length: float = param(
        4.0,
        flag="--session-length",
        help="mean keep-alive requests per session (geometric)",
        bound=Bound(">= 1", lambda value: value >= 1),
    )
    num_users: int = param(200_000, "--users", "simulated user population size", POSITIVE)
    user_zipf: float = param(
        1.3,
        flag="--user-zipf",
        help="Zipf exponent of user popularity (> 1)",
        bound=Bound("> 1", lambda value: value > 1),
    )
    policies: Tuple[PolicySpec, ...] = param(_SHELL_POLICIES, **_POLICY_FLAG)
    workload_seed: int = param(86_420, bound=_SEED)


@dataclass(frozen=True)
class AdversarialConfig(_OnePolicy, CheckedConfig):
    """Configuration of the adversarial-traffic scenario family.

    One legitimate Poisson workload is replayed against a load-balancer
    *tier* under each attack mode: a spoofed-source SYN flood, a
    hash-collision flood that concentrates on one ECMP bucket, and a
    gray failure (a server degraded, not killed, with a watchdog
    quarantining it through the server lifecycle).  ``baseline`` runs
    the same workload unmolested for comparison.
    """

    testbed: TestbedConfig = param(
        default_factory=lambda: TestbedConfig(
            num_servers=12,
            num_load_balancers=4,
            # Short flow-idle timeout so housekeeping can reap the flood's
            # flow-table entries in-run; the request timeout frees workers
            # pinned by half-open attack connections.
            flow_idle_timeout=5.0,
            request_timeout=2.0,
        ),
        expose=TESTBED_SHAPE
        + ("num_load_balancers", "flow_idle_timeout", "request_timeout"),
        bound=_lb_tier,
    )
    load_factor: float = param(0.55, "--rho", "legitimate load factor", POSITIVE)
    num_queries: int = param(4_000, "--queries", "legitimate queries", _QUERIES)
    service_mean: float = param(0.05, "--service-mean", "mean service demand, seconds", POSITIVE)
    modes: Tuple[str, ...] = param(
        ("baseline", "syn-flood", "hash-collision", "gray-failure"),
        "--mode",
        "attack mode to run",
        choices=("baseline", "syn-flood", "hash-collision", "gray-failure"),
    )
    flood_rate_factor: float = param(
        3.0, "--flood-rate-factor", "flood intensity as a multiple of the legitimate rate", POSITIVE
    )
    flood_sources: int = param(
        32, "--flood-sources", "spoofed source pool size (source churn)", POSITIVE
    )
    collision_flows: int = param(
        256, "--collision-flows", "distinct colliding 5-tuples the offline search finds", POSITIVE
    )
    collision_target: int = param(
        0, "--collision-target", "index of the LB instance the collision flood concentrates on"
    )
    degraded_speed: float = param(
        0.2,
        "--degraded-speed",
        "gray-failure victim CPU speed multiplier (0, 1)",
        _OPEN_UNIT_INTERVAL,
    )
    #: Watchdog (quarantine signal) period and strikes to quarantine.
    watchdog_interval: float = 0.5
    watchdog_consecutive: int = 3
    workload_seed: int = param(13_579, bound=_SEED)

    def check_rules(self) -> None:
        if self.testbed.request_timeout <= 0:
            raise ExperimentError(
                "adversarial experiments need a positive request_timeout "
                "(otherwise half-open attack connections pin workers "
                "forever), got "
                f"{self.testbed.request_timeout!r}"
            )
        if not 0 <= self.collision_target < self.testbed.num_load_balancers:
            raise ExperimentError(
                f"collision_target {self.collision_target!r} is out of "
                f"range for a tier of {self.testbed.num_load_balancers} "
                "instances"
            )


@dataclass(frozen=True)
class ScaleConfig(_OnePolicy, CheckedConfig):
    """Configuration of the million-client ``scale`` scenario.

    The scenario models one datacenter front end spreading an aggregate
    query stream over ``pods`` identical load-balancer/server pods via
    the pure ECMP hash (:func:`repro.net.ecmp.select_next_hop_name`).
    Each pod is an independent :class:`TestbedConfig`-shaped slice with
    its own simulator — a scenario cell — so the run can be executed on
    one process or many, bit-identically.

    ``testbed`` describes one pod, not the whole deployment; the
    deployment is ``pods`` copies of it behind the front-end stage.
    """

    testbed: TestbedConfig = param(default_factory=TestbedConfig, expose=TESTBED_SHAPE)
    pods: int = param(
        4, "--pods", "identical LB/server pods the front-end ECMP stage shards over", POSITIVE
    )
    #: The north-star scale runs use 1e6+; each pod receives the share
    #: the front-end hash deals it.
    num_queries: int = param(
        1_000_000, "--queries", "aggregate queries across the whole deployment", _QUERIES
    )
    load_factor: float = param(0.8, "--rho", "load factor per pod", POSITIVE)
    service_mean: float = param(0.02, "--service-mean", "mean service demand, seconds", POSITIVE)
    acceptance_policy: str = param(
        "SR8", "--policy", "acceptance policy on the servers", _policy_name
    )
    ecmp_hash: str = param(
        "rendezvous",
        "--ecmp-hash",
        "flow-to-pod mapping of the modeled front-end ECMP stage",
        choices=_ECMP_HASHES,
    )
    workload_seed: int = param(86_420, bound=_SEED)

    def check_rules(self) -> None:
        if self.num_queries < self.pods:
            raise ExperimentError(
                f"num_queries ({self.num_queries!r}) must be at least the "
                f"pod count ({self.pods!r})"
            )

    def pod_names(self) -> Tuple[str, ...]:
        """Stable front-end next-hop names, one per pod."""
        return tuple(f"pod-{index}" for index in range(self.pods))


@dataclass(frozen=True)
class ChaosConfig(_OnePolicy, CheckedConfig):
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

    testbed: TestbedConfig = param(
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
        ),
        expose=TESTBED_SHAPE
        + (
            "num_load_balancers",
            "syn_retransmit_timeout",
            "syn_retransmit_cap",
            "syn_retransmit_limit",
            "retry_timeout",
            "max_retries",
            "backlog_shed_watermark",
        ),
        bound=_lb_tier,
    )
    load_factor: float = param(0.6, "--rho", "legitimate load factor", POSITIVE)
    num_queries: int = param(4_000, "--queries", "legitimate queries", _QUERIES)
    service_mean: float = param(0.05, "--service-mean", "mean service demand, seconds", POSITIVE)
    modes: Tuple[str, ...] = param(
        ("baseline", "loss", "flap", "jitter"),
        "--mode",
        "impairment cell to run",
        choices=("baseline", "loss", "flap", "jitter"),
    )
    loss_rate: float = param(
        0.01, "--loss-rate", "i.i.d. packet loss probability of the loss cell", UNIT_INTERVAL
    )
    #: The windows are spread evenly over the trace.
    flap_count: int = param(
        2, "--flap-count", "scheduled link-down windows of the flap cell", NON_NEGATIVE
    )
    flap_down: float = param(
        0.25, "--flap-down", "length of each link-down window in seconds", POSITIVE
    )
    jitter_mean: float = param(
        0.002,
        "--jitter-mean",
        "mean exponential extra latency (s) of the jitter cell",
        NON_NEGATIVE,
    )
    workload_seed: int = param(97_531, bound=_SEED)

