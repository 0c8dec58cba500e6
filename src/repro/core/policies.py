"""Connection-acceptance policies.

A connection-acceptance policy is the purely local decision function run
by a server's virtual router when a Service Hunting packet arrives with
more than one remaining candidate: *should this application instance
accept the new connection, or pass it to the next candidate?*

The paper defines two example policies (§III):

* :class:`StaticThresholdPolicy` (``SRc``) — accept iff fewer than ``c``
  worker threads are busy.  The second (last) candidate always accepts,
  which is enforced by the Service Hunting processor, not by the policy.
* :class:`DynamicThresholdPolicy` (``SRdyn``) — adapt ``c`` so that the
  local acceptance ratio stays near 1/2, measured over a fixed window of
  decisions (Algorithm 2).

The framework is explicitly policy-agnostic ("SRLB ... nor imposes any
load balancing policy"), so policies are plug-ins: subclass
:class:`ConnectionAcceptancePolicy`, or register a factory with
:func:`register_policy` to make it available by name to the experiment
harness and the command-line examples.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.agent import ApplicationAgent
from repro.errors import PolicyError


class ConnectionAcceptancePolicy(abc.ABC):
    """Decides whether the local application instance accepts a new flow.

    One policy instance is attached to one server: policies may keep
    local state (the dynamic policy does), and that state must not be
    shared across servers — the whole point of SRLB is that decisions
    are strictly local.
    """

    #: Short name used in reports and figure legends.
    name: str = "policy"

    @abc.abstractmethod
    def should_accept(self, agent: ApplicationAgent) -> bool:
        """Return ``True`` to accept the connection locally.

        Called only at *optional* decision points (two or more candidates
        remaining).  The forced accept of the final candidate never
        reaches the policy.
        """

    def notify_forced_accept(self, agent: ApplicationAgent) -> None:
        """Hook invoked when this server is forced to accept (last candidate).

        The default implementation ignores it; policies that track their
        acceptance ratio may override.  The paper's SRdyn does *not*
        count forced accepts in its window, so it keeps the default.
        """

    def reset(self) -> None:
        """Reset internal state (between experiment runs)."""

    def describe(self) -> str:
        """One-line description used in experiment manifests."""
        return self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class AlwaysAcceptPolicy(ConnectionAcceptancePolicy):
    """Accept every connection offered (equivalent to ``SRc`` with c = n+1).

    With this policy the first candidate in every SR list accepts, which
    degenerates to plain random load balancing.
    """

    name = "always-accept"

    def should_accept(self, agent: ApplicationAgent) -> bool:
        return True


class NeverAcceptPolicy(ConnectionAcceptancePolicy):
    """Refuse every optional offer (equivalent to ``SRc`` with c = 0).

    Every connection lands on the last candidate, which again degenerates
    to plain random load balancing (on the second choice).
    """

    name = "never-accept"

    def should_accept(self, agent: ApplicationAgent) -> bool:
        return False


class StaticThresholdPolicy(ConnectionAcceptancePolicy):
    """The paper's static policy ``SRc`` (Algorithm 1).

    Accept the connection iff fewer than ``threshold`` worker threads are
    busy.  ``threshold`` may range from 0 (never accept) to ``n + 1``
    (always accept), where ``n`` is the worker-pool size.
    """

    def __init__(self, threshold: int) -> None:
        if threshold < 0:
            raise PolicyError(f"SRc threshold must be >= 0, got {threshold!r}")
        self.threshold = threshold
        self.name = f"SR{threshold}"

    def should_accept(self, agent: ApplicationAgent) -> bool:
        return agent.busy_threads() < self.threshold

    def describe(self) -> str:
        return f"static threshold c={self.threshold}"


@dataclass
class DynamicPolicyState:
    """Observable state of a :class:`DynamicThresholdPolicy` (for tests/plots)."""

    threshold: int
    window_attempts: int
    window_accepted: int
    adjustments_up: int
    adjustments_down: int


class DynamicThresholdPolicy(ConnectionAcceptancePolicy):
    """The paper's dynamic policy ``SRdyn`` (Algorithm 2).

    Runs ``SRc`` with a threshold ``c`` that is re-evaluated every
    ``window_size`` optional decisions: if the fraction of accepted
    offers over the window is below ``low_watermark`` the threshold is
    incremented (the server is refusing too much), if it is above
    ``high_watermark`` the threshold is decremented.  The goal is to keep
    the local acceptance ratio near 1/2, which maximises the information
    carried by the accept/refuse choice.

    Parameters match Algorithm 2's defaults: initial ``c`` of 1, window
    of 50 queries, watermarks at 0.4 and 0.6.  ``max_threshold`` is the
    worker-pool size ``n``.
    """

    def __init__(
        self,
        initial_threshold: int = 1,
        window_size: int = 50,
        low_watermark: float = 0.4,
        high_watermark: float = 0.6,
        max_threshold: Optional[int] = None,
    ) -> None:
        if window_size <= 0:
            raise PolicyError(f"window size must be positive, got {window_size!r}")
        if not 0.0 <= low_watermark <= high_watermark <= 1.0:
            raise PolicyError(
                "watermarks must satisfy 0 <= low <= high <= 1, got "
                f"low={low_watermark!r} high={high_watermark!r}"
            )
        if initial_threshold < 0:
            raise PolicyError(
                f"initial threshold must be >= 0, got {initial_threshold!r}"
            )
        self.name = "SRdyn"
        self.initial_threshold = initial_threshold
        self.window_size = window_size
        self.low_watermark = low_watermark
        self.high_watermark = high_watermark
        self.max_threshold = max_threshold
        self.threshold = initial_threshold
        self._attempts = 0
        self._accepted = 0
        self.adjustments_up = 0
        self.adjustments_down = 0
        self.threshold_history = [initial_threshold]

    def should_accept(self, agent: ApplicationAgent) -> bool:
        self._attempts += 1
        if self._attempts >= self.window_size:
            self._adapt(agent)
        busy = agent.busy_threads()
        accept = busy < self.threshold
        if accept:
            self._accepted += 1
        return accept

    def _adapt(self, agent: ApplicationAgent) -> None:
        """End of window: adjust the threshold, then reset the window."""
        ratio = self._accepted / self.window_size
        upper_bound = (
            self.max_threshold
            if self.max_threshold is not None
            else agent.total_threads()
        )
        if ratio < self.low_watermark and self.threshold < upper_bound:
            self.threshold += 1
            self.adjustments_up += 1
        elif ratio > self.high_watermark and self.threshold > 0:
            self.threshold -= 1
            self.adjustments_down += 1
        self.threshold_history.append(self.threshold)
        self._attempts = 0
        self._accepted = 0

    def state(self) -> DynamicPolicyState:
        """Snapshot of the adaptive state."""
        return DynamicPolicyState(
            threshold=self.threshold,
            window_attempts=self._attempts,
            window_accepted=self._accepted,
            adjustments_up=self.adjustments_up,
            adjustments_down=self.adjustments_down,
        )

    def reset(self) -> None:
        self.threshold = self.initial_threshold
        self._attempts = 0
        self._accepted = 0
        self.adjustments_up = 0
        self.adjustments_down = 0
        self.threshold_history = [self.initial_threshold]

    def describe(self) -> str:
        return (
            f"dynamic threshold (window={self.window_size}, "
            f"watermarks=[{self.low_watermark}, {self.high_watermark}])"
        )


# ----------------------------------------------------------------------
# policy registry
# ----------------------------------------------------------------------
#: A policy factory builds a fresh policy instance for one server.
PolicyFactory = Callable[[], ConnectionAcceptancePolicy]

_REGISTRY: Dict[str, PolicyFactory] = {}


def register_policy(name: str, factory: PolicyFactory) -> None:
    """Register a policy factory under a symbolic name.

    The experiment harness instantiates one policy per server from the
    factory, guaranteeing state isolation between servers.
    """
    if not name:
        raise PolicyError("policy name must be non-empty")
    _REGISTRY[name] = factory


def make_policy(name: str) -> ConnectionAcceptancePolicy:
    """Instantiate a registered policy by name.

    Built-in names: ``always``, ``never``, ``SR<k>`` for any integer k
    (e.g. ``SR4``), and ``SRdyn``.
    """
    if name in _REGISTRY:
        return _REGISTRY[name]()
    if name == "always":
        return AlwaysAcceptPolicy()
    if name == "never":
        return NeverAcceptPolicy()
    if name == "SRdyn":
        return DynamicThresholdPolicy()
    if name.startswith("SR"):
        suffix = name[2:]
        if suffix.isdigit():
            return StaticThresholdPolicy(int(suffix))
    raise PolicyError(f"unknown connection-acceptance policy {name!r}")
