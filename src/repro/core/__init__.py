"""SRLB core: the paper's primary contribution.

This package contains the load balancer (Segment Routing header
insertion and flow steering), the Service Hunting decision engine run by
each server's virtual router, the connection-acceptance policies (the
paper's ``SRc`` and ``SRdyn`` plus trivial baselines), the candidate
selection schemes (random power-of-d-choices, round-robin, consistent
hashing) and the supporting flow table, application agent and Maglev
consistent-hashing table.
"""

from repro.core.agent import ApplicationAgent, StaticLoadView, make_agent
from repro.core.candidate_selection import (
    CandidateSelector,
    ConsistentHashCandidateSelector,
    RandomCandidateSelector,
    RoundRobinCandidateSelector,
    SingleRandomSelector,
    make_selector,
)
from repro.core.consistent_hash import MaglevTable, flow_hash_key
from repro.core.flow_table import FlowEntry, FlowTable, FlowTableStats
from repro.core.lb_tier import (
    LoadBalancerTier,
    TierInstanceStats,
    TierLoadBalancer,
    TierStats,
)
from repro.core.loadbalancer import LoadBalancerNode, LoadBalancerStats
from repro.core.policies import (
    AlwaysAcceptPolicy,
    ConnectionAcceptancePolicy,
    CPULoadPolicy,
    DynamicThresholdPolicy,
    NeverAcceptPolicy,
    StaticThresholdPolicy,
    make_policy,
    register_policy,
    registered_policies,
)
from repro.core.service_hunting import (
    HuntingDecision,
    ServiceHuntingProcessor,
    ServiceHuntingStats,
    build_steering_reply_path,
)

__all__ = [
    "ApplicationAgent",
    "StaticLoadView",
    "make_agent",
    "ConnectionAcceptancePolicy",
    "AlwaysAcceptPolicy",
    "NeverAcceptPolicy",
    "StaticThresholdPolicy",
    "DynamicThresholdPolicy",
    "CPULoadPolicy",
    "make_policy",
    "register_policy",
    "registered_policies",
    "CandidateSelector",
    "RandomCandidateSelector",
    "SingleRandomSelector",
    "RoundRobinCandidateSelector",
    "ConsistentHashCandidateSelector",
    "make_selector",
    "MaglevTable",
    "flow_hash_key",
    "FlowTable",
    "FlowEntry",
    "FlowTableStats",
    "LoadBalancerNode",
    "LoadBalancerStats",
    "LoadBalancerTier",
    "TierLoadBalancer",
    "TierStats",
    "TierInstanceStats",
    "ServiceHuntingProcessor",
    "ServiceHuntingStats",
    "HuntingDecision",
    "build_steering_reply_path",
]
