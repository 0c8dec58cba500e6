"""SRLB core: the paper's primary contribution.

This package contains the load balancer (Segment Routing header
insertion and flow steering), the Service Hunting decision engine run by
each server's virtual router, the connection-acceptance policies (the
paper's ``SRc`` and ``SRdyn`` plus trivial baselines), the candidate
selection schemes (random power-of-d-choices, round-robin, consistent
hashing) and the supporting flow table, application agent and Maglev
consistent-hashing table.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "agent": ("ApplicationAgent", "StaticLoadView"),
        "candidate_selection": (
            "CandidateSelector",
            "ConsistentHashCandidateSelector",
            "RandomCandidateSelector",
            "RoundRobinCandidateSelector",
            "SingleRandomSelector",
            "make_selector",
        ),
        "consistent_hash": ("MaglevTable", "flow_hash_key"),
        "flow_table": ("FlowEntry", "FlowTable", "FlowTableStats"),
        "lb_tier": (
            "LoadBalancerTier",
            "TierInstanceStats",
            "TierLoadBalancer",
            "TierStats",
        ),
        "loadbalancer": ("LoadBalancerNode", "LoadBalancerStats"),
        "policies": (
            "AlwaysAcceptPolicy",
            "ConnectionAcceptancePolicy",
            "DynamicThresholdPolicy",
            "NeverAcceptPolicy",
            "StaticThresholdPolicy",
            "make_policy",
            "register_policy",
        ),
        "service_hunting": (
            "HuntingDecision",
            "ServiceHuntingProcessor",
            "ServiceHuntingStats",
        ),
    },
)
