"""Workload generators and the traffic-generator client.

Provides the paper's two workloads — the Poisson stream of CPU-bound PHP
queries (§V) and the 24-hour Wikipedia replay (§VI, synthesised per the
substitution recorded in DESIGN.md) — plus the columnar trace data model
and the open-loop client node that replays traces against the load
balancer.
"""
