"""SRLB reproduction: the power of choices in load balancing with Segment Routing.

This library is a full, from-scratch reproduction of *"SRLB: The Power of
Choices in Load Balancing with Segment Routing"* (Desmouceaux et al.,
ICDCS 2017): the Service Hunting mechanism built on IPv6 Segment Routing,
the SRc / SRdyn connection-acceptance policies, the supporting data-center
substrate (IPv6/SR network, TCP handshake with backlog overflow, Apache-like
application servers on processor-shared cores), the paper's two workloads
(Poisson and a synthetic Wikipedia replay), and the experiment harness that
regenerates every figure of the evaluation.

Quick start
-----------
>>> from repro.experiments import PoissonSweepConfig, run_scenario, sr_policy
>>> config = PoissonSweepConfig(
...     load_factors=(0.7,), num_queries=500, policies=(sr_policy(4),))
>>> run = run_scenario("poisson", config).run("SR4", 0.7)
>>> run.mean_response_time > 0
True

See ``examples/`` for complete, commented scenarios and ``benchmarks/``
for the per-figure reproduction harnesses.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "_version": ("__version__",),
        "errors": ("ReproError",),
    },
    ("analysis", "core", "experiments", "metrics", "net", "server", "sim", "workload"),
)
