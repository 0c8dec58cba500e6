"""SRLB core: the paper's primary contribution.

This package contains the load balancer (Segment Routing header
insertion and flow steering), the Service Hunting decision engine run by
each server's virtual router, the connection-acceptance policies (the
paper's ``SRc`` and ``SRdyn`` plus trivial baselines), the candidate
selection schemes (random power-of-d-choices, round-robin, consistent
hashing) and the supporting flow table, application agent and Maglev
consistent-hashing table.
"""
