"""Application-server substrate (Apache + VPP model).

This package models one application server of the paper's testbed: a
2-core VM whose CPU is time-shared among Apache ``mpm_prefork`` worker
processes, with a bounded TCP listen backlog (RST on overflow), a
scoreboard exposing worker states through shared memory, and a virtual
router hosting the Service Hunting SR behaviour in front of the
application instance.
"""
