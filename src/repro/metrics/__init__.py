"""Measurement and reporting pipeline.

Contains the response-time collector fed by the traffic generator, the
per-server load sampler, and the statistics the paper's figures are
built from: summary statistics and CDFs, Jain's fairness index, the EWMA
filter used to smooth Figure 4, 10-minute time binning for the Wikipedia
replay, capacity-seconds accounting for the elastic control plane, and
plain-text table rendering for the benchmark output.
"""
