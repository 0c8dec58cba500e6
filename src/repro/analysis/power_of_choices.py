"""Analytic power-of-d-choices (supermarket) model.

The paper's choice of *two* candidate servers per SR list is justified by
Mitzenmacher's power-of-two-choices result [14]: sending each arrival to
the least loaded of ``d`` randomly sampled queues shrinks the tail of the
queue-length distribution doubly exponentially in ``d``, and almost all
of the benefit is captured at ``d = 2``.

This module implements the classic mean-field (supermarket) model for
FCFS M/M/1 queues under the power of d choices:

* the equilibrium fraction of queues with at least ``i`` jobs is
  ``s_i = λ^((d^i − 1)/(d − 1))`` for d ≥ 2 and ``λ^i`` for d = 1,
* the expected time in system follows by summing the tail probabilities.

It is used by the A1/A4 ablation benchmarks to compare the simulated
improvement of SRLB's service hunting against the theoretical
prediction, and by tests as an independent cross-check of the simulator.
"""

from __future__ import annotations

from typing import List

from repro.errors import ReproError

#: Truncation depth of the tail series (queue lengths beyond this are
#: negligible for the loads considered in the paper).
_MAX_QUEUE_LENGTH = 200
#: Tail probabilities below this are treated as zero.
_TAIL_EPSILON = 1e-15


def tail_probabilities(load: float, choices: int, max_length: int = _MAX_QUEUE_LENGTH) -> List[float]:
    """Equilibrium tail probabilities ``s_i = P(queue length >= i)``.

    Parameters
    ----------
    load:
        Normalized arrival rate λ per server (service rate 1), 0 < λ < 1.
    choices:
        Number of queues sampled per arrival (d >= 1).
    max_length:
        Truncation depth.
    """
    if not 0 < load < 1:
        raise ReproError(f"load must be in (0, 1), got {load!r}")
    if choices < 1:
        raise ReproError(f"choices must be >= 1, got {choices!r}")
    tails = [1.0]
    for i in range(1, max_length + 1):
        if choices == 1:
            exponent = float(i)
        else:
            exponent = (choices ** i - 1) / (choices - 1)
        value = load ** exponent
        if value < _TAIL_EPSILON:
            break
        tails.append(value)
    return tails


def mean_queue_length(load: float, choices: int) -> float:
    """Expected number of jobs in a queue under the supermarket model."""
    return sum(tail_probabilities(load, choices)[1:])


def mean_time_in_system(load: float, choices: int) -> float:
    """Expected sojourn time (service rate 1) under the supermarket model.

    By Little's law the expected time in system equals the expected
    queue length divided by the per-queue arrival rate λ.
    """
    return mean_queue_length(load, choices) / load


def improvement_over_random(load: float, choices: int = 2) -> float:
    """Ratio of random-assignment to power-of-d-choices sojourn times.

    This is the headline theoretical prediction: how many times faster
    the power of d choices is than a single random choice at a given
    load.  It grows without bound as λ → 1.
    """
    return mean_time_in_system(load, 1) / mean_time_in_system(load, choices)
