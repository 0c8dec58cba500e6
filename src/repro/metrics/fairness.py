"""Jain's fairness index.

Figure 4 of the paper plots, next to the mean instantaneous server load,
the *fairness index* of the per-server loads:

.. math::

    F(x_1, ..., x_n) = \\frac{(\\sum_i x_i)^2}{n \\sum_i x_i^2}

which is 1 when every server carries the same load and tends to ``1/n``
when a single server carries everything.  The index is what shows that
SR4 "better spreads queries between all servers" than RR.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ReproError


def jain_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index of ``values``.

    By convention the index of an all-zero sample is 1.0 (an idle
    cluster is perfectly fair); negative loads are rejected.
    """
    if len(values) == 0:
        raise ReproError("cannot compute the fairness index of an empty sample")
    array = np.asarray(values, dtype=float)
    if np.any(array < 0):
        raise ReproError("fairness index requires non-negative values")
    peak = float(np.max(array))
    if peak == 0.0:
        # An idle cluster is perfectly fair.
        return 1.0
    # Normalise by the peak before squaring: the index is scale
    # invariant, and loads near the float minimum would otherwise
    # square into subnormals whose precision loss can push the result
    # outside the mathematical [1/n, 1] bounds.
    array = array / peak
    total = float(np.sum(array))
    squared_sum = float(np.sum(array ** 2))
    return total ** 2 / (len(array) * squared_sum)
