"""Reference evaluation of a piecewise-constant curve, one time at a time.

The per-time loop that `curves._exp_integrals` used before it walked the
segments: the integral up to the current segment's start carries over from
one ascending time to the next, and the last rate extrapolates flat. The
tests hold the package to this loop bit for bit.
"""

from __future__ import annotations

import math


def exp_integrals(t0, node_times, rates, times):
    """exp(-integral of the piecewise-constant rate over [t0, t]) at each ascending t."""
    values = []
    total = 0.0
    prev = t0
    i = 0
    n = len(node_times)
    for t in times:
        while i < n and t > node_times[i]:
            total += rates[i] * (node_times[i] - prev)
            prev = node_times[i]
            i += 1
        values.append(math.exp(-(total + rates[min(i, n - 1)] * (t - prev))))
    return values
