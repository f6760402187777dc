"""Reference flat-hazard fit, as `curves._calibrate_flat_hazard` made it before it
evaluated h = 10 only on demand.

This fit checks that h = 10 prices at or above the quote before Newton starts,
builds each point's curve through `SurvivalCurve.flat` and its checks, and forms
every point's slope. It starts from the package's own first guess
(`curves._hazard_guess`) and prices each point on the package's grid and par
spread, as the package's fit does, so the tests that hold the package's fit to
this one bit for bit check only where h = 10 is evaluated and how each point's
curve is built.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple

from cdsreplica import QuoteUnattainable, SurvivalCurve
from cdsreplica.curves import _grid, _hazard_guess, fsum
from cdsreplica.pricers import _par_cds


class Fit(NamedTuple):
    curve: SurvivalCurve
    spread: float
    iterations: int


def calibrate_flat_hazard(discount, schedule, cds_quote, recovery) -> Fit:
    """The flat hazard that reproduces the quote, its spread and its Newton point count."""
    lgd = 1.0 - recovery
    grid = _grid(discount, None, schedule)
    tau = [t - discount.t0 for t in (schedule.t0, *schedule.dates)]
    default_w = [t * (p0 - p1) for t, p0, p1 in zip(tau, [0.0, *grid.p], [*grid.p[:-1], 0.0])]
    annuity_w = [0.0, *(th * p * t for th, p, t in zip(grid.theta, grid.p[1:], tau[1:]))]

    def evaluate(hazard):
        curve = SurvivalCurve.flat(hazard, t0=discount.t0)
        g = _grid(discount, curve, schedule)
        par = _par_cds(g, recovery)
        slope = lgd * fsum(map(mul, default_w, g.q)) + par.spread * fsum(map(mul, annuity_w, g.q))
        return curve, par.spread, slope / par.annuity

    lo, hi = 0.0, 10.0
    if evaluate(hi)[1] - cds_quote < 0.0:
        raise QuoteUnattainable(f"quote {cds_quote} exceeds the spread attainable at hazard {hi}")
    hazard = _hazard_guess(grid, schedule, cds_quote, lgd)
    for iterations in range(1, 201):
        curve, spread, slope = evaluate(hazard)
        residual = spread - cds_quote
        if abs(residual) < 1e-12:
            break
        if residual < 0.0:
            lo = hazard
        else:
            hi = hazard
        step = hazard - residual / slope if math.isfinite(slope) and slope > 0.0 else math.nan
        hazard = step if lo < step < hi else 0.5 * (lo + hi)
    return Fit(curve, spread, iterations)
