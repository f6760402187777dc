"""Discount and survival curves with piecewise-constant forward rates.

Conventions:
- Times are year fractions; rates and hazards are continuously compounded
  decimals per year (0.01 = 100 bp).
- `node_times[i]` is the end of segment i; the segment starts at the previous
  node (or the anchor t0 for the first) and the last rate extrapolates flat.
- Rates are deterministic, so the discount factor doubles as the expected
  stochastic discount factor and every expectation over default times
  factorizes into P * Q products.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from math import exp
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DegenerateAnnuity,
    InconsistentSpecs,
    InvalidInterval,
    NonFiniteResult,
    QuoteUnattainable,
    TimeBeforeAnchor,
)
from .schedule import Schedule, _is_real, _real, _reals

__all__ = [
    "DefaultDistribution",
    "DiscountCurve",
    "SurvivalCurve",
    "calibrate_flat_hazard",
    "default_distribution",
    "forward_fixings",
]

_CALIBRATION_TOL = 1e-12
_CALIBRATION_MAX_ITER = 200
_HAZARD_BRACKET = (0.0, 10.0)
_DISTRIBUTION_TOL = 1e-12
_MAX_EXPONENT = math.log(sys.float_info.max)  # exp of anything larger overflows


def fsum(values: Iterable[float]) -> float:
    """math.fsum, except that an intermediate overflow raises NonFiniteResult."""
    try:
        return math.fsum(values)
    except OverflowError:  # finite terms whose running sum is not
        raise NonFiniteResult("a sum of finite terms overflows") from None


def _validate_segments(t0: float, node_times: tuple[float, ...], rates: tuple[float, ...]) -> None:
    if not node_times:
        raise ValueError("curve needs at least one node")
    if len(node_times) != len(rates):
        raise ValueError("node_times and rates must have the same length")
    prev = t0
    for node in node_times:
        if not node > prev:  # also rejects NaN
            raise ValueError("node times must be strictly increasing and after t0")
        prev = node
    for r in rates:
        if not math.isfinite(r):
            raise ValueError("rates must be finite")


def _exp_integrals(
    curve: str,
    t0: float,
    node_times: tuple[float, ...],
    rates: tuple[float, ...],
    times: Sequence[float],
) -> list[float]:
    """exp(-integral of the piecewise-constant rate over [t0, t]) at each ascending t.

    One pass over the segments, the last rate extrapolated flat as the last:
    each takes its slice of the times by bisection and evaluates it in one
    comprehension, from the integral up to its start. An exponential that
    overflows, an infinite exponent included, raises NonFiniteResult naming
    the curve and the time; a time that is not finite raises InvalidInterval.
    """
    if times[0] < t0:
        raise TimeBeforeAnchor(f"time {times[0]} precedes curve anchor {t0}")
    if not math.isfinite(times[-1]):  # the times ascend: an infinite one is the last
        raise InvalidInterval(f"time {times[-1]} is not finite")
    values: list[float] = []
    total = 0.0
    prev = t0
    lo = 0
    for node, rate in zip((*node_times, math.inf), (*rates, rates[-1])):  # the flat tail last
        hi = bisect_right(times, node, lo)
        # the exponent is monotone in t, rounding included: if any t overflows, one end does
        if lo < hi and (-(total + rate * (times[lo] - prev)) > _MAX_EXPONENT
                        or -(total + rate * (times[hi - 1] - prev)) > _MAX_EXPONENT):
            t = next(t for t in times[lo:hi] if -(total + rate * (t - prev)) > _MAX_EXPONENT)
            raise NonFiniteResult(
                f"{curve} curve at t = {t}: exp({-(total + rate * (t - prev))}) overflows"
            )
        values += [exp(-(total + rate * (t - prev))) for t in times[lo:hi]]
        if hi == len(times):
            break
        total += rate * (node - prev)
        prev = node
        lo = hi
    return values


def _memo(curve, schedule: Schedule, evaluate):
    """evaluate(curve, schedule), kept on the curve as its last evaluation (schedule, values).

    A call hits only when the stored schedule is the very object passed in: the
    memo holds it, so its identity cannot be reused, and values are never
    compared. An evaluation that raises stores nothing. The memo is a plain
    attribute set past the frozen dataclass, so it stays out of ==, hash, repr,
    fields, asdict and replace, and dies with the curve. Its one store of a
    tuple (and _Grid.kept's, for a grid's sums) keeps the curve safe to share
    across threads: a race only evaluates twice.
    """
    last = getattr(curve, "_last", None)
    if last is not None and last[0] is schedule:
        return last[1]
    values = evaluate(curve, schedule)
    object.__setattr__(curve, "_last", (schedule, values))
    return values


@dataclass(frozen=True)
class DiscountCurve:
    """Deterministic discount curve P(t0, t) = exp(-integral of the forward rate).

    t0, node times, rates and every time queried must be numbers (_is_real), else ValueError.
    """

    node_times: tuple[float, ...]
    fwd_rates: tuple[float, ...]
    t0: float = 0.0

    def __post_init__(self) -> None:
        _real("t0", self.t0)
        object.__setattr__(self, "node_times", _reals("node_times", self.node_times))
        object.__setattr__(self, "fwd_rates", _reals("fwd_rates", self.fwd_rates))
        _validate_segments(self.t0, self.node_times, self.fwd_rates)

    @classmethod
    def flat(cls, rate: float, t0: float = 0.0) -> "DiscountCurve":
        return cls(node_times=(_real("t0", t0) + 1.0,), fwd_rates=(rate,), t0=t0)

    def _at(self, times: Sequence[float]) -> list[float]:
        """P at each of the ascending times."""
        return _exp_integrals("discount", self.t0, self.node_times, self.fwd_rates, times)

    def _on(self, schedule: Schedule) -> _Grid:
        """The riskless grid on the schedule, P checked positive; evaluated once per schedule."""
        return _memo(self, schedule, _discount_on)

    def discount_factor(self, t: float) -> float:
        return self._at((_real("t", t),))[0]

    def forward_rate(self, t_start: float, t_end: float) -> float:
        """Simple-compounded forward rate over (t_start, t_end]: the model's floating fixing."""
        if not _real("t_start", t_start) < _real("t_end", t_end):  # also rejects NaN
            raise InvalidInterval(f"need t_start < t_end, got ({t_start}, {t_end})")
        p_start, p_end = self._at((t_start, t_end))
        return (p_start / p_end - 1.0) / (t_end - t_start)


@dataclass(frozen=True)
class SurvivalCurve:
    """Issuer survival curve Q(t0, t) = exp(-integral of the hazard rate).

    t0, node times, hazards and every time queried must be numbers (_is_real), else ValueError.
    """

    node_times: tuple[float, ...]
    hazards: tuple[float, ...]
    t0: float = 0.0

    def __post_init__(self) -> None:
        _real("t0", self.t0)
        object.__setattr__(self, "node_times", _reals("node_times", self.node_times))
        object.__setattr__(self, "hazards", _reals("hazards", self.hazards))
        _validate_segments(self.t0, self.node_times, self.hazards)
        if any(h < 0.0 for h in self.hazards):
            raise ValueError("hazard rates must be non-negative")

    @classmethod
    def flat(cls, hazard: float, t0: float = 0.0) -> "SurvivalCurve":
        return cls(node_times=(_real("t0", t0) + 1.0,), hazards=(hazard,), t0=t0)

    @classmethod
    def _trial(cls, hazard: float, t0: float) -> "SurvivalCurve":
        """flat(hazard, t0) without its checks, for the fit's points alone: the fit checks
        its inputs once, and each hazard it tries is a number in its bracket."""
        curve = object.__new__(cls)
        object.__setattr__(curve, "node_times", (float(t0 + 1.0),))
        object.__setattr__(curve, "hazards", (float(hazard),))
        object.__setattr__(curve, "t0", t0)
        return curve

    def _at(self, times: Sequence[float]) -> list[float]:
        """Q at each of the ascending times."""
        return _exp_integrals("survival", self.t0, self.node_times, self.hazards, times)

    def _on(self, schedule: Schedule) -> _Pair:
        """(Q, dq) on the schedule (see _Grid); evaluated once per schedule."""
        return _memo(self, schedule, _survival_on)

    def survival_prob(self, t: float) -> float:
        return self._at((_real("t", t),))[0]


class _Grid(NamedTuple):
    """One market on one schedule; every pricer is a short sum over these sequences.

    p and q hold P and Q at [t0, t_1, ..., t_N]; theta, eps and dq hold periods 1..N: the
    accrual, the fixing (eps_k theta_k = P_{k-1} / P_k - 1) and the default law Q_{k-1} - Q_k.
    A grid from _grid shares the curves' memoized tuples, and sums keeps what is derived
    from it (kept).
    """

    theta: tuple[float, ...]
    p: Sequence[float]
    q: Sequence[float]
    eps: Sequence[float]
    dq: Sequence[float]
    sums: dict

    def window(self, start: int, stop: int) -> "_Grid":
        """The grid of periods start+1..stop, anchored at t_start: the grid itself for 0..N."""
        if start == 0 and stop == len(self.theta):
            return self
        return _Grid(
            self.theta[start:stop], self.p[start : stop + 1], self.q[start : stop + 1],
            self.eps[start:stop], self.dq[start:stop], {},
        )

    def kept(self, derive, key=None):
        """derive(self, key), computed on first use and read from sums after that: one
        (key, value) entry per derive, which another key (_same: a tuple part by part)
        replaces, so sums stays bounded. An entry is stored whole, so threads sharing the
        grid only derive twice; a derive that raises stores nothing."""
        entry = self.sums.get(derive)
        if entry is None or not _same(entry[0], key):
            entry = self.sums[derive] = key, derive(self, key)
        return entry[1]


def _same(stored, given) -> bool:
    """given is the stored key, or one of its type with the same repr: equal field for
    field in type and bits, which == is not (0.0 == -0.0, 1 == 1.0, float32(0.5) == 0.5).
    A tuple is compared part by part, identity first, so a part passed again as the very
    object stored (a schedule) is never repr'd."""
    if stored is not given and type(stored) is type(given) is tuple:
        return len(stored) == len(given) and all(map(_same, stored, given))
    return stored is given or (type(stored) is type(given) and repr(stored) == repr(given))


_Pair = tuple[tuple[float, ...], tuple[float, ...]]  # (Q, dq) on one schedule


def _values_on(curve: DiscountCurve | SurvivalCurve, name: str, schedule: Schedule) -> list[float]:
    """The curve at [t0, t_1, ..., t_N]; a curve anchored away from the schedule's t0
    raises InconsistentSpecs, since every pricer reads P and Q at the schedule's t0 as 1."""
    if curve.t0 != schedule.t0:
        raise InconsistentSpecs(f"{name} curve is anchored at {curve.t0}, "
                                f"the schedule at {schedule.t0}")
    return curve._at([schedule.t0, *schedule.dates])


def _discount_on(discount: DiscountCurve, schedule: Schedule) -> _Grid:
    p = tuple(_values_on(discount, "discount", schedule))
    if not all(df > 0.0 for df in p):
        raise DegenerateAnnuity("a discount factor on the payment grid is not positive")
    eps = tuple([(p0 / p1 - 1.0) / th for p0, p1, th in zip(p, p[1:], schedule.accruals)])
    return _riskless(_Grid(schedule.accruals, p, (), eps, (), {}))  # theta, P and eps


def _survival_on(survival: SurvivalCurve, schedule: Schedule) -> _Pair:
    q = tuple(_values_on(survival, "survival", schedule))
    return q, tuple([q0 - q1 for q0, q1 in zip(q, q[1:])])


def _riskless(g: _Grid, _=None) -> _Grid:
    """g's periods for an issuer that cannot default: Q = 1 and dq = 0."""
    return _Grid(g.theta, g.p, (1.0,) * len(g.p), g.eps, (0.0,) * len(g.eps), {})


def _grid(discount: DiscountCurve, survival: SurvivalCurve | None, schedule: Schedule) -> _Grid:
    """theta, P, Q, eps and dq of the market, each curve evaluated once per schedule
    (_memo); no survival curve means the riskless grid, which the discount curve's memo
    holds. The risky grid is kept on the survival curve and returned again while its P
    and Q are the memos' very tuples, so the sums it keeps (_Grid.kept) are derived once
    per market; it keeps the riskless grid as its twin (_riskless)."""
    riskless = discount._on(schedule)
    if survival is None:
        return riskless
    q, dq = survival._on(schedule)
    g = getattr(survival, "_last_grid", None)
    if g is None or g.p is not riskless.p or g.q is not q:
        g = _Grid(schedule.accruals, riskless.p, q, riskless.eps, dq, {_riskless: (None, riskless)})
        object.__setattr__(survival, "_last_grid", g)
    return g


@dataclass(frozen=True)
class DefaultDistribution:
    """Law of the default time restricted to the payment grid.

    bucket_probs[k-1] is the probability of default in (t_{k-1}, t_k],
    effective immediately before the payment date t_k; survival_prob is the
    probability of surviving past t_N. Together they exhaust the measure.
    """

    bucket_probs: tuple[float, ...]
    survival_prob: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "bucket_probs", tuple([float(p) for p in self.bucket_probs]))
        if not all(p >= 0.0 for p in self.bucket_probs):  # also rejects NaN
            raise ValueError("bucket probabilities must be non-negative")
        if not 0.0 <= self.survival_prob <= 1.0:
            raise ValueError("survival probability must lie in [0, 1]")
        total = fsum(self.bucket_probs) + self.survival_prob
        if abs(total - 1.0) > _DISTRIBUTION_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")


def default_distribution(curve: SurvivalCurve, schedule: Schedule) -> DefaultDistribution:
    """Bucket the default time onto the schedule: p_k = Q(t_{k-1}) - Q(t_k)."""
    q, dq = curve._on(schedule)
    return DefaultDistribution(dq, q[-1])


def forward_fixings(discount: DiscountCurve, schedule: Schedule) -> tuple[float, ...]:
    """Floating fixing of each period: set at t_{k-1}, paid at t_k."""
    return discount._on(schedule).eps


class _Fit(NamedTuple):
    """A calibrated flat hazard curve, the par spread it reproduces and the points it took."""

    curve: SurvivalCurve
    spread: float
    iterations: int


def _calibrate_flat_hazard(
    discount: DiscountCurve,
    schedule: Schedule,
    cds_quote: float,
    recovery: float,
) -> _Fit:
    """Flat hazard rate that reproduces the given par credit spread, and how the fit went.

    Newton's method on the hazard h, safeguarded by a bracket (`rtsafe`, Numerical
    Recipes 9.4). The par spread s(h) = LGD * D(h) / A(h) is strictly increasing
    in h, so [0, 10] brackets every attainable quote, and any point in it that
    prices at or above the quote proves the quote attainable. Only a first point
    that prices below it is followed by the check at h = 10, which raises
    QuoteUnattainable when s(10) is below the quote too (a first point at h = 10
    is its own check). The first guess is quote / LGD clipped to [0, 10]. Each
    point prices s on the pricers' grid, so the curve returned keeps its Q
    (_memo), and its slope by dQ_k/dh = -(t_k - t0) Q_k; a step leaving the
    current bracket, or a slope not finite and positive, falls back to the
    bracket's midpoint. Stops when |s(h) - quote| < 1e-12 (capped at 200 points),
    returning the last point evaluated; `iterations` counts the Newton points,
    not the check at h = 10.
    """
    from .pricers import _par_cds

    if not (_is_real(cds_quote) and cds_quote >= 0.0):
        raise ValueError("cds quote must be non-negative")
    if not (_is_real(recovery) and 0.0 <= recovery < 1.0):
        raise ValueError("recovery must lie in [0, 1)")
    lgd = 1.0 - recovery
    grid = _grid(discount, None, schedule)
    if not discount.t0 + 1.0 > discount.t0:  # the trial curves' node t0 + 1 must follow t0
        raise ValueError("node times must be strictly increasing and after t0")
    # With tau_k = t_k - t0 and dQ_k/dh = -tau_k Q_k, the slopes of the default
    # leg D = sum of P_{k-1} (Q_{k-1} - Q_k) and of the annuity A are fixed
    # weights dotted with Q: dD/dh = sum of default_w_k Q_k, dA/dh = -sum of annuity_w_k Q_k.
    tau = [t - discount.t0 for t in (schedule.t0, *schedule.dates)]
    default_w = [t * (p0 - p1) for t, p0, p1 in zip(tau, [0.0, *grid.p], [*grid.p[:-1], 0.0])]
    annuity_w = [0.0, *(th * p * t for th, p, t in zip(grid.theta, grid.p[1:], tau[1:]))]

    def evaluate(hazard: float) -> tuple[SurvivalCurve, float, float]:
        """The curve at this hazard, its par spread s and ds/dh = (LGD dD/dh - s dA/dh) / A."""
        curve = SurvivalCurve._trial(hazard, discount.t0)
        g = _grid(discount, curve, schedule)
        par = _par_cds(g, recovery)
        slope = lgd * fsum(map(mul, default_w, g.q)) + par.spread * fsum(map(mul, annuity_w, g.q))
        return curve, par.spread, slope / par.annuity

    lo, hi = _HAZARD_BRACKET
    ceiling = hi
    hazard = min(cds_quote / lgd, ceiling)  # at least 0: the quote is
    for iterations in range(1, _CALIBRATION_MAX_ITER + 1):
        curve, spread, slope = evaluate(hazard)
        residual = spread - cds_quote
        if iterations == 1 and residual < 0.0 and (
            hazard == ceiling or evaluate(ceiling)[1] - cds_quote < 0.0
        ):
            raise QuoteUnattainable(
                f"quote {cds_quote} exceeds the spread attainable at hazard {ceiling}"
            )
        if abs(residual) < _CALIBRATION_TOL:
            break
        if residual < 0.0:
            lo = hazard
        else:
            hi = hazard
        step = hazard - residual / slope if math.isfinite(slope) and slope > 0.0 else math.nan
        hazard = step if lo < step < hi else 0.5 * (lo + hi)
    return _Fit(curve, spread, iterations)


def calibrate_flat_hazard(
    discount: DiscountCurve,
    schedule: Schedule,
    cds_quote: float,
    recovery: float,
) -> SurvivalCurve:
    """Flat hazard rate that reproduces the given par credit spread (see _calibrate_flat_hazard)."""
    return _calibrate_flat_hazard(discount, schedule, cds_quote, recovery).curve
