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
from itertools import accumulate, repeat
from math import exp
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from ._record import Record
from .errors import (
    DegenerateAnnuity,
    InconsistentSpecs,
    InvalidInterval,
    NonFiniteResult,
    QuoteUnattainable,
    TimeBeforeAnchor,
)
from .schedule import Schedule, _real, _reals

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
# Passes of the first guess (_hazard_guess). On the 600 calibrated book-short markets of
# seeds 1-3, 2/3/4/5 passes took 1.36/1.12/1.02/1.01 Newton points per fit, and 4 gave the
# fastest fit on a shared 2-CPU VM (44 us against 46 for 3 and 48 for 5, where quote / LGD
# took 3.25 points and 80 us); on 4,000 random markets 4 passes took 1.006 points, at most 2.
_GUESS_PASSES = 4
_DISTRIBUTION_TOL = 1e-12
_MAX_EXPONENT = math.log(sys.float_info.max)  # exp of anything larger overflows


def fsum(values: Iterable[float]) -> float:
    """math.fsum, except that an intermediate overflow raises NonFiniteResult."""
    try:
        return math.fsum(values)
    except OverflowError:  # finite terms whose running sum is not
        raise NonFiniteResult("a sum of finite terms overflows") from None


def _validate_segments(t0: float, node_times: tuple[float, ...], rates: tuple[float, ...]) -> None:
    if not math.isfinite(t0):
        raise ValueError("t0 must be finite")
    if not node_times:
        raise ValueError("curve needs at least one node")
    if len(node_times) != len(rates):
        raise ValueError("node_times and rates must have the same length")
    prev = t0
    for node in node_times:
        if not node > prev:  # also rejects NaN
            raise ValueError("node times must be strictly increasing and after t0")
        prev = node
    if not all(map(math.isfinite, rates)):
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


class DiscountCurve(Record):
    """Deterministic discount curve P(t0, t) = exp(-integral of the forward rate).

    t0, node times, rates and every time queried must be numbers (_real), else ConfigError.
    """

    node_times: tuple[float, ...]
    fwd_rates: tuple[float, ...]
    t0: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "t0", _real("t0", self.t0))
        object.__setattr__(self, "node_times", _reals("node_times", self.node_times))
        object.__setattr__(self, "fwd_rates", _reals("fwd_rates", self.fwd_rates))
        _validate_segments(self.t0, self.node_times, self.fwd_rates)

    @classmethod
    def flat(cls, rate: float, t0: float = 0.0) -> "DiscountCurve":
        return cls(node_times=(_real("t0", t0) + 1.0,), fwd_rates=(rate,), t0=t0)

    def _at(self, times: Sequence[float]) -> list[float]:
        """P at each of the ascending times."""
        return _exp_integrals("discount", self.t0, self.node_times, self.fwd_rates, times)

    def discount_factor(self, t: float) -> float:
        return self._at((_real("t", t),))[0]

    def forward_rate(self, t_start: float, t_end: float) -> float:
        """Simple-compounded forward rate over (t_start, t_end]: the model's floating fixing."""
        t_start, t_end = _real("t_start", t_start), _real("t_end", t_end)
        if not t_start < t_end:  # also rejects NaN
            raise InvalidInterval(f"need t_start < t_end, got ({t_start}, {t_end})")
        p_start, p_end = self._at((t_start, t_end))
        return (p_start / p_end - 1.0) / (t_end - t_start)


class SurvivalCurve(Record):
    """Issuer survival curve Q(t0, t) = exp(-integral of the hazard rate).

    t0, node times, hazards and every time queried must be numbers (_real), else ConfigError.
    """

    node_times: tuple[float, ...]
    hazards: tuple[float, ...]
    t0: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "t0", _real("t0", self.t0))
        object.__setattr__(self, "node_times", _reals("node_times", self.node_times))
        object.__setattr__(self, "hazards", _reals("hazards", self.hazards))
        _validate_segments(self.t0, self.node_times, self.hazards)
        if any(h < 0.0 for h in self.hazards):
            raise ValueError("hazard rates must be non-negative")

    @classmethod
    def flat(cls, hazard: float, t0: float = 0.0) -> "SurvivalCurve":
        return cls(node_times=(_real("t0", t0) + 1.0,), hazards=(hazard,), t0=t0)

    def _at(self, times: Sequence[float]) -> list[float]:
        """Q at each of the ascending times."""
        return _exp_integrals("survival", self.t0, self.node_times, self.hazards, times)

    def survival_prob(self, t: float) -> float:
        return self._at((_real("t", t),))[0]


class _Grid(NamedTuple):
    """One market on one schedule; every pricer is a short sum over these sequences.

    p and q hold P and Q at [t0, t_1, ..., t_N]; theta, eps and dq hold periods 1..N: the
    accrual, the fixing (eps_k theta_k = P_{k-1} / P_k - 1) and the default law Q_{k-1} - Q_k.
    A grid from _grid is the one its curve keeps (_memo), and sums keeps what is derived
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
    """given is the stored key, or one of its type with the same repr: equal field for field
    in type and bits, which == is not (0.0 == -0.0; the specs keep floats, so an int or a
    float32 never reaches a key). A tuple is compared part by part, identity first, so a
    part passed again as the very object stored (a schedule) is never repr'd."""
    if stored is not given and type(stored) is type(given) is tuple:
        return len(stored) == len(given) and all(map(_same, stored, given))
    return stored is given or (type(stored) is type(given) and repr(stored) == repr(given))


def _values_on(curve: DiscountCurve | SurvivalCurve, name: str, schedule: Schedule) -> list[float]:
    """The curve at [t0, t_1, ..., t_N]; a curve anchored away from the schedule's t0
    raises InconsistentSpecs, since every pricer reads P and Q at the schedule's t0 as 1."""
    if curve.t0 != schedule.t0:
        raise InconsistentSpecs(f"{name} curve is anchored at {curve.t0}, "
                                f"the schedule at {schedule.t0}")
    return curve._at([schedule.t0, *schedule.dates])


def _discount_on(discount: DiscountCurve, schedule: Schedule) -> _Grid:
    """The riskless grid on the schedule (theta, P and eps), P checked positive."""
    p = tuple(_values_on(discount, "discount", schedule))
    if not all(df > 0.0 for df in p):
        raise DegenerateAnnuity("a discount factor on the payment grid is not positive")
    eps = tuple([(p0 / p1 - 1.0) / th for p0, p1, th in zip(p, p[1:], schedule.accruals)])
    return _riskless(_Grid(schedule.accruals, p, (), eps, (), {}))


def _survival_on(survival: SurvivalCurve, schedule: Schedule) -> tuple[tuple, tuple]:
    """(Q, dq) on the schedule (see _Grid)."""
    q = tuple(_values_on(survival, "survival", schedule))
    return q, tuple([q0 - q1 for q0, q1 in zip(q, q[1:])])


def _riskless(g: _Grid, _=None) -> _Grid:
    """g's periods for an issuer that cannot default: Q = 1 and dq = 0."""
    return _Grid(g.theta, g.p, (1.0,) * len(g.p), g.eps, (0.0,) * len(g.eps), {})


def _check_slot(curve, kind: type, slot: str) -> None:
    """InconsistentSpecs unless curve is a kind: a discount curve's rates are no hazards
    (they may be negative) and its kept grid holds no Q, so in the other slot it would price."""
    if not isinstance(curve, kind):
        raise InconsistentSpecs(f"the {slot} curve must be a {kind.__name__}, "
                                f"got {type(curve).__name__}")


def _memo(curve, schedule: Schedule, riskless: _Grid | None) -> _Grid:
    """The curve's grid on the schedule, kept on the curve as its last (schedule, riskless, grid):
    the discount curve's riskless grid (riskless None), or the survival curve's risky grid,
    which extends riskless with Q and dq and keeps it as its twin (_riskless).

    A call hits only when the stored schedule and riskless grid are the very objects passed
    in: the memo holds them, so their identities cannot be reused, and values are never
    compared. A miss first checks the curve's class against its slot (_check_slot), so a
    hit, which only a curve stored from its own slot can give, costs nothing more. An
    evaluation that raises stores nothing. The memo is a plain attribute set past the
    frozen record, so it stays out of ==, hash, repr, _fields, _asdict and
    _replace, and dies with the curve. Its one store of a tuple (and _Grid.kept's, for a
    grid's sums) keeps the curve safe to share across threads: a race only evaluates twice.
    """
    last = getattr(curve, "_last", None)
    if last is not None and last[0] is schedule and last[1] is riskless:
        return last[2]
    if riskless is None:
        _check_slot(curve, DiscountCurve, "discount")
        g = _discount_on(curve, schedule)
    else:
        _check_slot(curve, SurvivalCurve, "survival")
        q, dq = _survival_on(curve, schedule)
        g = _Grid(schedule.accruals, riskless.p, q, riskless.eps, dq, {_riskless: (None, riskless)})
    object.__setattr__(curve, "_last", (schedule, riskless, g))
    return g


def _grid(discount: DiscountCurve, survival: SurvivalCurve | None, schedule: Schedule) -> _Grid:
    """theta, P, Q, eps and dq of the market, each curve evaluated once per schedule (_memo);
    no survival curve means the riskless grid. The risky grid is returned again while the
    discount curve's memo holds the riskless grid it extends, so the sums it keeps
    (_Grid.kept) are derived once per market."""
    riskless = _memo(discount, schedule, None)
    return riskless if survival is None else _memo(survival, schedule, riskless)


class DefaultDistribution(Record):
    """Law of the default time restricted to the payment grid, as floats (_real).

    bucket_probs[k-1] is the probability of default in (t_{k-1}, t_k],
    effective immediately before the payment date t_k; survival_prob is the
    probability of surviving past t_N. Together they exhaust the measure.
    """

    bucket_probs: tuple[float, ...]
    survival_prob: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "bucket_probs", _reals("bucket probabilities", self.bucket_probs))
        object.__setattr__(self, "survival_prob", _real("survival probability", self.survival_prob))
        if not all(p >= 0.0 for p in self.bucket_probs):  # also rejects NaN
            raise ValueError("bucket probabilities must be non-negative")
        if not 0.0 <= self.survival_prob <= 1.0:
            raise ValueError("survival probability must lie in [0, 1]")
        total = fsum(self.bucket_probs) + self.survival_prob
        if abs(total - 1.0) > _DISTRIBUTION_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")


def default_distribution(curve: SurvivalCurve, schedule: Schedule) -> DefaultDistribution:
    """Bucket the default time onto the schedule: p_k = Q(t_{k-1}) - Q(t_k), read from the
    curve's kept grid when it is on this very schedule, else evaluated and not kept. The
    curve must be a SurvivalCurve (_check_slot): a discount curve's kept grid holds no Q."""
    _check_slot(curve, SurvivalCurve, "survival")
    last = getattr(curve, "_last", None)
    if last is not None and last[0] is schedule:
        q, dq = last[2].q, last[2].dq
    else:
        q, dq = _survival_on(curve, schedule)
    return DefaultDistribution(dq, q[-1])


def forward_fixings(discount: DiscountCurve, schedule: Schedule) -> tuple[float, ...]:
    """Floating fixing of each period: set at t_{k-1}, paid at t_k."""
    return _grid(discount, None, schedule).eps


class _Fit(NamedTuple):
    """A calibrated flat hazard curve, the par spread it reproduces and the points it took."""

    curve: SurvivalCurve
    spread: float
    iterations: int


def _hazard_guess(riskless: _Grid, schedule: Schedule, cds_quote: float, lgd: float) -> float:
    """The flat hazard at which the discrete par spread meets the quote on a regular grid.

    With theta the schedule's mean accrual and Q_k = z^k, z = exp(-h theta), the default
    leg is D = sum of P_{k-1} (Q_{k-1} - Q_k) = (e^{h theta} - 1) sum of P_{k-1} z^k and
    the annuity A = theta sum of P_k z^k, so s = LGD (e^{h theta} - 1) / theta * R(z),
    R = sum of P_{k-1} z^k / sum of P_k z^k. x = e^{h theta} - 1 starts at quote theta / LGD
    (R = 1), and each pass forms R at z = 1 / (1 + x) and sets x = quote theta / (LGD R): one
    accumulate and two dot products, no exp; the guess is log1p(x) / theta. R is a constant
    on a flat discount curve, so the guess is then the root itself; on an irregular grid it
    is only near it. The sums use math.fsum: a zero sum, an overflow, or a guess that is
    not finite in [0, 10] falls back to quote / LGD clipped to [0, 10].
    """
    ceiling = _HAZARD_BRACKET[1]
    theta = (schedule.dates[-1] - schedule.t0) / len(schedule.dates)
    tail = riskless.p[1:]
    try:
        x = cds_quote * theta / lgd
        for _ in range(_GUESS_PASSES):
            powers = list(accumulate(repeat(1.0 / (1.0 + x), len(tail)), mul))
            # map stops at the N powers, so riskless.p gives P_0..P_{N-1}
            ratio = math.fsum(map(mul, riskless.p, powers)) / math.fsum(map(mul, tail, powers))
            x = cds_quote * theta / (lgd * ratio)
        hazard = math.log1p(x) / theta
    except (ZeroDivisionError, OverflowError):
        hazard = math.nan
    return hazard if 0.0 <= hazard <= ceiling else min(cds_quote / lgd, ceiling)


def _slope_weights(t0: float, schedule: Schedule, riskless: _Grid) -> tuple[list, list]:
    """With tau_k = t_k - t0 and dQ_k/dh = -tau_k Q_k, the slopes of the default leg
    D = sum of P_{k-1} (Q_{k-1} - Q_k) and of the annuity A are fixed weights dotted
    with Q: dD/dh = sum of default_w_k Q_k, dA/dh = -sum of annuity_w_k Q_k."""
    p = riskless.p
    tau = [t - t0 for t in (schedule.t0, *schedule.dates)]
    default_w = [t * (p0 - p1) for t, p0, p1 in zip(tau, [0.0, *p], [*p[:-1], 0.0])]
    annuity_w = [0.0, *(th * p_k * t for th, p_k, t in zip(riskless.theta, p[1:], tau[1:]))]
    return default_w, annuity_w


def _calibrate_flat_hazard(
    discount: DiscountCurve,
    schedule: Schedule,
    cds_quote: float,
    recovery: float,
) -> _Fit:
    """Flat hazard rate that reproduces the given par credit spread, and how the fit went.

    Newton's method on the hazard h, safeguarded by a bracket (`rtsafe`, Numerical
    Recipes 9.4), from the root of the discrete par spread on a regular grid
    (_hazard_guess), so most fits stop at their first point. The par spread
    s(h) = LGD * D(h) / A(h) is strictly increasing in h, so [0, 10] brackets every
    attainable quote, and any point in it that prices at or above the quote proves
    the quote attainable. Only a first point that prices below the quote by at
    least the tolerance is followed by the check at h = 10, which raises
    QuoteUnattainable when s(10) is below the quote too (a first point at h = 10
    is its own check). Each point prices s on the pricers' grid, so the curve
    returned keeps its grid (_memo). A point may price above the pricers' cap on a
    par spread (_MAX_PAR_SPREAD), which still proves the quote attainable; only
    the spread returned must lie under it. A step takes its slope from dQ_k/dh =
    -(t_k - t0) Q_k (_slope_weights, formed at the first step), and a step leaving
    the current bracket, or a slope not finite and positive, falls back to the
    bracket's midpoint. Stops when |s(h) - quote| < 1e-12 (capped at 200 points),
    returning the last point evaluated; `iterations` counts the Newton points, not
    the check at h = 10.
    """
    from .pricers import _par, _par_cds

    cds_quote, recovery = _real("cds quote", cds_quote), _real("recovery", recovery)
    if not cds_quote >= 0.0:
        raise ValueError("cds quote must be non-negative")
    if not 0.0 <= recovery < 1.0:
        raise ValueError("recovery must lie in [0, 1)")
    lgd = 1.0 - recovery
    grid = _grid(discount, None, schedule)

    def evaluate(hazard: float):
        """The curve at this hazard, its grid and its par spread, uncapped."""
        curve = SurvivalCurve.flat(hazard, discount.t0)
        g = _grid(discount, curve, schedule)
        return curve, g, _par_cds(g, recovery, math.inf)

    lo, hi = _HAZARD_BRACKET
    ceiling = hi
    hazard = _hazard_guess(grid, schedule, cds_quote, lgd)
    weights = None
    for iterations in range(1, _CALIBRATION_MAX_ITER + 1):
        curve, g, par = evaluate(hazard)
        residual = par.spread - cds_quote
        if abs(residual) < _CALIBRATION_TOL:
            break
        if iterations == 1 and residual < 0.0 and (
            hazard == ceiling or evaluate(ceiling)[2].spread - cds_quote < 0.0
        ):
            raise QuoteUnattainable(
                f"quote {cds_quote} exceeds the spread attainable at hazard {ceiling}"
            )
        if residual < 0.0:
            lo = hazard
        else:
            hi = hazard
        if weights is None:
            weights = _slope_weights(discount.t0, schedule, grid)
        default_w, annuity_w = weights
        slope = (  # ds/dh = (LGD dD/dh - s dA/dh) / A
            lgd * fsum(map(mul, default_w, g.q)) + par.spread * fsum(map(mul, annuity_w, g.q))
        ) / par.annuity
        step = hazard - residual / slope if math.isfinite(slope) and slope > 0.0 else math.nan
        hazard = step if lo < step < hi else 0.5 * (lo + hi)
    return _Fit(curve, _par(par.numerator, par.annuity).spread, iterations)


def calibrate_flat_hazard(
    discount: DiscountCurve,
    schedule: Schedule,
    cds_quote: float,
    recovery: float,
) -> SurvivalCurve:
    """Flat hazard rate that reproduces the given par credit spread (see _calibrate_flat_hazard)."""
    return _calibrate_flat_hazard(discount, schedule, cds_quote, recovery).curve
