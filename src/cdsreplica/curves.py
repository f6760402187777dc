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
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import DegenerateAnnuity, InvalidInterval, QuoteUnattainable, TimeBeforeAnchor
from .schedule import Schedule

_CALIBRATION_TOL = 1e-12
_CALIBRATION_MAX_ITER = 200
_HAZARD_BRACKET = (0.0, 10.0)
_DISTRIBUTION_TOL = 1e-12


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
    t0: float, node_times: tuple[float, ...], rates: tuple[float, ...], times: Sequence[float]
) -> list[float]:
    """exp(-integral of the piecewise-constant rate over [t0, t]) at each ascending t.

    One pass over the nodes: the integral up to the current segment's start
    carries over from one time to the next; the last rate extrapolates flat.
    """
    if times[0] < t0:
        raise TimeBeforeAnchor(f"time {times[0]} precedes curve anchor {t0}")
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


@dataclass(frozen=True)
class DiscountCurve:
    """Deterministic discount curve P(t0, t) = exp(-integral of the forward rate)."""

    node_times: tuple[float, ...]
    fwd_rates: tuple[float, ...]
    t0: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_times", tuple(float(t) for t in self.node_times))
        object.__setattr__(self, "fwd_rates", tuple(float(r) for r in self.fwd_rates))
        _validate_segments(self.t0, self.node_times, self.fwd_rates)

    @classmethod
    def flat(cls, rate: float, t0: float = 0.0) -> "DiscountCurve":
        return cls(node_times=(t0 + 1.0,), fwd_rates=(rate,), t0=t0)

    def discount_factor(self, t: float) -> float:
        return _exp_integrals(self.t0, self.node_times, self.fwd_rates, (t,))[0]

    def forward_rate(self, t_start: float, t_end: float) -> float:
        """Simple-compounded forward rate over (t_start, t_end]: the model's floating fixing."""
        if t_end <= t_start:
            raise InvalidInterval(f"need t_start < t_end, got ({t_start}, {t_end})")
        p_start, p_end = _exp_integrals(self.t0, self.node_times, self.fwd_rates, (t_start, t_end))
        return (p_start / p_end - 1.0) / (t_end - t_start)


@dataclass(frozen=True)
class SurvivalCurve:
    """Issuer survival curve Q(t0, t) = exp(-integral of the hazard rate)."""

    node_times: tuple[float, ...]
    hazards: tuple[float, ...]
    t0: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_times", tuple(float(t) for t in self.node_times))
        object.__setattr__(self, "hazards", tuple(float(h) for h in self.hazards))
        _validate_segments(self.t0, self.node_times, self.hazards)
        if any(h < 0.0 for h in self.hazards):
            raise ValueError("hazard rates must be non-negative")

    @classmethod
    def flat(cls, hazard: float, t0: float = 0.0) -> "SurvivalCurve":
        return cls(node_times=(t0 + 1.0,), hazards=(hazard,), t0=t0)

    def survival_prob(self, t: float) -> float:
        return _exp_integrals(self.t0, self.node_times, self.hazards, (t,))[0]


class _Grid(NamedTuple):
    """One market on one schedule; every pricer is a short sum over these lists.

    p and q hold P and Q at [t0, t_1, ..., t_N]; theta and eps hold the accrual
    and the floating fixing of periods 1..N, with eps_k * theta_k = P_{k-1} / P_k - 1.
    """

    theta: tuple[float, ...]
    p: list[float]
    q: list[float]
    eps: list[float]

    def window(self, start: int, stop: int) -> "_Grid":
        """The grid of periods start+1..stop, anchored at t_start."""
        return _Grid(
            self.theta[start:stop], self.p[start : stop + 1], self.q[start : stop + 1],
            self.eps[start:stop],
        )


def _grid(discount: DiscountCurve, survival: SurvivalCurve | None, schedule: Schedule) -> _Grid:
    """theta, P, Q and eps of the market, one pass per curve; no survival curve means Q = 1."""
    times = [schedule.t0, *schedule.dates]
    p = _exp_integrals(discount.t0, discount.node_times, discount.fwd_rates, times)
    if not all(df > 0.0 for df in p):
        raise DegenerateAnnuity("a discount factor on the payment grid is not positive")
    if survival is None:
        q = [1.0] * len(times)
    else:
        q = _exp_integrals(survival.t0, survival.node_times, survival.hazards, times)
    theta = schedule.accruals
    eps = [(p0 / p1 - 1.0) / th for p0, p1, th in zip(p, p[1:], theta)]
    return _Grid(theta, p, q, eps)


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
        if any(p < 0.0 for p in self.bucket_probs):
            raise ValueError("bucket probabilities must be non-negative")
        if not 0.0 <= self.survival_prob <= 1.0:
            raise ValueError("survival probability must lie in [0, 1]")
        total = math.fsum(self.bucket_probs) + self.survival_prob
        if abs(total - 1.0) > _DISTRIBUTION_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")


def _distribution(q: list[float]) -> DefaultDistribution:
    """p_k = Q(t_{k-1}) - Q(t_k) from Q at [t0, t_1, ..., t_N]."""
    return DefaultDistribution(
        bucket_probs=[q0 - q1 for q0, q1 in zip(q, q[1:])], survival_prob=q[-1]
    )


def default_distribution(curve: SurvivalCurve, schedule: Schedule) -> DefaultDistribution:
    """Bucket the default time onto the schedule: p_k = Q(t_{k-1}) - Q(t_k)."""
    times = [schedule.t0, *schedule.dates]
    return _distribution(_exp_integrals(curve.t0, curve.node_times, curve.hazards, times))


def forward_fixings(discount: DiscountCurve, schedule: Schedule) -> tuple[float, ...]:
    """Floating fixing of each period: set at t_{k-1}, paid at t_k."""
    return tuple(_grid(discount, None, schedule).eps)


def calibrate_flat_hazard(
    discount: DiscountCurve,
    schedule: Schedule,
    cds_quote: float,
    recovery: float,
) -> SurvivalCurve:
    """Flat hazard rate that reproduces the given par credit spread.

    Bisection on the bracket [0, 10]; the par spread is strictly increasing
    in the hazard, so the first bracket check is also the attainability test.
    Stops when the spread residual is below 1e-12 (capped at 200 iterations).
    The discount factors are computed once; each step recomputes only Q.
    """
    from .pricers import _par_cds

    if cds_quote < 0.0:
        raise ValueError("cds quote must be non-negative")
    if not 0.0 <= recovery < 1.0:
        raise ValueError("recovery must lie in [0, 1)")
    if cds_quote == 0.0:
        return SurvivalCurve.flat(0.0, t0=discount.t0)

    grid = _grid(discount, None, schedule)
    times = [schedule.t0, *schedule.dates]

    def residual(hazard: float) -> float:
        curve = SurvivalCurve.flat(hazard, t0=discount.t0)
        q = _exp_integrals(curve.t0, curve.node_times, curve.hazards, times)
        return _par_cds(grid._replace(q=q), recovery).spread - cds_quote

    lo, hi = _HAZARD_BRACKET
    if residual(hi) < 0.0:
        raise QuoteUnattainable(f"quote {cds_quote} exceeds the spread attainable at hazard {hi}")
    mid = hi
    for _ in range(_CALIBRATION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        res = residual(mid)
        if abs(res) < _CALIBRATION_TOL:
            break
        if res < 0.0:
            lo = mid
        else:
            hi = mid
    return SurvivalCurve.flat(mid, t0=discount.t0)
