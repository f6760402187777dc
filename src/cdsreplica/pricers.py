"""Closed-form pricers for the stylized bond, floater, swaps, and CDS.

All prices are per unit notional at the anchor t0, and all instruments share
one payment grid. The issuer may default only immediately before a payment
date; a default in period k is settled on t_k against the money-market-rolled
par claim, i.e. every default-contingent payment (bond and floater recovery,
CDS protection) is scaled by the period accrual (1 + eps_{k-1} * theta_k).
Discounted, such a payment is worth its amount times P(t_{k-1}). This is the
convention under which a floater with full recovery is worth par on every
reset date, which in turn makes the CDS and the break-clause asset swap
spreads coincide exactly rather than approximately.

Swap values are quoted from the bond holder's perspective: the holder pays
the bond coupon c, receives the floating fixing plus the spread, and settles
the bond's pull-to-par upfront.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import mul, truediv
from typing import NamedTuple

from ._record import Record
from .curves import DiscountCurve, SurvivalCurve, _Grid, _grid, _riskless, fsum
from .errors import CrossedMarket, DegenerateAnnuity, InconsistentSpecs, NonFiniteResult
from .schedule import Schedule, _real

__all__ = [
    "BondSpec",
    "ImpliedRepoSpreads",
    "MtmProfile",
    "RepoSpec",
    "SpreadResult",
    "annuity_defaultable",
    "annuity_riskfree",
    "cancelable_asw_pv",
    "default_leg_pv",
    "early_termination_pv",
    "forward_bond_price",
    "implied_repo_spreads",
    "mtm_profile",
    "par_asw_spread",
    "par_cancelable_asw_spread",
    "par_cancelable_asw_spread_generalized",
    "par_cds_spread",
    "price_riskfree_bond",
    "price_risky_bond",
    "price_risky_floater",
    "price_sheet",
    "standard_asw_pv",
]

_FORWARD_PRICE_TOL = 1e-9
# The largest par spread (per year) a pricer returns. Every spread row of the
# replica's cashflow table is rounded by up to 2**-53 * |s| * theta * P, so past
# 1e6 one row alone can carry 1e-10, the replication gate's tolerance: the
# gate could then fail on rounding only. The spread at the top of the
# calibration bracket (hazard 10, about 2.2e4 * LGD * e^r on an annual grid)
# stays below it.
_MAX_PAR_SPREAD = 1e6


class BondSpec(Record):
    """Fixed-coupon bullet bond of the defaultable issuer, unit notional; two floats (_real)."""

    coupon: float
    recovery: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "coupon", _real("coupon", self.coupon))
        if not math.isfinite(self.coupon):
            raise ValueError("coupon must be a finite number")
        object.__setattr__(self, "recovery", _recovery(self.recovery))

    @property
    def lgd(self) -> float:
        return 1.0 - self.recovery


class RepoSpec(Record):
    """Financing terms: periodic floating + spread against the bond, unit notional.

    Each field is a float (_real); maturity None means repo to maturity (the bond's
    last payment date), forward_price None the fair value (1 at the bond's maturity,
    the survival-conditional forward bond price before it).
    """

    spread: float
    maturity: float | None = None
    forward_price: float | None = None

    def __post_init__(self) -> None:
        for field in ("spread", "maturity", "forward_price"):
            name, value = "repo " + field.replace("_", " "), getattr(self, field)
            if value is not None or field == "spread":
                object.__setattr__(self, field, _real(name, value))
                if not math.isfinite(getattr(self, field)):
                    raise ValueError(f"{name} must be a finite number")


class SpreadResult(Record):
    """Par spread together with its decomposition numerator / annuity."""

    spread: float
    numerator: float
    annuity: float


class MtmProfile(Record):
    """Holder-side value of the remaining swap payments just before each t_k.

    values[k-1] covers payments at t_k..t_N, the period-k payment included:
    a default immediately before t_k cancels the payment otherwise due at t_k.
    """

    values: tuple[float, ...]


class ImpliedRepoSpreads(NamedTuple):
    repo: float
    reverse_repo: float


def _recovery(recovery: float) -> float:
    """recovery as a float (_real) in [0, 1], else ValueError; for every pricer that takes one."""
    recovery = _real("recovery", recovery)
    if not 0.0 <= recovery <= 1.0:  # also rejects NaN
        raise ValueError("recovery must lie in [0, 1]")
    return recovery


def _finite(what: str, value: float) -> float:
    """value itself, or NonFiniteResult naming what overflowed or came out NaN."""
    if not math.isfinite(value):
        raise NonFiniteResult(f"{what} is {value}, not a finite number")
    return value


def _par(numerator: float, annuity: float, cap: float = _MAX_PAR_SPREAD) -> SpreadResult:
    """The one annuity guard: every par spread is numerator / annuity, finite and
    at most cap in magnitude, over a finite positive annuity. The cap is
    _MAX_PAR_SPREAD for every spread returned; only the calibration's trial
    points lift it."""
    if not annuity > 0.0:
        raise DegenerateAnnuity(f"annuity {annuity} is not positive")
    spread = _finite("par spread", numerator / _finite("annuity", annuity))
    if abs(spread) > cap:
        raise DegenerateAnnuity(
            f"par spread {spread} = {numerator} / annuity {annuity} exceeds"
            f" {cap:g} in magnitude"
        )
    return SpreadResult(spread=spread, numerator=numerator, annuity=annuity)


def _annuity(g: _Grid, _=None) -> float:
    return fsum([theta * p * q for theta, p, q in zip(g.theta, g.p[1:], g.q[1:])])


def _default_leg(g: _Grid, _=None) -> float:
    return fsum(map(mul, g.p, g.dq))


def _floater_coupons(g: _Grid, _=None) -> float:
    return fsum([e * theta * p * q for e, theta, p, q in zip(g.eps, g.theta, g.p[1:], g.q[1:])])


def _bond_coupons(g: _Grid, coupon: float) -> float:
    return fsum([coupon * theta * p * q for theta, p, q in zip(g.theta, g.p[1:], g.q[1:])])


def _note(g: _Grid, coupons: float, recovery: float) -> float:
    """Coupons worth `coupons` and the principal while the issuer survives, recovery on default."""
    return coupons + g.p[-1] * g.q[-1] + recovery * g.kept(_default_leg)


def _risky_bond(g: _Grid, bond: BondSpec) -> float:
    return _note(g, g.kept(_bond_coupons, bond.coupon), bond.recovery)


def _par_cds(g: _Grid, recovery: float, cap: float = _MAX_PAR_SPREAD) -> SpreadResult:
    return _par((1.0 - recovery) * g.kept(_default_leg), g.kept(_annuity), cap)


def _par_asw(g: _Grid, bond: BondSpec) -> SpreadResult:
    riskless = g.kept(_riskless)
    return _par(_risky_bond(riskless, bond) - _risky_bond(g, bond), riskless.kept(_annuity))


def _par_cancelable(g: _Grid, bond: BondSpec, periods: int, forward_price: float) -> SpreadResult:
    """(X - floater) over the defaultable annuity, both on the first `periods` periods."""
    g = g.window(0, periods)
    return _par(forward_price - _note(g, g.kept(_floater_coupons), bond.recovery), g.kept(_annuity))


def _swap_payments(g: _Grid, coupon: float, spread: float) -> list[float]:
    """Discounted holder-side swap payment of each period: (-c + eps + s) * theta * P."""
    return [(-coupon + e + spread) * theta * p for e, theta, p in zip(g.eps, g.theta, g.p[1:])]


def _mtm_values(g: _Grid, coupon: float, spread: float) -> list[float]:
    """values[k-1] = the discounted payments of periods k..N over P_k (mtm_profile): running
    sums from the last payment back, from 0.0 as a loop adds them, each over its P_k."""
    tails = accumulate(reversed(_swap_payments(g, coupon, spread)), initial=0.0)
    next(tails)  # the empty tail past t_N
    values = list(map(truediv, tails, reversed(g.p)))
    values.reverse()
    return values


def _early_termination(g: _Grid, coupon: float, spread: float) -> float:
    """-sum of pay_k * (Q_0 - Q_k): each swap payment forfeited if default comes first."""
    payments = _swap_payments(g, coupon, spread)
    return -fsum([pay * (g.q[0] - q) for pay, q in zip(payments, g.q[1:])])


def _forward_bond(g: _Grid, bond: BondSpec, idx: int) -> float:
    """Bond value at t_{idx+1} given survival to it: the tail grid, rebased."""
    if idx == len(g.theta) - 1:
        return 1.0
    weight = g.p[idx + 1] * g.q[idx + 1]
    if not weight > 0.0:
        raise DegenerateAnnuity(
            f"forward bond price at t_{idx + 1}: P * Q is {weight}, not positive"
        )
    return _risky_bond(g.window(idx + 1, len(g.theta)), bond) / weight


def _repurchase_price(schedule: Schedule, idx: int, forward_price: float) -> float:
    """forward_price as the repurchase price X of a repo ending at t_{idx+1}: X must be
    positive, and 1 when the repo runs to the bond's maturity."""
    if idx == schedule.n_periods - 1 and abs(forward_price - 1.0) > _FORWARD_PRICE_TOL:
        raise InconsistentSpecs(f"repo to maturity must use forward price 1, got {forward_price}")
    if forward_price <= 0.0:
        raise InconsistentSpecs(f"forward price must be positive, got {forward_price}")
    return forward_price


def _repo_on_grid(
    g: _Grid, schedule: Schedule, bond: BondSpec, repo: RepoSpec
) -> tuple[int, float, float]:
    """The repo resolved onto the grid: (L, fair, X).

    L is the number of periods the repo runs, fair the forward bond price at
    t_L and X the repurchase price, fair unless the repo sets it. A repo to
    the bond's maturity repurchases at par; X must be positive.
    """
    maturity = schedule.maturity if repo.maturity is None else repo.maturity
    idx = schedule.index_at(maturity)
    fair = _forward_bond(g, bond, idx)
    forward_price = fair if repo.forward_price is None else repo.forward_price
    return idx + 1, fair, _repurchase_price(schedule, idx, forward_price)


def price_riskfree_bond(discount: DiscountCurve, schedule: Schedule, coupon: float) -> float:
    """Sum of c * theta_k * P(t_k) plus P(t_N)."""
    coupon = _real("coupon", coupon)
    g = _grid(discount, None, schedule)
    price = _note(g, g.kept(_bond_coupons, coupon), 0.0)
    return _finite("risk-free bond price", price)


def default_leg_pv(discount: DiscountCurve, survival: SurvivalCurve, schedule: Schedule) -> float:
    """PV of a unit payment on default, settled at the bucket's payment date.

    The settlement is grossed up by the period accrual (1 + eps * theta), so
    each bucket contributes P(t_{k-1}) * (Q(t_{k-1}) - Q(t_k)).
    """
    return _finite("default leg PV", _grid(discount, survival, schedule).kept(_default_leg))


def price_risky_bond(
    discount: DiscountCurve,
    survival: SurvivalCurve,
    schedule: Schedule,
    bond: BondSpec,
) -> float:
    """Coupons and principal while the issuer survives, recovery on default."""
    return _finite("risky bond price", _risky_bond(_grid(discount, survival, schedule), bond))


def price_risky_floater(
    discount: DiscountCurve,
    survival: SurvivalCurve,
    schedule: Schedule,
    recovery: float,
) -> float:
    """Floating-rate note of the same issuer: fixings + principal, recovery on default."""
    g = _grid(discount, survival, schedule)
    floater = _note(g, g.kept(_floater_coupons), _recovery(recovery))
    return _finite("risky floater price", floater)


def annuity_riskfree(discount: DiscountCurve, schedule: Schedule) -> float:
    """PV of a unit spread paid on every date: sum of theta_k * P(t_k)."""
    return _finite("risk-free annuity", _grid(discount, None, schedule).kept(_annuity))


def annuity_defaultable(
    discount: DiscountCurve, survival: SurvivalCurve, schedule: Schedule
) -> float:
    """PV of a unit spread paid while the issuer survives: sum of theta_k * P_k * Q_k."""
    return _finite("defaultable annuity", _grid(discount, survival, schedule).kept(_annuity))


def par_cds_spread(
    discount: DiscountCurve,
    survival: SurvivalCurve,
    schedule: Schedule,
    recovery: float,
) -> SpreadResult:
    """Spread equating the premium leg to the protection leg LGD * default_leg_pv."""
    return _par_cds(_grid(discount, survival, schedule), _recovery(recovery))


def par_asw_spread(
    discount: DiscountCurve,
    survival: SurvivalCurve,
    schedule: Schedule,
    bond: BondSpec,
) -> SpreadResult:
    """Standard asset swap: (risk-free bond - risky bond) over the risk-free annuity."""
    return _par_asw(_grid(discount, survival, schedule), bond)


def par_cancelable_asw_spread(
    discount: DiscountCurve,
    survival: SurvivalCurve,
    schedule: Schedule,
    bond: BondSpec,
) -> SpreadResult:
    """Asset swap killed at default with zero close-out: (1 - floater) over the defaultable annuity."""
    return par_cancelable_asw_spread_generalized(
        discount, survival, schedule, bond, schedule.maturity, 1.0
    )


def standard_asw_pv(
    discount: DiscountCurve,
    survival: SurvivalCurve,
    schedule: Schedule,
    bond: BondSpec,
    spread: float,
) -> float:
    """Holder PV of the standard asset swap package at the given spread.

    The swap runs to t_N regardless of default; the upfront is the
    pull-to-par of the bond.
    """
    spread = _real("spread", spread)
    g = _grid(discount, survival, schedule)
    pv = fsum(_swap_payments(g, bond.coupon, spread)) + (_risky_bond(g, bond) - 1.0)
    return _finite("standard asset swap PV", pv)


def cancelable_asw_pv(
    discount: DiscountCurve,
    survival: SurvivalCurve,
    schedule: Schedule,
    bond: BondSpec,
    spread: float,
) -> float:
    """Holder PV of the break-clause asset swap: payments gated on survival."""
    spread = _real("spread", spread)
    g = _grid(discount, survival, schedule)
    payments = _swap_payments(g, bond.coupon, spread)
    pv = fsum([pay * q for pay, q in zip(payments, g.q[1:])]) + (_risky_bond(g, bond) - 1.0)
    return _finite("cancelable asset swap PV", pv)


def mtm_profile(
    discount: DiscountCurve, schedule: Schedule, bond: BondSpec, spread: float
) -> MtmProfile:
    """Value at each t_k (just before payment) of the remaining swap payments.

    Deterministic rates make the conditional expectation a plain discounted
    tail sum: values[k-1] = sum over h >= k of (-c + eps + s) * theta_h * P(t_k, t_h).
    """
    spread = _real("spread", spread)
    values = tuple(_mtm_values(_grid(discount, None, schedule), bond.coupon, spread))
    for k, value in enumerate(values, start=1):
        if not math.isfinite(value):
            _finite(f"mark-to-market value at t_{k}", value)
    return MtmProfile(values=values)


def early_termination_pv(
    discount: DiscountCurve,
    survival: SurvivalCurve,
    schedule: Schedule,
    bond: BondSpec,
    spread: float,
) -> float:
    """Expected holder P&L of the zero-close-out break clause.

    Minus the probability-weighted discounted mark-to-market forfeited at
    default; the difference of a unilateral DVA and CVA, both under the
    issuer's default law. Summed by payment date, each swap payment is
    forfeited with the probability of a default at or before it:
    -sum of pay_k * (Q(t0) - Q(t_k)).
    """
    spread = _real("spread", spread)
    etp = _early_termination(_grid(discount, survival, schedule), bond.coupon, spread)
    return _finite("early termination PV", etp)


def forward_bond_price(
    discount: DiscountCurve,
    survival: SurvivalCurve,
    schedule: Schedule,
    bond: BondSpec,
    repo_maturity: float,
) -> float:
    """Bond value at repo maturity conditional on the issuer surviving to it.

    Curves restrict to [T_r, t_N] via the ratios P(t0, t) / P(t0, T_r) and
    Q(t0, t) / Q(t0, T_r); at T_r = t_N this is the unit redemption. Before
    t_N, a P(T_r) * Q(T_r) that underflows to 0 raises DegenerateAnnuity.
    """
    idx = schedule.index_at(_real("repo_maturity", repo_maturity))
    price = _forward_bond(_grid(discount, survival, schedule), bond, idx)
    return _finite("forward bond price", price)


def par_cancelable_asw_spread_generalized(
    discount: DiscountCurve,
    survival: SurvivalCurve,
    schedule: Schedule,
    bond: BondSpec,
    repo_maturity: float,
    forward_price: float,
) -> SpreadResult:
    """Break-clause asset swap par spread when the repo ends at T_r <= t_N.

    (X - floater(T_r)) over the defaultable annuity to T_r; reduces to the
    plain break-clause spread at T_r = t_N with X = 1.
    """
    idx = schedule.index_at(_real("repo_maturity", repo_maturity))
    forward_price = _repurchase_price(schedule, idx, _real("forward_price", forward_price))
    return _par_cancelable(_grid(discount, survival, schedule), bond, idx + 1, forward_price)


def price_sheet(
    discount: DiscountCurve,
    survival: SurvivalCurve,
    schedule: Schedule,
    bond: BondSpec,
    repo: RepoSpec,
) -> dict[str, float]:
    """Prices, annuities, every par spread and the clause's PV of one market, by name.

    Each number is its public pricer's result. The forward bond price and the
    generalized break-clause spread are added only when the repo ends before
    the bond matures; the repo is validated as for the replication.
    """
    market = (discount, survival, schedule)
    s_asw = par_asw_spread(*market, bond).spread
    sheet = {
        "riskfree_bond_price": price_riskfree_bond(discount, schedule, bond.coupon),
        "risky_bond_price": price_risky_bond(*market, bond),
        "risky_floater_price": price_risky_floater(*market, bond.recovery),
        "annuity_riskfree": annuity_riskfree(discount, schedule),
        "annuity_defaultable": annuity_defaultable(*market),
        "cds_par_spread": par_cds_spread(*market, bond.recovery).spread,
        "asw_par_spread": s_asw,
        "cancelable_asw_par_spread": par_cancelable_asw_spread(*market, bond).spread,
        "early_termination_pv": early_termination_pv(*market, bond, s_asw),
    }
    g = _grid(*market)
    last, fair, forward_price = _repo_on_grid(g, schedule, bond, repo)
    if last < schedule.n_periods:
        sheet["forward_bond_price"] = _finite("forward bond price", fair)
        sheet["generalized_cancelable_asw_par_spread"] = (
            _par_cancelable(g, bond, last, forward_price).spread
        )
    return sheet


def implied_repo_spreads(
    cds_bid: float, cds_ask: float, aswc_bid: float, aswc_ask: float
) -> ImpliedRepoSpreads:
    """Repo and reverse-repo spreads implied by CDS and break-clause ASW quotes."""
    cds_bid, cds_ask = _real("cds_bid", cds_bid), _real("cds_ask", cds_ask)
    aswc_bid, aswc_ask = _real("aswc_bid", aswc_bid), _real("aswc_ask", aswc_ask)
    if cds_bid > cds_ask:
        raise CrossedMarket(f"cds bid {cds_bid} exceeds ask {cds_ask}")
    if aswc_bid > aswc_ask:
        raise CrossedMarket(f"asw bid {aswc_bid} exceeds ask {aswc_ask}")
    return ImpliedRepoSpreads(
        repo=_finite("implied repo spread", cds_ask - aswc_bid),
        reverse_repo=_finite("implied reverse repo spread", cds_bid - aswc_ask),
    )
