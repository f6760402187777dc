"""Scenario-level cashflow ledgers for the CDS replica portfolio.

The replica holds the bond, finances it through the repo, and swaps the
coupon through the asset swap; the CDS leg is what the portfolio is checked
against. The default time is bucketed onto the payment grid, so the measure
is exhausted by N + 1 scenarios and expected values are exact finite sums.

Default unwind, matching the pricing convention: the bond is sold at the
recovery fraction of the money-market-rolled par claim (booked on the bond
leg) and the repo is repaid at the same rolled notional (booked on the repo
leg); the two rows net to -LGD * (1 + eps * theta), identical to the CDS
payout. Booking them gross keeps each leg's enumerated value equal to its
instrument's price.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from math import fsum
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .curves import (
    DefaultDistribution,
    DiscountCurve,
    SurvivalCurve,
    _distribution,
    _Grid,
    _grid,
    default_distribution,
)
from .errors import ConfigError, InconsistentSpecs
from .pricers import (
    BondSpec,
    RepoSpec,
    _forward_bond,
    _mtm_values,
    _par_asw,
    _par_cancelable,
    _risky_bond,
)
from .schedule import Schedule

_FORWARD_PRICE_TOL = 1e-9


class Leg(Enum):
    BOND = "bond"
    REPO = "repo"
    ASSET_SWAP = "asset_swap"
    CDS = "cds"


class CashflowEntry(NamedTuple):
    time: float
    leg: Leg
    amount: float


@dataclass(frozen=True)
class DefaultScenario:
    """Default in bucket k (1-based, settled at t_k) or survival (bucket None)."""

    default_bucket: int | None
    probability: float

    @property
    def is_default(self) -> bool:
        return self.default_bucket is not None


@dataclass(frozen=True)
class CashflowLedger:
    """Every cashflow of one scenario, per leg, on the payment grid (plus t0)."""

    entries: tuple[CashflowEntry, ...]

    def pv(self, discount: DiscountCurve, leg: Leg | None = None) -> float:
        """Discounted value at t0 of the entries (of one leg, or all)."""
        return fsum(
            e.amount * discount.discount_factor(e.time)
            for e in self.entries
            if leg is None or e.leg is leg
        )

    def residual(self, discount: DiscountCurve) -> float:
        """Portfolio (bond + repo + asset swap) minus CDS, discounted to t0."""
        times = {e.time for e in self.entries}
        return _residual(self.entries, {t: discount.discount_factor(t) for t in times})


def _residual(entries: Iterable[CashflowEntry], dfs: Mapping[float, float]) -> float:
    """Portfolio (bond + repo + asset swap) minus CDS, discounted to t0 by dfs[time]."""
    return fsum((-e.amount if e.leg is Leg.CDS else e.amount) * dfs[e.time] for e in entries)


class ScenarioResidual(NamedTuple):
    default_bucket: int | None
    probability: float
    residual: float


@dataclass(frozen=True)
class ReplicationReport:
    """Residuals of the replica portfolio against the CDS, per scenario and expected."""

    clause_enabled: bool
    asw_spread: float
    cds_spread: float
    repo_spread: float
    repo_maturity: float
    forward_price: float
    scenarios: tuple[ScenarioResidual, ...]
    expected_residual: float
    max_abs_residual: float

    def to_dict(self) -> dict:
        return {
            "clause_enabled": self.clause_enabled,
            "asw_spread": self.asw_spread,
            "cds_spread": self.cds_spread,
            "repo_spread": self.repo_spread,
            "repo_maturity": self.repo_maturity,
            "forward_price": self.forward_price,
            "scenarios": [
                {
                    "default_bucket": s.default_bucket,
                    "probability": s.probability,
                    "residual": s.residual,
                }
                for s in self.scenarios
            ],
            "expected_residual": self.expected_residual,
            "max_abs_residual": self.max_abs_residual,
        }


class McCheckResult(NamedTuple):
    estimate: float
    std_error: float


def _scenarios(dist: DefaultDistribution) -> list[DefaultScenario]:
    scenarios = [
        DefaultScenario(default_bucket=k, probability=p)
        for k, p in enumerate(dist.bucket_probs, start=1)
    ]
    scenarios.append(DefaultScenario(default_bucket=None, probability=dist.survival_prob))
    return scenarios


def enumerate_scenarios(survival: SurvivalCurve, schedule: Schedule) -> list[DefaultScenario]:
    """All N + 1 scenarios: default buckets ascending, survival last."""
    return _scenarios(default_distribution(survival, schedule))


@dataclass(frozen=True)
class _LedgerInputs:
    """Per-market quantities shared by every scenario's ledger."""

    schedule: Schedule
    bond: BondSpec
    repo_spread: float
    maturity: float
    last_period: int  # 1-based count of periods the portfolio runs
    fwd_price: float
    terminal_price: float  # bond value at unwind on survival
    bond_price: float
    eps: list[float]
    mtm_values: list[float] | None  # close-outs, only without the clause
    asw_spread: float
    cds_spread: float


def _prepare_inputs(
    g: _Grid,
    schedule: Schedule,
    bond: BondSpec,
    repo: RepoSpec,
    clause_enabled: bool,
    spreads: tuple[float, float] | None = None,
) -> _LedgerInputs:
    """Resolve the repo onto the grid and gather the ledger's inputs.

    spreads is (asw, cds); None means the par spread of the swap actually
    traded, with the CDS at that spread plus the repo spread.
    """
    maturity = schedule.maturity if repo.maturity is None else repo.maturity
    idx = schedule.index_at(maturity)
    fair = _forward_bond(g, bond, idx)
    fwd_price = fair if repo.forward_price is None else repo.forward_price
    at_bond_maturity = idx == schedule.n_periods - 1
    if at_bond_maturity and abs(fwd_price - 1.0) > _FORWARD_PRICE_TOL:
        raise InconsistentSpecs(f"repo to maturity must use forward price 1, got {fwd_price}")
    if fwd_price <= 0.0:
        raise InconsistentSpecs(f"forward price must be positive, got {fwd_price}")
    if not clause_enabled and not at_bond_maturity:
        raise InconsistentSpecs(
            "close-out at default (no clause) is only defined for a repo to maturity"
        )
    if spreads is None:
        par = _par_cancelable(g, bond, idx + 1, fwd_price) if clause_enabled else _par_asw(g, bond)
        spreads = par.spread, par.spread + repo.spread
    asw_spread, cds_spread = spreads
    return _LedgerInputs(
        schedule=schedule,
        bond=bond,
        repo_spread=repo.spread,
        maturity=schedule.dates[idx],
        last_period=idx + 1,
        fwd_price=fwd_price,
        terminal_price=fair,
        bond_price=_risky_bond(g, bond),
        eps=g.eps,
        mtm_values=None if clause_enabled else _mtm_values(g, bond.coupon, asw_spread),
        asw_spread=asw_spread,
        cds_spread=cds_spread,
    )


def _scenario_entries(inputs: _LedgerInputs, scenario: DefaultScenario) -> tuple[CashflowEntry, ...]:
    schedule = inputs.schedule
    bond = inputs.bond
    bucket = scenario.default_bucket
    if bucket is not None and bucket > inputs.last_period:
        bucket = None  # default after unwind: the portfolio never sees it

    entries = [
        CashflowEntry(schedule.t0, Leg.BOND, -inputs.bond_price),
        CashflowEntry(schedule.t0, Leg.REPO, inputs.fwd_price),
        CashflowEntry(schedule.t0, Leg.ASSET_SWAP, inputs.bond_price - inputs.fwd_price),
    ]

    surviving_periods = inputs.last_period if bucket is None else bucket - 1
    for k in range(1, surviving_periods + 1):
        t = schedule.dates[k - 1]
        theta = schedule.accruals[k - 1]
        e = inputs.eps[k - 1]
        entries.append(CashflowEntry(t, Leg.BOND, bond.coupon * theta))
        entries.append(CashflowEntry(t, Leg.REPO, (-e + inputs.repo_spread) * theta))
        entries.append(
            CashflowEntry(t, Leg.ASSET_SWAP, (-bond.coupon + e + inputs.asw_spread) * theta)
        )
        entries.append(CashflowEntry(t, Leg.CDS, inputs.cds_spread * theta))

    if bucket is None:
        entries.append(CashflowEntry(inputs.maturity, Leg.BOND, inputs.terminal_price))
        entries.append(CashflowEntry(inputs.maturity, Leg.REPO, -inputs.fwd_price))
    else:
        t = schedule.dates[bucket - 1]
        rolled = 1.0 + inputs.eps[bucket - 1] * schedule.accruals[bucket - 1]
        entries.append(CashflowEntry(t, Leg.BOND, bond.recovery * rolled))
        entries.append(CashflowEntry(t, Leg.REPO, -rolled))
        if inputs.mtm_values is not None:
            entries.append(CashflowEntry(t, Leg.ASSET_SWAP, inputs.mtm_values[bucket - 1]))
        entries.append(CashflowEntry(t, Leg.CDS, -bond.lgd * rolled))

    return tuple(entries)


def portfolio_ledger(
    discount: DiscountCurve,
    survival: SurvivalCurve,
    schedule: Schedule,
    bond: BondSpec,
    repo: RepoSpec,
    asw_spread: float,
    cds_spread: float,
    clause_enabled: bool,
    scenario: DefaultScenario,
) -> CashflowLedger:
    """Materialize every cashflow of the replica and the CDS for one scenario.

    The asset swap and the CDS mature with the repo; a default after the repo
    maturity never touches the (already unwound) portfolio.
    """
    inputs = _prepare_inputs(
        _grid(discount, survival, schedule), schedule, bond, repo, clause_enabled,
        (asw_spread, cds_spread),
    )
    return CashflowLedger(entries=_scenario_entries(inputs, scenario))


def replication_report(
    discount: DiscountCurve,
    survival: SurvivalCurve,
    schedule: Schedule,
    bond: BondSpec,
    repo: RepoSpec,
    clause_enabled: bool,
) -> ReplicationReport:
    """Price the replica at par spreads and check it scenario by scenario.

    The asset swap spread is the par value of the swap actually traded
    (break-clause if the clause is on, standard otherwise) and the CDS runs
    at that spread plus the repo spread. With the clause on, every scenario
    residual vanishes; without it, the default scenarios leak the discounted
    close-out amounts. max_abs_residual is NaN if any residual is.
    """
    g = _grid(discount, survival, schedule)
    inputs = _prepare_inputs(g, schedule, bond, repo, clause_enabled)
    dfs = dict(zip([schedule.t0, *schedule.dates], g.p))
    rows = [
        ScenarioResidual(
            default_bucket=scenario.default_bucket,
            probability=scenario.probability,
            residual=_residual(_scenario_entries(inputs, scenario), dfs),
        )
        for scenario in _scenarios(_distribution(g.q))
    ]
    expected = fsum(r.probability * r.residual for r in rows)
    abs_residuals = [abs(r.residual) for r in rows]
    return ReplicationReport(
        clause_enabled=clause_enabled,
        asw_spread=inputs.asw_spread,
        cds_spread=inputs.cds_spread,
        repo_spread=repo.spread,
        repo_maturity=inputs.maturity,
        forward_price=inputs.fwd_price,
        scenarios=tuple(rows),
        expected_residual=expected,
        max_abs_residual=(
            math.nan if any(map(math.isnan, abs_residuals)) else max(abs_residuals)
        ),
    )


def mc_check(
    discount: DiscountCurve,
    survival: SurvivalCurve,
    schedule: Schedule,
    bond: BondSpec,
    repo: RepoSpec,
    clause_enabled: bool,
    n_paths: int,
    seed: int,
) -> McCheckResult:
    """Sampling cross-check of the enumeration: mean and standard error of the residual.

    Default buckets are drawn with a counter-based generator (Philox keyed on
    the seed), so draw i is a pure function of (seed, i): results are bitwise
    reproducible for a given seed regardless of how paths are evaluated. The
    seed is the 128-bit Philox key.
    """
    if n_paths < 1000:
        raise ConfigError(f"mc paths: need at least 1000, got {n_paths}")
    if not 0 <= seed < 2**128:
        raise ConfigError(f"mc seed: must lie in [0, 2**128), got {seed}")
    report = replication_report(discount, survival, schedule, bond, repo, clause_enabled)
    residuals = np.array([r.residual for r in report.scenarios])
    cumulative = np.cumsum([r.probability for r in report.scenarios])
    cumulative[-1] = 1.0  # guard the top bucket against rounding
    uniforms = np.random.Generator(np.random.Philox(key=seed)).random(n_paths)
    sampled = residuals[np.searchsorted(cumulative, uniforms, side="right")]
    estimate = float(sampled.mean())
    std_error = float(sampled.std(ddof=1) / math.sqrt(n_paths))
    return McCheckResult(estimate=estimate, std_error=std_error)
