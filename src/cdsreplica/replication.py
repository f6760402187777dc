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

Every scenario's ledger is a slice of one per-market cashflow table: the
opening rows, the rows of the periods survived, and the settlement of the
default (or the survival unwind). The table is O(N) rows, each discounted
once; a scenario residual is one exact sum over its slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from math import fsum
from typing import NamedTuple

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
        dfs = {t: discount.discount_factor(t) for t in {e.time for e in self.entries}}
        return _residual([_term(e.leg, e.amount, dfs[e.time]) for e in self.entries])


def _term(leg: Leg, amount: float, df: float) -> float:
    """One row's discounted share of the residual: the CDS counts against the portfolio."""
    return (-amount if leg is Leg.CDS else amount) * df


def _residual(terms: list[float]) -> float:
    """Portfolio (bond + repo + asset swap) minus CDS: the rows' terms, summed exactly.

    fsum is correctly rounded, so the result does not depend on the order of
    the terms, only on which terms a scenario holds.
    """
    return fsum(terms)


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
    """The deal terms resolved onto the grid: what the cashflow table needs beyond it."""

    repo_spread: float
    last_period: int  # 1-based count of periods the portfolio runs
    fwd_price: float
    terminal_price: float  # bond value at unwind on survival
    bond_price: float
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
        repo_spread=repo.spread,
        last_period=idx + 1,
        fwd_price=fwd_price,
        terminal_price=fair,
        bond_price=_risky_bond(g, bond),
        mtm_values=None if clause_enabled else _mtm_values(g, bond.coupon, asw_spread),
        asw_spread=asw_spread,
        cds_spread=cds_spread,
    )


_OPENING_ROWS = 3
_PERIOD_ROWS = 4

_Row = tuple[int, Leg, float]  # (k, leg, amount): a cashflow paid at t_k, t0 for k = 0


def _exact_parts(values: list[float]) -> list[float]:
    """A few floats whose exact sum is that of values: fsum, then fsum of what it
    rounded away, until nothing is left. A sum that is not finite is kept as is."""
    parts: list[float] = []
    rest = fsum(values)
    while rest and math.isfinite(rest):
        parts.append(rest)
        rest = fsum(values + [-p for p in parts])
    return parts or [rest]


class _CashflowTable(NamedTuple):
    """Every cashflow of one market, each written down once.

    body holds the opening rows at t0, the four rows (bond, repo, asset swap,
    CDS) of each period 1..L in date order and the survival unwind at t_L;
    settlements[b-1] holds the rows settling a default in bucket b <= L.
    """

    times: tuple[float, ...]  # t0, t_1, ..., t_N
    p: list[float]  # P at the same times
    body: list[_Row]
    settlements: list[list[_Row]]

    def entries(self, bucket: int | None) -> tuple[CashflowEntry, ...]:
        """Survival, or a default after the unwind, sees the whole body; a default
        in bucket b sees the opening, the periods before b and its settlement."""
        rows = self.body
        if bucket is not None and bucket <= len(self.settlements):
            rows = rows[: _OPENING_ROWS + _PERIOD_ROWS * (bucket - 1)] + self.settlements[bucket - 1]
        return tuple(CashflowEntry(self.times[k], leg, amount) for k, leg, amount in rows)

    def _terms(self, rows: list[_Row]) -> list[float]:
        return [_term(leg, amount, self.p[k]) for k, leg, amount in rows]

    def residuals(self) -> list[float]:
        """Residuals of default buckets 1..L, then of survival, over the terms of their entries.

        Each row is discounted once. The scenarios share the opening and the
        periods survived, so that prefix is carried forward as its
        _exact_parts: each residual is one fsum over O(1) values, equal bit
        for bit to the fsum over its whole slice, because fsum is correctly
        rounded.
        """
        body = self._terms(self.body)
        prefix = _exact_parts(body[:_OPENING_ROWS])
        residuals = []
        for start, settlement in zip(range(_OPENING_ROWS, len(body), _PERIOD_ROWS),
                                     self.settlements):
            residuals.append(_residual(prefix + self._terms(settlement)))
            prefix = _exact_parts(prefix + body[start : start + _PERIOD_ROWS])
        unwind = body[_OPENING_ROWS + _PERIOD_ROWS * len(self.settlements) :]
        residuals.append(_residual(prefix + unwind))
        return residuals


def _cashflow_table(
    g: _Grid, schedule: Schedule, bond: BondSpec, inputs: _LedgerInputs
) -> _CashflowTable:
    """The O(L) rows behind all N + 1 scenario ledgers."""
    last = inputs.last_period
    body: list[_Row] = [
        (0, Leg.BOND, -inputs.bond_price),
        (0, Leg.REPO, inputs.fwd_price),
        (0, Leg.ASSET_SWAP, inputs.bond_price - inputs.fwd_price),
    ]
    settlements: list[list[_Row]] = []
    for k, theta, e in zip(range(1, last + 1), g.theta, g.eps):
        body += [
            (k, Leg.BOND, bond.coupon * theta),
            (k, Leg.REPO, (-e + inputs.repo_spread) * theta),
            (k, Leg.ASSET_SWAP, (-bond.coupon + e + inputs.asw_spread) * theta),
            (k, Leg.CDS, inputs.cds_spread * theta),
        ]
        rolled = 1.0 + e * theta
        settlement = [(k, Leg.BOND, bond.recovery * rolled), (k, Leg.REPO, -rolled)]
        if inputs.mtm_values is not None:
            settlement.append((k, Leg.ASSET_SWAP, inputs.mtm_values[k - 1]))
        settlement.append((k, Leg.CDS, -bond.lgd * rolled))
        settlements.append(settlement)
    body += [(last, Leg.BOND, inputs.terminal_price), (last, Leg.REPO, -inputs.fwd_price)]
    return _CashflowTable((schedule.t0, *schedule.dates), g.p, body, settlements)


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
    g = _grid(discount, survival, schedule)
    inputs = _prepare_inputs(g, schedule, bond, repo, clause_enabled, (asw_spread, cds_spread))
    table = _cashflow_table(g, schedule, bond, inputs)
    return CashflowLedger(entries=table.entries(scenario.default_bucket))


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

    Each residual is the correctly rounded exact sum of its scenario's slice
    of the market's cashflow table; a default after the repo ends sees the
    survival ledger.
    """
    g = _grid(discount, survival, schedule)
    inputs = _prepare_inputs(g, schedule, bond, repo, clause_enabled)
    residuals = _cashflow_table(g, schedule, bond, inputs).residuals()
    residuals += residuals[-1:] * (schedule.n_periods - inputs.last_period)
    rows = [
        ScenarioResidual(scenario.default_bucket, scenario.probability, residual)
        for scenario, residual in zip(_scenarios(_distribution(g.q)), residuals)
    ]
    expected = fsum(r.probability * r.residual for r in rows)
    abs_residuals = [abs(r.residual) for r in rows]
    return ReplicationReport(
        clause_enabled=clause_enabled,
        asw_spread=inputs.asw_spread,
        cds_spread=inputs.cds_spread,
        repo_spread=repo.spread,
        repo_maturity=schedule.dates[inputs.last_period - 1],
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
    seed is the 128-bit Philox key. numpy is imported here, so that pricing
    and the enumerated report never load it.
    """
    import numpy as np

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
