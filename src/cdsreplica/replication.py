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
from itertools import chain
from math import fsum
from typing import Iterable, NamedTuple

from .curves import (
    DefaultDistribution,
    DiscountCurve,
    SurvivalCurve,
    _distribution,
    _Grid,
    _grid,
    default_distribution,
)
from .errors import ConfigError, InconsistentSpecs, NonFiniteResult
from .pricers import (
    BondSpec,
    RepoSpec,
    _finite,
    _mtm_values,
    _par_asw,
    _par_cancelable,
    _repo_on_grid,
    _risky_bond,
)
from .schedule import Schedule


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
        terms = [_term(e.leg, e.amount, dfs[e.time]) for e in self.entries]
        _check_finite([terms], ((e.leg, f"t = {e.time}") for e in self.entries))
        return _residual(terms)


def _term(leg: Leg, amount: float, df: float) -> float:
    """One row's discounted share of the residual: the CDS counts against the portfolio."""
    return (-amount if leg is Leg.CDS else amount) * df


def _check_finite(groups: list[list[float]], labels: Iterable[tuple[Leg, str]]) -> None:
    """NonFiniteResult naming the (leg, date) label of the first term of groups that is not
    finite: one C-level pass when all are, and labels is read only on failure."""
    if not all(map(math.isfinite, chain.from_iterable(groups))):
        leg, date = next(label for label, term in zip(labels, chain.from_iterable(groups))
                         if not math.isfinite(term))
        name = leg.value.replace("_", " ")
        raise NonFiniteResult(f"discounted {name} cashflow at {date} is not a finite number")


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
        return {**vars(self), "scenarios": [s._asdict() for s in self.scenarios]}


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


_OPENING_ROWS = 3
_PERIOD_ROWS = 4

_Row = tuple[int, Leg, float]  # (k, leg, amount): a cashflow paid at t_k, t0 for k = 0


def _exact_parts(values: list[float]) -> list[float]:
    """A few floats whose exact sum is that of values: fsum, then fsum of what it
    rounded away, until nothing is left. values are finite (_check_finite)."""
    parts: list[float] = []
    rest = fsum(values)
    while rest:
        parts.append(rest)
        rest = fsum(values + [-p for p in parts])
    return parts


class _CashflowTable(NamedTuple):
    """Every cashflow of one market, each written down once.

    body holds the opening rows at t0, the four rows (bond, repo, asset swap,
    CDS) of each period 1..L in date order and the survival unwind at t_L;
    settlements[b-1] holds the rows settling a default in bucket b <= L.
    """

    last: int  # L: the periods the repo runs
    times: tuple[float, ...]  # t0, t_1, ..., t_N
    p: list[float]  # P at the same times
    body: list[_Row]
    settlements: list[list[_Row]]
    forward_price: float  # the deal the rows book: X and the two spreads
    asw_spread: float
    cds_spread: float

    def entries(self, bucket: int | None) -> tuple[CashflowEntry, ...]:
        """Survival, or a default after the unwind, sees the whole body; a default
        in bucket b sees the opening, the periods before b and its settlement."""
        rows = self.body
        if bucket is not None and bucket <= self.last:
            rows = rows[: _OPENING_ROWS + _PERIOD_ROWS * (bucket - 1)] + self.settlements[bucket - 1]
        return tuple(CashflowEntry(self.times[k], leg, amount) for k, leg, amount in rows)

    def _terms(self, rows: list[_Row]) -> list[float]:
        return [_term(leg, amount, self.p[k]) for k, leg, amount in rows]

    def residuals(self) -> list[float]:
        """Residuals of default buckets 1..L, then of survival, over the terms of their entries.

        Each row is discounted once, and a discounted row that is not finite
        raises NonFiniteResult. The scenarios share the opening and the
        periods survived, so that prefix is carried forward as its
        _exact_parts: each residual is one fsum over O(1) values, equal bit
        for bit to the fsum over its whole slice, because fsum is correctly
        rounded.
        """
        body = self._terms(self.body)
        settlements = [self._terms(rows) for rows in self.settlements]
        rows = chain(self.body, *self.settlements)
        _check_finite([body, *settlements], ((leg, f"t_{k}") for k, leg, _ in rows))
        prefix = _exact_parts(body[:_OPENING_ROWS])
        residuals = []
        for start, settlement in zip(range(_OPENING_ROWS, len(body), _PERIOD_ROWS), settlements):
            residuals.append(_residual(prefix + settlement))
            prefix = _exact_parts(prefix + body[start : start + _PERIOD_ROWS])
        unwind = body[_OPENING_ROWS + _PERIOD_ROWS * self.last :]
        residuals.append(_residual(prefix + unwind))
        return residuals


def _cashflow_table(
    g: _Grid, schedule: Schedule, bond: BondSpec, repo: RepoSpec, clause_enabled: bool,
    spreads: tuple[float, float] | None = None,
) -> _CashflowTable:
    """The O(L) rows behind all N + 1 scenario ledgers, for the repo resolved onto the grid.

    spreads is (asw, cds); None means the par spread of the swap actually
    traded, with the CDS at that spread plus the repo spread.
    """
    last, fair, fwd_price = _repo_on_grid(g, schedule, bond, repo)
    if not clause_enabled and last < schedule.n_periods:
        raise InconsistentSpecs(
            "close-out at default (no clause) is only defined for a repo to maturity"
        )
    if spreads is None:
        par = _par_cancelable(g, bond, last, fwd_price) if clause_enabled else _par_asw(g, bond)
        spreads = par.spread, par.spread + repo.spread
    asw_spread, cds_spread = spreads
    terminal_price = _finite("forward bond price", fair)
    bond_price = _finite("bond price", _risky_bond(g, bond))
    mtm_values = None if clause_enabled else _mtm_values(g, bond.coupon, asw_spread)
    asw_spread = _finite("asw spread", asw_spread)
    cds_spread = _finite("cds spread", cds_spread)
    body: list[_Row] = [
        (0, Leg.BOND, -bond_price),
        (0, Leg.REPO, fwd_price),
        (0, Leg.ASSET_SWAP, bond_price - fwd_price),
    ]
    settlements: list[list[_Row]] = []
    for k, theta, e in zip(range(1, last + 1), g.theta, g.eps):
        body += [
            (k, Leg.BOND, bond.coupon * theta),
            (k, Leg.REPO, (-e + repo.spread) * theta),
            (k, Leg.ASSET_SWAP, (-bond.coupon + e + asw_spread) * theta),
            (k, Leg.CDS, cds_spread * theta),
        ]
        rolled = 1.0 + e * theta
        settlement = [(k, Leg.BOND, bond.recovery * rolled), (k, Leg.REPO, -rolled)]
        if mtm_values is not None:
            settlement.append((k, Leg.ASSET_SWAP, mtm_values[k - 1]))
        settlement.append((k, Leg.CDS, -bond.lgd * rolled))
        settlements.append(settlement)
    body += [(last, Leg.BOND, terminal_price), (last, Leg.REPO, -fwd_price)]
    times = (schedule.t0, *schedule.dates)
    return _CashflowTable(last, times, g.p, body, settlements, fwd_price, asw_spread, cds_spread)


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
    table = _cashflow_table(g, schedule, bond, repo, clause_enabled, (asw_spread, cds_spread))
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
    table = _cashflow_table(g, schedule, bond, repo, clause_enabled)
    residuals = table.residuals()
    residuals += residuals[-1:] * (schedule.n_periods - table.last)
    rows = [
        ScenarioResidual(scenario.default_bucket, scenario.probability, residual)
        for scenario, residual in zip(_scenarios(_distribution(g.q)), residuals)
    ]
    expected = fsum(r.probability * r.residual for r in rows)
    abs_residuals = [abs(r.residual) for r in rows]
    return ReplicationReport(
        clause_enabled=clause_enabled,
        asw_spread=table.asw_spread,
        cds_spread=table.cds_spread,
        repo_spread=repo.spread,
        repo_maturity=schedule.dates[table.last - 1],
        forward_price=table.forward_price,
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
