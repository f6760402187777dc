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

Every scenario's ledger is a slice of one per-market cashflow table, held
as four blocks of per-leg columns of terms:
- the opening at t0: a bond, a repo and an asset swap column of one entry;
- the coupons of periods 1..L: a bond, a repo, an asset swap and a CDS
  column, entry k paid at t_k;
- the settlement of a default in bucket b = 1..L, paid at t_b: a bond, a
  repo and a CDS column, and an asset swap column (the close-out) with the
  clause off;
- the survival unwind at t_L: a bond and a repo column of one entry.
A default in bucket b sees the opening, the coupons before b and its
settlement; survival sees the opening, every coupon and the unwind. Each
amount is booked times the weight of its date. The report books P, so its
table holds discounted terms, and a scenario residual is one exact sum over
its slice, with the CDS negated: the prefix sums the scenarios share are
formed once and proved exact in one pass (_CashflowTable.residuals), and the
terms are checked for finiteness only when a sum is not. The ledger books
ones, and discounts its entries apart, through the discount curve.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import accumulate, repeat
from operator import mul, neg
from typing import Callable, Iterable, NamedTuple, Sequence

from ._record import Record
from .curves import (
    DefaultDistribution,
    DiscountCurve,
    SurvivalCurve,
    _Grid,
    _grid,
    default_distribution,
    fsum,
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
from .schedule import Schedule, _is_integer, _real

__all__ = [
    "CashflowEntry",
    "CashflowLedger",
    "DefaultScenario",
    "Leg",
    "McCheckResult",
    "ReplicationReport",
    "ScenarioResidual",
    "enumerate_scenarios",
    "mc_check",
    "portfolio_ledger",
    "replication_report",
]

class Leg(Enum):
    BOND = "bond"
    REPO = "repo"
    ASSET_SWAP = "asset_swap"
    CDS = "cds"


class CashflowEntry(NamedTuple):
    time: float
    leg: Leg
    amount: float


class DefaultScenario(Record):
    """Default in bucket k (1-based, settled at t_k) or survival (bucket None)."""

    default_bucket: int | None
    probability: float


class CashflowLedger(Record):
    """Every cashflow of one scenario, per leg, on the payment grid (plus t0)."""

    entries: tuple[CashflowEntry, ...]

    def pv(self, discount: DiscountCurve, leg: Leg | None = None) -> float:
        """Discounted value at t0 of the entries (of one leg, or all), the CDS counted
        positive; a discounted entry that is not finite raises NonFiniteResult."""
        if leg is not None and not isinstance(leg, Leg):
            raise ValueError(f"leg must be a Leg or None, got {leg!r}")
        legs = Leg if leg is None else (leg,)
        return fsum(t for _, terms in self._columns(discount, legs) for t in terms)

    def residual(self, discount: DiscountCurve) -> float:
        """Portfolio (bond + repo + asset swap) minus CDS, discounted to t0."""
        return fsum([t for c in self._columns(discount, Leg) for t in _signed(*c)])

    def _columns(self, discount: DiscountCurve, legs: Iterable[Leg]) -> list[_Column]:
        """Each of legs' entries, in entry order, as one discounted column, checked
        leg by leg (_checked)."""
        columns = [(leg, [e for e in self.entries if e.leg is leg]) for leg in legs]
        dfs = {t: discount.discount_factor(t) for t in {e.time for _, c in columns for e in c}}
        return [
            (leg, _checked(leg, [e.amount * dfs[e.time] for e in c], lambda j: f"t = {c[j].time}"))
            for leg, c in columns
        ]


class ScenarioResidual(NamedTuple):
    default_bucket: int | None
    probability: float
    residual: float


class ReplicationReport(Record):
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


def _buckets(dist: DefaultDistribution) -> tuple[tuple[int | None, ...], tuple[float, ...]]:
    """The N + 1 default buckets, ascending with survival (None) last, and their probabilities."""
    return (*range(1, len(dist.bucket_probs) + 1), None), (*dist.bucket_probs, dist.survival_prob)


def _grid_buckets(g: _Grid, _=None) -> tuple[tuple[int | None, ...], tuple[float, ...]]:
    """_buckets of g's default law, validated; kept on g (_Grid.kept) for report and mc_check."""
    return _buckets(DefaultDistribution(g.dq, g.q[-1]))


def enumerate_scenarios(survival: SurvivalCurve, schedule: Schedule) -> list[DefaultScenario]:
    """All N + 1 scenarios: default buckets ascending, survival last."""
    return list(map(DefaultScenario, *_buckets(default_distribution(survival, schedule))))


_Column = tuple[Leg, list[float]]  # one leg's terms, on consecutive dates of the grid

# A scenario residual, portfolio (bond + repo + asset swap) minus CDS: its terms summed
# exactly. fsum is correctly rounded, so it does not depend on the order of the terms,
# only on which terms a scenario holds; a builtin, so that the report maps it in C.
_residual = math.fsum


def _exact_parts(values: list[float]) -> list[float]:
    """A few floats whose exact sum is that of values: fsum, then fsum of what it
    rounded away, until nothing is left. values are finite (_checked)."""
    parts: list[float] = []
    rest = fsum(values)
    while rest:
        parts.append(rest)
        values = [*values, -rest]
        rest = fsum(values)
    return parts


def _checked(leg: Leg, terms: list[float], date: Callable[[int], str]) -> list[float]:
    """A column's discounted terms, once each is finite.

    The first term j that is not finite raises NonFiniteResult naming the leg
    and date(j): one C-level pass when every term is finite, and date is called
    only on failure.
    """
    if not all(map(math.isfinite, terms)):
        j = next(j for j, term in enumerate(terms) if not math.isfinite(term))
        name = leg.value.replace("_", " ")
        raise NonFiniteResult(f"discounted {name} cashflow at {date(j)} is not a finite number")
    return terms


def _signed(leg: Leg, terms: list[float]) -> list[float]:
    """A column's discounted terms as shares of the residual: the CDS counts against
    the portfolio, so its terms are negated, which is exact."""
    return list(map(neg, terms)) if leg is Leg.CDS else terms


class _CashflowTable(NamedTuple):
    """Every cashflow of one market, each written down once, as four blocks of per-leg columns.

    opening holds the bond, repo and asset swap terms at t0; periods holds
    the bond, repo, asset swap and CDS columns of the coupons of periods 1..L;
    settlements holds the bond, repo, asset swap (with the clause off only)
    and CDS columns of the settlement of a default in bucket b = 1..L, paid at
    t_b; unwind holds the bond and repo terms at t_L, the survival unwind.
    A term is its amount times the weight of its date (_cashflow_table): a
    discounted cashflow in the report's table, the amount itself in a ledger's.
    """

    last: int  # L: the periods the repo runs
    times: tuple[float, ...]  # t0, t_1, ..., t_N
    opening: list[_Column]
    periods: list[_Column]
    settlements: list[_Column]
    unwind: list[_Column]
    forward_price: float  # the deal the table books: X and the two spreads
    asw_spread: float
    cds_spread: float

    def entries(self, bucket: int | None) -> tuple[CashflowEntry, ...]:
        """Survival, or a default after the unwind, sees the opening, every period
        and the unwind; a default in bucket b sees the opening, the periods before
        b and its settlement. A bucket that is not an integer (_is_integer) in
        1..N raises InconsistentSpecs."""
        t, last = self.times, self.last
        if bucket is not None and (not _is_integer(bucket) or not 1 <= bucket < len(t)):
            raise InconsistentSpecs(f"default bucket {bucket} is not in 1..{len(t) - 1}")
        defaulted = bucket is not None and bucket <= last
        survived = bucket - 1 if defaulted else last
        rows = [  # (block, k, j): entry j of each column of the block, paid at t_k
            (self.opening, 0, 0),
            *((self.periods, k, k - 1) for k in range(1, survived + 1)),
            (self.settlements, bucket, bucket - 1) if defaulted else (self.unwind, last, 0),
        ]
        return tuple(CashflowEntry(t[k], leg, a[j]) for block, k, j in rows for leg, a in block)

    def residuals(self) -> list[float]:
        """Residuals of default buckets 1..N, then of survival, over the terms of their entries.

        The scenarios share the opening and the periods survived, so the sums of
        those prefixes (the heads) are formed once, in C: the head after period k
        is the head before it plus the fsum of period k's row. One pass proves
        them exact, each head, the next row and minus the next head summing to
        zero, as does the opening with minus the first head. Then each residual
        is one fsum of its head and its settlement row, equal bit for bit to the
        fsum over its whole slice, because fsum is correctly rounded. Every term
        enters a sum, so the terms are checked (_checked, the blocks in the order
        opening, periods, unwind, settlements) only when the last head or a
        residual is not finite, or an fsum raises. Where the proof fails, the
        prefix is carried from bucket to bucket as its _exact_parts instead.
        """
        last = self.last
        opening, unwind = ([t for _, (t,) in b] for b in (self.opening, self.unwind))  # no CDS
        periods, settlements = ([_signed(*c) for c in b] for b in (self.periods, self.settlements))
        try:
            heads = list(accumulate(map(math.fsum, zip(*periods)), initial=math.fsum(opening)))
            residuals = list(map(_residual, zip(heads, *settlements)))
            # survival, and every default after the unwind, see every coupon and the unwind
            residuals.append(_residual([heads[-1], *unwind]))
            finite = math.isfinite(heads[-1]) and all(map(math.isfinite, residuals))
            exact = not math.fsum([*opening, -heads[0]]) and not any(
                map(math.fsum, zip(heads, *periods, map(neg, heads[1:]))))
        except (OverflowError, ValueError):  # a running sum overflows, or meets inf - inf
            finite = exact = False
        if not finite:  # a term that is not finite is named, the first in block order
            blocks = ((self.opening, 0), (self.periods, 1), (self.unwind, last),
                      (self.settlements, 1))
            for (leg, terms), k in ((c, k) for block, k in blocks for c in block):
                _checked(leg, terms, lambda j: f"t_{k + j}")  # entry j paid at t_{k+j}
        if not exact:  # each fsum here raises, as curves.fsum, where a running sum overflows
            prefix, residuals = _exact_parts(opening), []
            for period, settlement in zip(zip(*periods), zip(*settlements)):
                residuals.append(fsum([*prefix, *settlement]))
                prefix = _exact_parts([*prefix, *period])
            residuals.append(fsum([*prefix, *unwind]))
        return residuals + residuals[-1:] * (len(self.times) - last - 1)


def _cashflow_table(
    g: _Grid, schedule: Schedule, bond: BondSpec, repo: RepoSpec, clause_enabled: bool,
    weights: Sequence[float], spreads: tuple[float, float] | None = None,
) -> _CashflowTable:
    """The O(L) terms behind all N + 1 scenario ledgers, for the repo resolved onto the grid.

    Each amount is booked times weights[k], the weight of its date t_k (t0 first),
    in the expression that forms it, so c * theta * P is (c * theta) * P: the report
    books P, so each term is discounted as it is born, and portfolio_ledger books
    ones, so each term is its amount (x * 1.0 == x). spreads is (asw, cds); None
    means the par spread of the swap actually traded, with the CDS at that spread
    plus the repo spread.
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
    lgd = bond.lgd
    mtm_values = None if clause_enabled else _mtm_values(g, bond.coupon, asw_spread)
    asw_spread = _finite("asw spread", asw_spread)
    cds_spread = _finite("cds spread", cds_spread)
    theta, eps, ws = g.theta[:last], g.eps[:last], weights[1 : last + 1]  # ws: t_1..t_L
    coupon, recovery, spread = bond.coupon, bond.recovery, repo.spread
    rolled = [1.0 + e * th for e, th in zip(eps, theta)]
    periods = [
        (Leg.BOND, [coupon * th * w for th, w in zip(theta, ws)]),
        (Leg.REPO, [(-e + spread) * th * w for e, th, w in zip(eps, theta, ws)]),
        (Leg.ASSET_SWAP,
         [(-coupon + e + asw_spread) * th * w for e, th, w in zip(eps, theta, ws)]),
        (Leg.CDS, [cds_spread * th * w for th, w in zip(theta, ws)]),
    ]
    settlements = [
        (Leg.BOND, [recovery * r * w for r, w in zip(rolled, ws)]),
        (Leg.REPO, [-r * w for r, w in zip(rolled, ws)]),
        *([] if mtm_values is None else [(Leg.ASSET_SWAP, list(map(mul, mtm_values, ws)))]),
        (Leg.CDS, [-lgd * r * w for r, w in zip(rolled, ws)]),
    ]
    w0, w_last = weights[0], weights[last]
    opening = [
        (Leg.BOND, [-bond_price * w0]),
        (Leg.REPO, [fwd_price * w0]),
        (Leg.ASSET_SWAP, [(bond_price - fwd_price) * w0]),
    ]
    unwind = [(Leg.BOND, [terminal_price * w_last]), (Leg.REPO, [-fwd_price * w_last])]
    return _CashflowTable(
        last, (schedule.t0, *schedule.dates), opening, periods, settlements, unwind,
        fwd_price, asw_spread, cds_spread,
    )


def _clause(clause_enabled: bool) -> bool:
    """clause_enabled itself, if it is a bool, else ConfigError: a truthy "no" would run it."""
    if type(clause_enabled) is not bool:
        raise ConfigError(f"clause_enabled must be a bool, got {type(clause_enabled).__name__}")
    return clause_enabled


def _par_table(g: _Grid, key) -> tuple[_CashflowTable, tuple[float, ...]]:
    """The market's cashflow table at par spreads and its N + 1 residuals, for
    key = (schedule, clause_enabled, bond, repo); kept on g (_Grid.kept), so a report
    followed by mc_check on one market builds them once, and they die with its curves."""
    schedule, clause_enabled, bond, repo = key
    table = _cashflow_table(g, schedule, bond, repo, clause_enabled, g.p)
    return table, tuple(table.residuals())


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

    The asset swap and the CDS mature with the repo; a default after the repo ends never touches
    the (already unwound) portfolio. The scenario's bucket is None (survival) or an integer in
    1..N, else InconsistentSpecs; spreads are numbers, clause_enabled a bool, else ConfigError.
    """
    spreads = _real("asw_spread", asw_spread), _real("cds_spread", cds_spread)
    clause_enabled = _clause(clause_enabled)
    g = _grid(discount, survival, schedule)
    table = _cashflow_table(g, schedule, bond, repo, clause_enabled, [1.0] * len(g.p), spreads)
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
    survival ledger. clause_enabled must be a bool, else ConfigError.
    """
    g = _grid(discount, survival, schedule)
    table, residuals = g.kept(_par_table, (schedule, _clause(clause_enabled), bond, repo))
    buckets, probabilities = g.kept(_grid_buckets)
    # a list, not a map: tuple() of a map resizes its result, and the sizes it frees then
    # fill the interpreter's tuple free lists (about 4 MB more RSS over 1e5 reports)
    rows = list(map(tuple.__new__, repeat(ScenarioResidual),
                    zip(buckets, probabilities, residuals)))
    expected = fsum(map(mul, probabilities, residuals))
    abs_residuals = list(map(abs, residuals))
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


# mc_check's largest path count. The draw takes the same time and memory at any count,
# so the cap only keeps the documented range [1000, 10**8].
_MAX_MC_PATHS = 10**8


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

    The paths per default bucket are drawn at once, as one multinomial of n_paths
    over the market's validated bucket probabilities (_grid_buckets), from a
    counter-based generator (Philox keyed on the seed), so the result is a pure
    function of the market, n_paths and the seed. The seed is the 128-bit Philox
    key, and n_paths lies in [1000, 10**8]; each must be an integer (_is_integer),
    and clause_enabled a bool, else ConfigError. The draw costs O(N), flat in
    n_paths, and the moments are two O(N) dot products of the counts with the
    N + 1 residuals of the market's cashflow table, kept on the grid (_par_table),
    so that a report on the same market, deal and clause has already built them.
    numpy is imported here, so that pricing and the enumerated report never load it.
    """
    import numpy as np

    for name, value in (("paths", n_paths), ("seed", seed)):
        if not _is_integer(value):
            raise ConfigError(f"mc {name}: must be an integer, got {type(value).__name__}")
    # a value out of range is not echoed: an integer may have thousands of digits
    if not 1000 <= n_paths <= _MAX_MC_PATHS:
        raise ConfigError(f"mc paths: must lie in [1000, {_MAX_MC_PATHS}]")
    if not 0 <= seed < 2**128:
        raise ConfigError("mc seed: must lie in [0, 2**128)")
    g = _grid(discount, survival, schedule)
    residuals = g.kept(_par_table, (schedule, _clause(clause_enabled), bond, repo))[1]
    residuals = np.fromiter(residuals, float, len(residuals))
    probabilities = g.kept(_grid_buckets)[1]
    generator = np.random.Generator(np.random.Philox(key=seed))
    counts = generator.multinomial(n_paths, np.fromiter(probabilities, float, len(probabilities)))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result fails at emission
        estimate = float(counts @ residuals / n_paths)
        variance = float(counts @ (residuals - estimate) ** 2 / (n_paths - 1))
    return McCheckResult(estimate=estimate, std_error=math.sqrt(variance) / math.sqrt(n_paths))
