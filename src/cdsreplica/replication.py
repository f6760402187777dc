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
as four blocks of per-leg columns of amounts:
- the opening at t0: a bond, a repo and an asset swap column of one entry;
- the coupons of periods 1..L: a bond, a repo, an asset swap and a CDS
  column, entry k paid at t_k;
- the settlement of a default in bucket b = 1..L, paid at t_b: a bond, a
  repo and a CDS column, and an asset swap column (the close-out) with the
  clause off;
- the survival unwind at t_L: a bond and a repo column of one entry.
A default in bucket b sees the opening, the coupons before b and its
settlement; survival sees the opening, every coupon and the unwind. Each
column is discounted and checked once (_discounted), and a scenario residual
is one exact sum over its slice, with the CDS negated.
"""

from __future__ import annotations

import _thread
import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import mul, neg
from typing import Callable, Iterable, NamedTuple, Sequence

from .curves import (
    DefaultDistribution,
    DiscountCurve,
    SurvivalCurve,
    _Grid,
    _grid,
    _same,
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
from .schedule import Schedule, _is_integer

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
        """Discounted value at t0 of the entries (of one leg, or all), the CDS counted
        positive; a discounted entry that is not finite raises NonFiniteResult."""
        if leg is not None and not isinstance(leg, Leg):
            raise ValueError(f"leg must be a Leg or None, got {leg!r}")
        legs = Leg if leg is None else (leg,)
        return fsum(t for _, terms in self._columns(discount, legs) for t in terms)

    def residual(self, discount: DiscountCurve) -> float:
        """Portfolio (bond + repo + asset swap) minus CDS, discounted to t0."""
        return _residual([t for c in self._columns(discount, Leg) for t in _signed(*c)])

    def _columns(self, discount: DiscountCurve, legs: Iterable[Leg]) -> list[_Column]:
        """Each of legs' entries, in entry order, as one discounted column (_discounted),
        checked leg by leg."""
        columns = [(leg, [e for e in self.entries if e.leg is leg]) for leg in legs]
        dfs = {t: discount.discount_factor(t) for t in {e.time for _, c in columns for e in c}}
        return [
            (leg, _discounted((leg, [e.amount for e in c]), [dfs[e.time] for e in c],
                              lambda j: f"t = {c[j].time}"))
            for leg, c in columns
        ]


def _residual(terms: list[float]) -> float:
    """Portfolio (bond + repo + asset swap) minus CDS: the entries' terms, summed exactly.

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


def _buckets(dist: DefaultDistribution) -> tuple[tuple[int | None, ...], tuple[float, ...]]:
    """The N + 1 default buckets, ascending with survival (None) last, and their probabilities."""
    return (*range(1, len(dist.bucket_probs) + 1), None), (*dist.bucket_probs, dist.survival_prob)


def _grid_buckets(g: _Grid, _=None) -> tuple[tuple[int | None, ...], tuple[float, ...]]:
    """_buckets of g's default law, validated; kept on g (_Grid.kept) for report and mc_check."""
    return _buckets(DefaultDistribution(g.dq, g.q[-1]))


def enumerate_scenarios(survival: SurvivalCurve, schedule: Schedule) -> list[DefaultScenario]:
    """All N + 1 scenarios: default buckets ascending, survival last."""
    return list(map(DefaultScenario, *_buckets(default_distribution(survival, schedule))))


_Column = tuple[Leg, list[float]]  # one leg's amounts, on consecutive dates of the grid


def _exact_parts(values: list[float]) -> list[float]:
    """A few floats whose exact sum is that of values: fsum, then fsum of what it
    rounded away, until nothing is left. values are finite (_discounted)."""
    parts: list[float] = []
    rest = fsum(values)
    while rest:
        parts.append(rest)
        values = [*values, -rest]
        rest = fsum(values)
    return parts


def _discounted(column: _Column, dfs: Iterable[float], date: Callable[[int], str]) -> list[float]:
    """amount * P for each amount of the column and its discount factor in dfs.

    The first term j that is not finite raises NonFiniteResult naming the
    column's leg and date(j): one C-level pass when every term is finite, and
    date is called only on failure.
    """
    leg, amounts = column
    terms = list(map(mul, amounts, dfs))
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

    opening holds the bond, repo and asset swap amounts at t0; periods holds
    the bond, repo, asset swap and CDS columns of the coupons of periods 1..L;
    settlements holds the bond, repo, asset swap (with the clause off only)
    and CDS columns of the settlement of a default in bucket b = 1..L, paid at
    t_b; unwind holds the bond and repo amounts at t_L, the survival unwind.
    """

    last: int  # L: the periods the repo runs
    times: tuple[float, ...]  # t0, t_1, ..., t_N
    p: Sequence[float]  # P at the same times
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

        Each column is discounted and checked once (_discounted), the blocks in
        the order opening, periods, unwind, settlements. The scenarios share the
        opening and the periods survived, so that prefix is carried forward as
        its _exact_parts: each residual is one fsum over O(1) values, equal bit
        for bit to the fsum over its whole slice, because fsum is correctly rounded.
        The new prefix is the head just summed, alone when it is exact (the usual
        case), so _exact_parts runs only when fsum rounded something away.
        """
        p, last = self.p, self.last
        blocks = (self.opening, 0), (self.periods, 1), (self.unwind, last), (self.settlements, 1)
        opening, periods, unwind, settlements = (  # entry j of a column of block b paid at t_{k+j}
            [_signed(c[0], _discounted(c, p[k:], lambda j: f"t_{k + j}")) for c in b]
            for b, k in blocks
        )
        prefix = _exact_parts([term for (term,) in opening])
        residuals = []
        try:
            for period, settlement in zip(zip(*periods), zip(*settlements)):
                residuals.append(_residual([*prefix, *settlement]))
                values = [*prefix, *period]
                head = math.fsum(values)
                values.append(-head)
                if math.fsum(values):  # fsum rounded something away
                    prefix = _exact_parts(values[:-1])
                else:  # head is exact; a sum of zero has no parts, as in _exact_parts
                    prefix = [head] if head else []
        except OverflowError:  # as curves.fsum: finite terms whose running sum is not
            raise NonFiniteResult("a sum of finite terms overflows") from None
        # survival, and every default after the unwind, see every coupon and the unwind
        survival = _residual([*prefix, *(term for (term,) in unwind)])
        return residuals + [survival] * (len(self.times) - last)


def _cashflow_table(
    g: _Grid, schedule: Schedule, bond: BondSpec, repo: RepoSpec, clause_enabled: bool,
    spreads: tuple[float, float] | None = None,
) -> _CashflowTable:
    """The O(L) amounts behind all N + 1 scenario ledgers, for the repo resolved onto the grid.

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
    lgd = bond.lgd
    mtm_values = None if clause_enabled else _mtm_values(g, bond.coupon, asw_spread)
    asw_spread = _finite("asw spread", asw_spread)
    cds_spread = _finite("cds spread", cds_spread)
    theta, eps = g.theta[:last], g.eps[:last]
    rolled = [1.0 + e * th for e, th in zip(eps, theta)]
    periods = [
        (Leg.BOND, [bond.coupon * th for th in theta]),
        (Leg.REPO, [(-e + repo.spread) * th for e, th in zip(eps, theta)]),
        (Leg.ASSET_SWAP, [(-bond.coupon + e + asw_spread) * th for e, th in zip(eps, theta)]),
        (Leg.CDS, [cds_spread * th for th in theta]),
    ]
    settlements = [
        (Leg.BOND, [bond.recovery * r for r in rolled]),
        (Leg.REPO, [-r for r in rolled]),
        *([] if mtm_values is None else [(Leg.ASSET_SWAP, mtm_values)]),
        (Leg.CDS, [-lgd * r for r in rolled]),
    ]
    opening = [
        (Leg.BOND, [-bond_price]),
        (Leg.REPO, [fwd_price]),
        (Leg.ASSET_SWAP, [bond_price - fwd_price]),
    ]
    unwind = [(Leg.BOND, [terminal_price]), (Leg.REPO, [-fwd_price])]
    return _CashflowTable(
        last, (schedule.t0, *schedule.dates), g.p, opening, periods, settlements, unwind,
        fwd_price, asw_spread, cds_spread,
    )


# The last evaluation of _table_and_residuals: ((P, Q, schedule, clause, bond, repo),
# (table, residuals)), one slot, replaced whole, as curves._memo keeps a curve's values.
_last_table = None


def _table_and_residuals(
    g: _Grid, schedule: Schedule, bond: BondSpec, repo: RepoSpec, clause_enabled: bool,
) -> tuple[_CashflowTable, tuple[float, ...]]:
    """The market's cashflow table at par spreads and its N + 1 residuals, kept as the
    last evaluation, so a report followed by mc_check on one market builds them once.

    A call hits only when g's P and Q and the schedule are the very objects stored
    (the curves' memoized tuples on that schedule, so identity pins both curves),
    the clause is equal, and bond and repo are the same specs (_same). An
    evaluation that raises stores nothing; a race between threads only evaluates twice.
    """
    global _last_table
    last = _last_table
    if last is not None:
        (p, q, stored_schedule, clause, stored_bond, stored_repo), value = last
        if (p is g.p and q is g.q and stored_schedule is schedule and clause == clause_enabled
                and _same(stored_bond, bond) and _same(stored_repo, repo)):
            return value
    table = _cashflow_table(g, schedule, bond, repo, clause_enabled)
    value = table, tuple(table.residuals())
    _last_table = (g.p, g.q, schedule, clause_enabled, bond, repo), value
    return value


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
    maturity never touches the (already unwound) portfolio. The scenario's
    bucket is None (survival) or an integer in 1..N, else InconsistentSpecs.
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
    table, residuals = _table_and_residuals(g, schedule, bond, repo, clause_enabled)
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


# mc_check's largest path count: its uniforms alone take 8 bytes a path, 800 MB at the cap.
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

    Default buckets are drawn with a counter-based generator (Philox keyed on
    the seed), so draw i is a pure function of (seed, i): results are bitwise
    reproducible for a given seed regardless of how paths are evaluated. The
    seed is the 128-bit Philox key, and n_paths lies in [1000, 10**8]; each must
    be an integer (_is_integer), else ConfigError. The paths are counted per
    bucket, so the moments are O(N) sums over the N + 1 residuals of the
    market's cashflow table, which a report on the same market has already
    built (_table_and_residuals). The draws come in two chunks, split at
    half = n_paths // 8 * 4, a multiple of 4 because Philox4x64 yields 4 draws
    per counter step. A worker started before the market is resolved draws and
    counts draws half..n_paths - 1 once this thread hands it the bucket bounds
    (the `ready` lock), while this thread does 0..half - 1; this thread then
    waits on the `done` lock, which the worker releases last. The two integer
    counts add exactly, so every result is that of the one stream. A market that
    fails to resolve raises its own error, once the worker has seen it and drawn
    nothing; a chunk that raises (a MemoryError, say) raises in this thread.
    threading.Thread.start would wait for the OS to run the worker: after a report,
    1e5 paths on the book-long markets took 625-636 us that way and take 569-577 us
    with the hand-off (2-CPU VM, BENCH_23.json).
    numpy is imported here, so that pricing and the enumerated report never load it.
    """
    import numpy as np

    for name, value in (("paths", n_paths), ("seed", seed)):
        if not _is_integer(value):
            raise ConfigError(f"mc {name}: must be an integer, got {type(value).__name__}")
    if not 1000 <= n_paths <= _MAX_MC_PATHS:
        raise ConfigError(f"mc paths: must lie in [1000, {_MAX_MC_PATHS}], got {n_paths}")
    if not 0 <= seed < 2**128:
        raise ConfigError(f"mc seed: must lie in [0, 2**128), got {seed}")
    half = n_paths // 8 * 4
    # both generators are made in this thread, so that the worker never races it to
    # numpy's lazy import of numpy.random, which costs a switch interval or more
    first, second = (
        np.random.Generator(np.random.Philox(key=seed, counter=[start // 4, 0, 0, 0]))
        for start in (0, half)
    )
    shared = {}
    ready, done = _thread.allocate_lock(), _thread.allocate_lock()
    ready.acquire()
    done.acquire()

    def count_second() -> None:
        try:
            ready.acquire()
            if "cumulative" in shared:  # else the market failed: draw nothing
                uniforms = second.random(n_paths - half)
                shared["counts"] = _bucket_counts(shared["cumulative"], uniforms)
        except BaseException as exc:  # re-raised below, never left to sys.unraisablehook
            shared["error"] = exc
        finally:
            done.release()

    # _thread, not threading.Thread: Thread.start blocks until the OS runs the new
    # thread, where this thread can resolve the market meanwhile
    _thread.start_new_thread(count_second, ())
    try:
        try:
            g = _grid(discount, survival, schedule)
            residuals = np.array(_table_and_residuals(g, schedule, bond, repo, clause_enabled)[1])
            cumulative = np.cumsum(g.kept(_grid_buckets)[1])
            cumulative[-1] = 1.0  # guard the top bucket against rounding
            shared["cumulative"] = cumulative
        finally:
            ready.release()
        counts = _bucket_counts(cumulative, first.random(half))
    finally:
        done.acquire()  # no worker outlives the call
    if "error" in shared:
        raise shared["error"]
    counts += shared["counts"]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result fails at emission
        estimate = float(counts @ residuals / n_paths)
        variance = float(counts @ (residuals - estimate) ** 2 / (n_paths - 1))
    return McCheckResult(estimate=estimate, std_error=math.sqrt(variance) / math.sqrt(n_paths))


def _bucket_counts(cumulative, uniforms):
    """Paths per bucket: how many of the uniforms (numpy array, sorted here in place)
    lie in [cumulative[b-1], cumulative[b]).

    The multiset of buckets that searchsorted(cumulative, uniforms, side="right")
    assigns path by path, from one sort and N + 1 searches into the sorted draws.
    mc_check calls it once per chunk: in its own thread, and in the worker once the
    bounds are handed over. numpy releases the GIL in the draw, the sort and the
    searches, so the two calls overlap; a chunk of 5e4 draws takes about 0.39 ms to
    draw and count on a 2-CPU VM.
    """
    import numpy as np

    uniforms.sort()
    return np.diff(np.searchsorted(uniforms, cumulative, side="left"), prepend=0)
