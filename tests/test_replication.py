import math
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cdsreplica.replication as replication
from cdsreplica import (
    BondSpec,
    ConfigError,
    DefaultScenario,
    DiscountCurve,
    InconsistentSpecs,
    Leg,
    NonFiniteResult,
    PricingError,
    RepoSpec,
    SurvivalCurve,
    annuity_defaultable,
    build_schedule,
    default_leg_pv,
    early_termination_pv,
    enumerate_scenarios,
    forward_bond_price,
    forward_fixings,
    mc_check,
    mtm_profile,
    portfolio_ledger,
    price_risky_bond,
    price_sheet,
    replication_report,
)
from markets import random_discount, random_market, random_survival

TOL = 1e-12


class TestEnumerateScenarios:
    def test_no_hazard(self, f1):
        scenarios = enumerate_scenarios(SurvivalCurve.flat(0.0), f1.schedule)
        assert len(scenarios) == 6
        assert scenarios[-1].default_bucket is None
        assert scenarios[-1].probability == 1.0
        assert all(s.probability == 0.0 for s in scenarios[:-1])

    def test_single_period_closed_form(self):
        schedule = build_schedule(0.0, 0.5, 2)
        scenarios = enumerate_scenarios(SurvivalCurve.flat(0.04), schedule)
        assert len(scenarios) == 2
        assert scenarios[0].default_bucket == 1
        assert scenarios[0].probability == pytest.approx(1.0 - math.exp(-0.02), abs=1e-15)
        assert scenarios[1].probability == pytest.approx(math.exp(-0.02), abs=1e-15)

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=50, deadline=None)
    def test_measure_is_exhausted_in_order(self, seed):
        market = random_market(random.Random(seed))
        scenarios = enumerate_scenarios(market.survival, market.schedule)
        assert len(scenarios) == market.schedule.n_periods + 1
        buckets = [s.default_bucket for s in scenarios]
        assert buckets == list(range(1, market.schedule.n_periods + 1)) + [None]
        assert abs(math.fsum(s.probability for s in scenarios) - 1.0) <= 1e-12


def survival_scenario(survival, schedule):
    return enumerate_scenarios(survival, schedule)[-1]


def default_scenario(survival, schedule, bucket):
    return enumerate_scenarios(survival, schedule)[bucket - 1]


class TestPortfolioLedger:
    def test_survival_period_rows(self, f1):
        repo = RepoSpec(spread=0.001)
        ledger = portfolio_ledger(
            f1.discount, f1.survival, f1.schedule, f1.bond, repo,
            asw_spread=0.012, cds_spread=0.013, clause_enabled=True,
            scenario=survival_scenario(f1.survival, f1.schedule),
        )
        eps = forward_fixings(f1.discount, f1.schedule)
        for k, t in enumerate(f1.schedule.dates, start=1):
            theta = f1.schedule.accruals[k - 1]
            rows = {e.leg: e.amount for e in ledger.entries if e.time == t and abs(e.amount) < 0.9}
            assert rows[Leg.BOND] == pytest.approx(f1.coupon * theta, abs=1e-15)
            assert rows[Leg.REPO] == pytest.approx((-eps[k - 1] + 0.001) * theta, abs=1e-15)
            assert rows[Leg.ASSET_SWAP] == pytest.approx(
                (-f1.coupon + eps[k - 1] + 0.012) * theta, abs=1e-15
            )
            assert rows[Leg.CDS] == pytest.approx(0.013 * theta, abs=1e-15)

    def test_inception_and_maturity_rows(self, f1):
        repo = RepoSpec(spread=0.001)
        ledger = portfolio_ledger(
            f1.discount, f1.survival, f1.schedule, f1.bond, repo,
            0.012, 0.013, True, survival_scenario(f1.survival, f1.schedule),
        )
        b0 = price_risky_bond(f1.discount, f1.survival, f1.schedule, f1.bond)
        inception = {e.leg: e.amount for e in ledger.entries if e.time == 0.0}
        assert inception == {Leg.BOND: -b0, Leg.REPO: 1.0, Leg.ASSET_SWAP: b0 - 1.0}
        terminal = [e for e in ledger.entries if e.time == 5.0 and abs(e.amount) > 0.9]
        assert {(e.leg, e.amount) for e in terminal} == {(Leg.BOND, 1.0), (Leg.REPO, -1.0)}

    def test_default_row_without_clause_emits_close_out(self, f1):
        repo = RepoSpec(spread=0.001)
        spread = 0.012
        bucket = 3
        ledger = portfolio_ledger(
            f1.discount, f1.survival, f1.schedule, f1.bond, repo,
            spread, 0.013, False, default_scenario(f1.survival, f1.schedule, bucket),
        )
        close_outs = [
            e for e in ledger.entries if e.leg is Leg.ASSET_SWAP and e.time == 3.0
        ]
        expected = mtm_profile(f1.discount, f1.schedule, f1.bond, spread).values[bucket - 1]
        assert len(close_outs) == 1
        assert close_outs[0].amount == pytest.approx(expected, abs=TOL)

    def test_default_row_with_clause_is_silent_on_the_swap(self, f1):
        repo = RepoSpec(spread=0.001)
        bucket = 3
        ledger = portfolio_ledger(
            f1.discount, f1.survival, f1.schedule, f1.bond, repo,
            0.012, 0.013, True, default_scenario(f1.survival, f1.schedule, bucket),
        )
        eps = forward_fixings(f1.discount, f1.schedule)
        rolled = 1.0 + eps[bucket - 1] * f1.schedule.accruals[bucket - 1]
        at_default = {e.leg: e.amount for e in ledger.entries if e.time == 3.0}
        assert Leg.ASSET_SWAP not in at_default
        # bond sold at recovery, repo repaid: the unwind nets to -LGD rolled
        assert at_default[Leg.BOND] == pytest.approx(f1.recovery * rolled, abs=1e-15)
        assert at_default[Leg.REPO] == pytest.approx(-rolled, abs=1e-15)
        assert at_default[Leg.BOND] + at_default[Leg.REPO] == pytest.approx(
            -f1.bond.lgd * rolled, abs=1e-15
        )
        assert at_default[Leg.CDS] == pytest.approx(-f1.bond.lgd * rolled, abs=1e-15)
        # no payments on or after the default date besides the unwind
        assert all(e.time <= 3.0 for e in ledger.entries)

    def test_riskless_world_portfolio_matches_cds(self, f1):
        discount = DiscountCurve.flat(0.0)
        survival = SurvivalCurve.flat(0.0)
        ledger = portfolio_ledger(
            discount, survival, f1.schedule, f1.bond, RepoSpec(spread=0.0),
            0.0, 0.0, True, survival_scenario(survival, f1.schedule),
        )
        portfolio = sum(
            ledger.pv(discount, leg) for leg in (Leg.BOND, Leg.REPO, Leg.ASSET_SWAP)
        )
        assert portfolio == pytest.approx(ledger.pv(discount, Leg.CDS), abs=TOL)
        assert ledger.residual(discount) == pytest.approx(
            portfolio - ledger.pv(discount, Leg.CDS), abs=TOL
        )

    def test_entry_times_stay_on_the_grid(self, f1):
        repo = RepoSpec(spread=0.001)
        grid = {0.0, *f1.schedule.dates}
        for scenario in enumerate_scenarios(f1.survival, f1.schedule):
            ledger = portfolio_ledger(
                f1.discount, f1.survival, f1.schedule, f1.bond, repo,
                0.012, 0.013, True, scenario,
            )
            assert {e.time for e in ledger.entries} <= grid
            assert all(math.isfinite(e.amount) for e in ledger.entries)

    def test_no_clause_with_early_repo_rejected(self, f1):
        repo = RepoSpec(spread=0.001, maturity=3.0)
        with pytest.raises(InconsistentSpecs):
            portfolio_ledger(
                f1.discount, f1.survival, f1.schedule, f1.bond, repo,
                0.012, 0.013, False, survival_scenario(f1.survival, f1.schedule),
            )

    def test_repo_to_maturity_with_off_par_forward_rejected(self, f1):
        repo = RepoSpec(spread=0.001, maturity=5.0, forward_price=1.02)
        with pytest.raises(InconsistentSpecs):
            portfolio_ledger(
                f1.discount, f1.survival, f1.schedule, f1.bond, repo,
                0.012, 0.013, True, survival_scenario(f1.survival, f1.schedule),
            )

    @pytest.mark.parametrize("bucket", [0, -1, 6, 2.0, 2.5, True])
    def test_bucket_outside_the_grid_rejected(self, f1, bucket):
        # f1 has 5 periods: these buckets index no settlement of the table
        with pytest.raises(InconsistentSpecs, match=rf"default bucket {bucket} is not in 1\.\.5$"):
            portfolio_ledger(
                f1.discount, f1.survival, f1.schedule, f1.bond, RepoSpec(spread=0.001),
                0.012, 0.013, True, DefaultScenario(bucket, 0.1),
            )

    def test_numpy_integer_bucket_is_that_bucket(self, f1):
        import numpy as np

        market = (f1.discount, f1.survival, f1.schedule, f1.bond, RepoSpec(spread=0.001))
        ledgers = [
            portfolio_ledger(*market, 0.012, 0.013, True, DefaultScenario(bucket, 0.1))
            for bucket in (np.int64(2), 2)
        ]
        assert ledgers[0] == ledgers[1]

    def test_leg_that_is_not_a_leg_rejected(self, f1):
        # a string never `is` an entry's leg: it would price as an empty leg, 0.0
        ledger = portfolio_ledger(
            f1.discount, f1.survival, f1.schedule, f1.bond, RepoSpec(spread=0.001),
            0.012, 0.013, True, survival_scenario(f1.survival, f1.schedule),
        )
        with pytest.raises(ValueError, match="leg must be a Leg or None, got 'bond'"):
            ledger.pv(f1.discount, "bond")

    def test_overflowing_row_is_named_not_summed(self, f1):
        # P and the spread are finite, their product on the repo row is not
        discount = DiscountCurve.flat(-100.0)
        scenario = survival_scenario(f1.survival, f1.schedule)
        ledger = portfolio_ledger(
            discount, f1.survival, f1.schedule, f1.bond, RepoSpec(spread=1e300),
            0.0, 1e300, True, scenario,
        )
        with pytest.raises(NonFiniteResult, match="discounted repo cashflow at t = 1.0 "):
            ledger.residual(discount)

    def test_overflowing_row_fails_the_pv_as_the_residual(self, f1):
        # the repo leg's value is not a finite number: pv names it as residual does
        discount = DiscountCurve((5.0,), (-100.0,))
        ledger = portfolio_ledger(
            discount, f1.survival, f1.schedule, BondSpec(0.05, 0.4), RepoSpec(1e300),
            0.012, 0.013, True, survival_scenario(f1.survival, f1.schedule),
        )
        for leg in (Leg.REPO, None):
            with pytest.raises(NonFiniteResult, match="discounted repo cashflow at t = 1.0 "):
                ledger.pv(discount, leg)
        # the finite legs still price, the CDS counted positive
        assert ledger.pv(discount, Leg.CDS) == math.fsum(
            e.amount * discount.discount_factor(e.time) for e in ledger.entries if e.leg is Leg.CDS
        ) > 0.0


class TestReplicationReport:
    def test_clause_on_replicates_pathwise(self, f1):
        report = replication_report(
            f1.discount, f1.survival, f1.schedule, f1.bond, RepoSpec(spread=0.001), True
        )
        assert report.max_abs_residual < TOL
        assert report.cds_spread == pytest.approx(report.asw_spread + 0.001, abs=1e-15)

    def test_clause_off_leaks_the_close_outs(self, f1):
        report = replication_report(
            f1.discount, f1.survival, f1.schedule, f1.bond, RepoSpec(spread=0.001), False
        )
        profile = mtm_profile(f1.discount, f1.schedule, f1.bond, report.asw_spread)
        for row in report.scenarios:
            if row.default_bucket is None:
                assert abs(row.residual) < TOL
            else:
                t = f1.schedule.dates[row.default_bucket - 1]
                leak = f1.discount.discount_factor(t) * profile.values[row.default_bucket - 1]
                assert row.residual == pytest.approx(leak, abs=TOL)
        etp = early_termination_pv(
            f1.discount, f1.survival, f1.schedule, f1.bond, report.asw_spread
        )
        assert report.expected_residual == pytest.approx(-etp, abs=TOL)

    @pytest.mark.parametrize("clause", [True, False])
    def test_overflowing_row_is_named_not_summed(self, f1, clause):
        discount = DiscountCurve.flat(-100.0)
        with pytest.raises(NonFiniteResult, match="discounted repo cashflow at t_1 "):
            replication_report(
                discount, f1.survival, f1.schedule, f1.bond, RepoSpec(spread=1e300), clause
            )

    def test_non_positive_forward_price_rejected(self, f1):
        # the CLI's parser stops it first; the library names it itself
        repo = RepoSpec(spread=0.0, maturity=3.0, forward_price=-0.5)
        for price in (price_sheet, lambda *market: replication_report(*market, True)):
            with pytest.raises(InconsistentSpecs, match="forward price must be positive"):
                price(f1.discount, f1.survival, f1.schedule, f1.bond, repo)

    def test_riskless_world_is_clause_insensitive(self, f1):
        # with no hazard the default branches carry zero probability, so the
        # clause changes nothing that can ever be paid: both reports replicate
        # in expectation and agree on every reachable scenario
        survival = SurvivalCurve.flat(0.0)
        on = replication_report(
            f1.discount, survival, f1.schedule, f1.bond, RepoSpec(spread=0.001), True
        )
        off = replication_report(
            f1.discount, survival, f1.schedule, f1.bond, RepoSpec(spread=0.001), False
        )
        assert on.max_abs_residual < TOL
        assert abs(on.expected_residual) < TOL
        assert abs(off.expected_residual) < TOL
        assert on.asw_spread == pytest.approx(off.asw_spread, abs=1e-15)
        for row_on, row_off in zip(on.scenarios, off.scenarios):
            if row_on.probability > 0.0:
                assert row_on.residual == pytest.approx(row_off.residual, abs=1e-15)

    def test_ledger_recovers_the_pricers(self, f1):
        repo = RepoSpec(spread=0.001)
        report = replication_report(
            f1.discount, f1.survival, f1.schedule, f1.bond, repo, True
        )
        scenarios = enumerate_scenarios(f1.survival, f1.schedule)
        bond_pv = 0.0
        cds_pv = 0.0
        for scenario in scenarios:
            ledger = portfolio_ledger(
                f1.discount, f1.survival, f1.schedule, f1.bond, repo,
                report.asw_spread, report.cds_spread, True, scenario,
            )
            bond_pv += scenario.probability * ledger.pv(f1.discount, Leg.BOND)
            cds_pv += scenario.probability * ledger.pv(f1.discount, Leg.CDS)
        # the -B0 upfront nets the enumerated flow value, which is the bond price
        assert bond_pv == pytest.approx(0.0, abs=TOL)
        expected_cds = report.cds_spread * annuity_defaultable(
            f1.discount, f1.survival, f1.schedule
        ) - f1.bond.lgd * default_leg_pv(f1.discount, f1.survival, f1.schedule)
        assert cds_pv == pytest.approx(expected_cds, abs=TOL)

    def test_generalized_fair_forward_replicates(self, f1):
        repo = RepoSpec(spread=0.0015, maturity=3.0)
        report = replication_report(
            f1.discount, f1.survival, f1.schedule, f1.bond, repo, True
        )
        fair = forward_bond_price(f1.discount, f1.survival, f1.schedule, f1.bond, 3.0)
        assert report.forward_price == pytest.approx(fair, abs=TOL)
        assert report.max_abs_residual < TOL
        assert abs(report.expected_residual) < TOL

    def test_generalized_perturbed_forward_prices_the_gap(self, f1):
        delta = 0.004
        fair = forward_bond_price(f1.discount, f1.survival, f1.schedule, f1.bond, 3.0)
        repo = RepoSpec(spread=0.0015, maturity=3.0, forward_price=fair + delta)
        report = replication_report(
            f1.discount, f1.survival, f1.schedule, f1.bond, repo, True
        )
        target = -delta * f1.discount.discount_factor(3.0) * f1.survival.survival_prob(3.0)
        assert report.expected_residual == pytest.approx(target, abs=TOL)

    def test_nan_residual_is_the_max(self, f1, monkeypatch):
        # max() skips a NaN that is not the first item; the report must not
        import cdsreplica.replication as replication

        real = replication._residual
        calls = []

        def nan_after_first(terms):
            calls.append(None)
            return real(terms) if len(calls) == 1 else math.nan

        monkeypatch.setattr(replication, "_residual", nan_after_first)
        report = replication_report(
            f1.discount, f1.survival, f1.schedule, f1.bond, RepoSpec(spread=0.001), True
        )
        assert math.isfinite(report.scenarios[0].residual)
        assert math.isnan(report.max_abs_residual)

    def test_report_serializes(self, f1):
        report = replication_report(
            f1.discount, f1.survival, f1.schedule, f1.bond, RepoSpec(spread=0.001), True
        )
        payload = report.to_dict()
        assert payload["clause_enabled"] is True
        assert len(payload["scenarios"]) == 6
        assert payload["scenarios"][-1]["default_bucket"] is None
        assert payload["max_abs_residual"] == report.max_abs_residual


class TestMcCheck:
    def test_clause_on_estimate_is_zero(self, f1):
        result = mc_check(
            f1.discount, f1.survival, f1.schedule, f1.bond,
            RepoSpec(spread=0.001), True, 5000, seed=3,
        )
        assert abs(result.estimate) < TOL

    def test_clause_off_estimate_matches_analytic(self, f1):
        repo = RepoSpec(spread=0.001)
        result = mc_check(
            f1.discount, f1.survival, f1.schedule, f1.bond, repo, False, 100_000, seed=7
        )
        report = replication_report(
            f1.discount, f1.survival, f1.schedule, f1.bond, repo, False
        )
        analytic = -early_termination_pv(
            f1.discount, f1.survival, f1.schedule, f1.bond, report.asw_spread
        )
        assert abs(result.estimate - analytic) <= 3.0 * result.std_error

    def test_seed_repeatability(self, f1):
        repo = RepoSpec(spread=0.001)
        first = mc_check(
            f1.discount, f1.survival, f1.schedule, f1.bond, repo, False, 20_000, seed=42
        )
        second = mc_check(
            f1.discount, f1.survival, f1.schedule, f1.bond, repo, False, 20_000, seed=42
        )
        assert first == second

    def test_too_few_paths_rejected(self, f1):
        with pytest.raises(ValueError):
            mc_check(
                f1.discount, f1.survival, f1.schedule, f1.bond,
                RepoSpec(spread=0.001), True, 999, seed=1,
            )

    def test_too_many_paths_rejected_before_drawing(self, f1):
        with pytest.raises(ConfigError, match=r"^mc paths: must lie in \[1000, 100000000\]"):
            mc_check(
                f1.discount, f1.survival, f1.schedule, f1.bond,
                RepoSpec(spread=0.001), True, replication._MAX_MC_PATHS + 1, seed=1,
            )

    @pytest.mark.parametrize(
        "n_paths, seed, match",
        [
            (1000.0, 1, "mc paths: must be an integer, got float"),
            (True, 1, "mc paths: must be an integer, got bool"),
            (1000, 1.5, "mc seed: must be an integer, got float"),
            (1000, True, "mc seed: must be an integer, got bool"),
        ],
        ids=["float_paths", "bool_paths", "float_seed", "bool_seed"],
    )
    def test_non_integer_paths_or_seed_rejected(self, f1, n_paths, seed, match):
        with pytest.raises(ConfigError, match=f"^{match}$"):
            mc_check(
                f1.discount, f1.survival, f1.schedule, f1.bond,
                RepoSpec(spread=0.001), True, n_paths, seed,
            )

    def test_numpy_integers_are_integers(self, f1):
        import numpy as np

        market = f1.discount, f1.survival, f1.schedule, f1.bond, RepoSpec(spread=0.001), False
        assert mc_check(*market, np.int64(2000), np.uint64(5)) == mc_check(*market, 2000, 5)

    def test_builds_one_grid_and_no_report(self, f1, monkeypatch):
        calls = {"grid": 0, "report": 0}
        real_grid = replication._grid

        def counted_grid(*args):
            calls["grid"] += 1
            return real_grid(*args)

        def counted_report(*args):
            calls["report"] += 1
            return replication_report(*args)

        monkeypatch.setattr(replication, "_grid", counted_grid)
        monkeypatch.setattr(replication, "replication_report", counted_report)
        mc_check(f1.discount, f1.survival, f1.schedule, f1.bond, RepoSpec(spread=0.001),
                 False, 2000, seed=5)
        assert calls == {"grid": 1, "report": 0}

    def test_overflowing_sample_gives_a_non_finite_error_quietly(self, f1):
        # finite residuals whose squares overflow: no raise, and no numpy warning
        # (which the suite's filterwarnings turns into a failure)
        repo = RepoSpec(spread=0.001, maturity=4.0, forward_price=0.5)
        result = mc_check(
            DiscountCurve.flat(-100.0), f1.survival, f1.schedule, f1.bond, repo, True, 1000, 0
        )
        assert not math.isfinite(result.std_error)


class TestMcSplit:
    """mc_check draws in two chunks, the second on a worker thread; the counts add exactly."""

    @pytest.mark.parametrize("seed", [0, 2**128 - 1])
    @pytest.mark.parametrize("n_paths", [1000, 1001, 1003, 99_999])
    def test_counts_are_the_single_stream_buckets(self, f1, monkeypatch, n_paths, seed):
        repo = RepoSpec(spread=0.001)
        report = replication_report(f1.discount, f1.survival, f1.schedule, f1.bond, repo, False)
        residuals = np.array([r.residual for r in report.scenarios])
        cumulative = np.cumsum([r.probability for r in report.scenarios])
        cumulative[-1] = 1.0
        single = np.random.Generator(np.random.Philox(key=seed)).random(n_paths)
        expected = np.bincount(np.searchsorted(cumulative, single, side="right"),
                               minlength=len(residuals))
        # threads are told apart by get_ident: threading.current_thread() in the
        # worker would register a dummy Thread that is never removed
        caller, chunks = threading.get_ident(), {}
        real = replication._bucket_counts

        def recorded(cumulative, uniforms):
            drawn = uniforms.copy()  # before _bucket_counts sorts them
            counts = real(cumulative, uniforms)
            chunks[threading.get_ident() == caller] = drawn, counts.copy()
            return counts

        monkeypatch.setattr(replication, "_bucket_counts", recorded)
        result = mc_check(f1.discount, f1.survival, f1.schedule, f1.bond, repo, False,
                          n_paths, seed)
        (first, first_counts), (second, second_counts) = chunks[True], chunks[False]
        # this thread draws 0..h - 1 and the worker h..n_paths - 1, h a multiple of 4
        assert len(first) == n_paths // 8 * 4
        assert np.concatenate([first, second]).tobytes() == single.tobytes()
        assert (first_counts + second_counts).tolist() == expected.tolist()
        # the moments of one stream's counts, bit for bit
        estimate = float(expected @ residuals / n_paths)
        variance = float(expected @ (residuals - estimate) ** 2 / (n_paths - 1))
        assert result == (estimate, math.sqrt(variance) / math.sqrt(n_paths))

    @pytest.mark.parametrize("raising", ["worker", "caller"])
    def test_a_raising_chunk_raises_in_the_caller(self, f1, monkeypatch, raising):
        # the worker's exception reaches the caller, never sys.unraisablehook (which
        # the suite's filterwarnings turns into a failure), and the call returns only
        # once both chunks have finished. Threads are told apart by get_ident: calling
        # threading.current_thread() in the worker would register a dummy Thread
        caller = threading.get_ident()
        error = MemoryError("chunk")
        real = replication._bucket_counts
        finished = []

        def failing(cumulative, uniforms):
            try:
                if (threading.get_ident() == caller) == (raising == "caller"):
                    raise error
                return real(cumulative, uniforms)
            finally:
                finished.append(threading.get_ident() == caller)

        monkeypatch.setattr(replication, "_bucket_counts", failing)
        with pytest.raises(MemoryError) as raised:
            mc_check(f1.discount, f1.survival, f1.schedule, f1.bond, RepoSpec(spread=0.001),
                     True, 2000, seed=5)
        assert raised.value is error
        assert sorted(finished) == [False, True]


class TestMcHandOff:
    """The worker starts before the market is resolved and draws once the caller hands
    it the bucket bounds; a market that fails to resolve is drawn by neither thread."""

    def test_a_caller_slow_to_resolve_gives_the_single_stream(self, f1, monkeypatch):
        repo = RepoSpec(spread=0.001)
        report = replication_report(f1.discount, f1.survival, f1.schedule, f1.bond, repo, False)
        residuals = np.array([r.residual for r in report.scenarios])
        cumulative = np.cumsum([r.probability for r in report.scenarios])
        cumulative[-1] = 1.0
        n_paths, seed = 10_001, 11
        single = np.random.Generator(np.random.Philox(key=seed)).random(n_paths)
        counts = np.bincount(np.searchsorted(cumulative, single, side="right"),
                             minlength=len(residuals))
        estimate = float(counts @ residuals / n_paths)
        variance = float(counts @ (residuals - estimate) ** 2 / (n_paths - 1))
        real = replication._table_and_residuals

        def slow(*args):
            time.sleep(0.02)  # the worker is up long before the market is resolved
            return real(*args)

        monkeypatch.setattr(replication, "_table_and_residuals", slow)
        result = mc_check(f1.discount, f1.survival, f1.schedule, f1.bond, repo, False,
                          n_paths, seed)
        assert result == (estimate, math.sqrt(variance) / math.sqrt(n_paths))

    @pytest.mark.parametrize("failure", ["early_repo_without_clause", "non_finite"])
    def test_a_market_that_fails_raises_its_error_and_draws_nothing(
        self, f1, monkeypatch, failure
    ):
        drawn = []
        monkeypatch.setattr(replication, "_bucket_counts", lambda *args: drawn.append(args))
        repo = RepoSpec(spread=0.001)
        if failure == "non_finite":
            error = NonFiniteResult("residual")

            def failing(*args):
                raise error

            monkeypatch.setattr(replication, "_table_and_residuals", failing)
        else:  # the real clause-off early repo, which the table refuses
            repo = RepoSpec(spread=0.001, maturity=3.0)
        with pytest.raises(PricingError) as raised:
            mc_check(f1.discount, f1.survival, f1.schedule, f1.bond, repo, False, 2000, seed=5)
        if failure == "non_finite":
            assert raised.value is error
        else:
            assert type(raised.value) is InconsistentSpecs
        assert drawn == []  # in neither thread: the caller waits for the worker to finish

    def test_concurrent_calls_keep_their_bits(self, f1):
        # more callers than cores, each with its own worker and locks, on markets that
        # evict each other from the one-slot table memo, under a short switch interval
        markets = [(f1.discount, f1.survival, f1.schedule, f1.bond, RepoSpec(spread), clause)
                   for spread in (0.001, 0.002) for clause in (True, False)]
        expected = [mc_check(*market, 5000, 9) for market in markets]
        results = {}

        def run(k):
            results[k] = [mc_check(*markets[k], 5000, 9) for _ in range(20)]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(markets))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [results[k] for k in range(len(markets))] == [[e] * 20 for e in expected]


class TestTableMemo:
    """A report followed by mc_check on one market builds the cashflow table once."""

    @pytest.fixture
    def tables(self, monkeypatch):
        """Calls of _cashflow_table, from an empty memo."""
        calls = []
        real = replication._cashflow_table

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(replication, "_last_table", None)
        monkeypatch.setattr(replication, "_cashflow_table", counted)
        return calls

    def test_report_then_mc_check_builds_one_table(self, f1, tables):
        market = f1.discount, f1.survival, f1.schedule, f1.bond
        replication_report(*market, RepoSpec(spread=0.001), True)
        mc_check(*market, RepoSpec(spread=0.001), True, 2000, seed=5)  # an equal, fresh repo
        assert len(tables) == 1

    def test_mc_check_bits_do_not_depend_on_a_prior_report(self, f1, monkeypatch):
        market = f1.discount, f1.survival, f1.schedule, f1.bond, RepoSpec(spread=0.001), False
        monkeypatch.setattr(replication, "_last_table", None)
        alone = mc_check(*market, 20_000, seed=42)
        monkeypatch.setattr(replication, "_last_table", None)
        replication_report(*market)
        after_report = mc_check(*market, 20_000, seed=42)
        assert repr(after_report) == repr(alone)

    @pytest.mark.parametrize(
        "first, second",
        [
            ({}, {"schedule": build_schedule(0.0, 5.0, 1)}),
            ({}, {"discount": DiscountCurve.flat(0.02)}),
            ({}, {"survival": SurvivalCurve.flat(0.02)}),
            ({}, {"clause": False}),
            ({}, {"bond": BondSpec(coupon=0.06, recovery=0.4)}),
            ({"repo": RepoSpec(0.0)}, {"repo": RepoSpec(-0.0)}),
            ({"repo": RepoSpec(2.0**-10)}, {"repo": RepoSpec(np.float32(2.0**-10))}),
            ({"repo": RepoSpec(0.0, maturity=5.0)}, {"repo": RepoSpec(0.0, maturity=5)}),
        ],
        ids=["schedule", "discount", "survival", "clause", "bond", "negative_zero", "float32",
             "int_for_float"],
    )
    def test_a_different_market_rebuilds_the_table(self, f1, tables, first, second):
        # equal but distinct curves and schedules are other markets, and so are specs
        # that == calls equal but whose fields differ in sign or type
        first = {**dict(discount=f1.discount, survival=f1.survival, schedule=f1.schedule,
                        bond=f1.bond, repo=RepoSpec(0.001), clause=True), **first}
        second = {**first, **second}
        replication_report(*first.values())
        report = replication_report(*second.values())
        assert len(tables) == 2
        assert replication_report(*second.values()) == report  # the second is kept
        assert len(tables) == 2

    def test_an_evaluation_that_raises_stores_nothing(self, f1, tables):
        market = f1.discount, f1.survival, f1.schedule, f1.bond
        replication_report(*market, RepoSpec(spread=0.001), True)
        stored = replication._last_table
        early = RepoSpec(spread=0.001, maturity=3.0)
        for _ in range(2):  # no clause with an early repo: nothing to store, both times
            with pytest.raises(InconsistentSpecs):
                replication_report(*market, early, False)
        assert replication._last_table is stored
        assert len(tables) == 3


def _mc_cases():
    """(market, repo, clause): tests/markets.py markets and quarterly and monthly grids
    at N = 120 and 360, with the clause on and off and with an early repo."""
    rng = random.Random(1010)
    markets = [random_market(rng) for _ in range(24)]
    markets += [_long_market(rng, n, frequency) for frequency in (4, 12) for n in (120, 360)]
    for market in markets:
        schedule = market[2]
        spread = rng.uniform(-0.01, 0.02)
        yield market, RepoSpec(spread), True
        yield market, RepoSpec(spread), False
        if schedule.n_periods > 1:
            maturity = schedule.dates[rng.randrange(schedule.n_periods - 1)]
            yield market, RepoSpec(spread, maturity=maturity), True


def test_mc_counts_are_the_per_path_buckets():
    # the check counts paths per bucket; sampling each path on its own must give
    # the same buckets and, up to the order of the sums, the same moments
    import numpy as np

    n_paths = 20_000
    for seed, (market, repo, clause) in enumerate(_mc_cases()):
        report = replication_report(*market, repo, clause)
        residuals = np.array([r.residual for r in report.scenarios])
        cumulative = np.cumsum([r.probability for r in report.scenarios])
        cumulative[-1] = 1.0
        uniforms = np.random.Generator(np.random.Philox(key=seed)).random(n_paths)
        buckets = np.searchsorted(cumulative, uniforms, side="right")
        counts = replication._bucket_counts(cumulative, uniforms.copy())
        expected = np.bincount(buckets, minlength=len(residuals))
        assert counts.tolist() == expected.tolist()
        sampled = residuals[buckets]
        std_error = sampled.std(ddof=1) / math.sqrt(n_paths)
        result = mc_check(*market, repo, clause, n_paths, seed)
        assert abs(result.estimate - sampled.mean()) <= 1e-9 * std_error
        assert abs(result.std_error - std_error) <= 1e-9 * std_error
    # a draw equal to a cumulative probability lies in the bucket above it, as in searchsorted
    cumulative = np.array([0.25, 0.5, 1.0])
    uniforms = np.array([0.5, 0.0, 0.25, 0.3, 0.75])
    assert replication._bucket_counts(cumulative, uniforms).tolist() == [1, 2, 2]


@given(seed=st.integers(0, 10**9), repo_bp=st.integers(-100, 200))
@settings(max_examples=60, deadline=None)
def test_pathwise_replication_for_random_markets(seed, repo_bp):
    market = random_market(random.Random(seed))
    repo = RepoSpec(spread=repo_bp / 10_000)
    report = replication_report(
        market.discount, market.survival, market.schedule, market.bond, repo, True
    )
    assert report.max_abs_residual < TOL



@given(
    values=st.lists(st.floats(-1e200, 1e200), min_size=1, max_size=12),
    extra=st.lists(st.floats(-1e200, 1e200), max_size=4),
)
@example(values=[1e16, 1.0], extra=[-1e16])
@settings(max_examples=300, deadline=None)
def test_exact_parts_keep_the_exact_sum(values, extra):
    # the report carries each scenario's shared prefix as its _exact_parts; the
    # settlement terms summed with them must round as with the prefix itself
    assert math.fsum(replication._exact_parts(values) + extra) == math.fsum(values + extra)


def _table(opening, periods, settlements, unwind):
    """A cashflow table of bond and repo columns whose discount factors are all 1."""
    def block(*columns):
        return [(leg, list(amounts)) for leg, amounts in zip((Leg.BOND, Leg.REPO), columns)]

    last = len(periods[0])
    return replication._CashflowTable(
        last=last, times=tuple(map(float, range(last + 1))), p=[1.0] * (last + 1),
        opening=block(*opening), periods=block(*periods), settlements=block(*settlements),
        unwind=block(*unwind), forward_price=1.0, asw_spread=0.0, cds_spread=0.0,
    )


def test_residuals_carry_what_a_prefix_sum_rounds_away():
    # period 1 leaves 1e-300 under the rounding of its 1e16-sized head, and period 2
    # brings the prefix back to exactly zero; every residual must still be the fsum
    # of its whole slice
    table = _table(
        opening=([1e16], [1.0]),
        periods=([1.0, -(1e16 + 2.0), 0.5], [1e-300, -1e-300, 0.25]),
        settlements=([-1e16, -1e16, 0.0], [0.0, -2.0, -0.0]),
        unwind=([7.0], [-1e16]),
    )
    expected = [math.fsum(e.amount for e in table.entries(bucket)) for bucket in (1, 2, 3, None)]
    assert expected[1] == 1e-300  # the part a prefix kept as its head alone would lose
    assert table.residuals() == expected


def test_residuals_raise_when_a_prefix_sum_overflows():
    table = _table(opening=([1e308], [0.0]), periods=([1e308], [0.0]),
                   settlements=([0.0], [0.0]), unwind=([0.0], [0.0]))
    with pytest.raises(NonFiniteResult, match="a sum of finite terms overflows"):
        table.residuals()


def _long_market(rng, periods, frequency=12):
    maturity = periods / frequency
    return (
        random_discount(rng, maturity),
        random_survival(rng, maturity),
        build_schedule(0.0, maturity, frequency),
        BondSpec(coupon=rng.uniform(0.0, 0.10), recovery=rng.uniform(0.0, 0.9)),
    )


def test_report_residuals_are_the_ledger_residuals_exactly():
    # the report sums each scenario's slice of one cashflow table; portfolio_ledger
    # materializes the same slice, so the two residuals agree bit for bit
    rng = random.Random(2024)
    markets = [random_market(rng) for _ in range(240)]
    markets += [_long_market(rng, periods) for periods in (120, 128, 136)]
    compared = 0
    for i, (discount, survival, schedule, bond) in enumerate(markets):
        n = schedule.n_periods
        spread = rng.uniform(-0.01, 0.02)
        # deals in turn: to maturity with the clause on and off, then an early
        # repo at the fair forward price and at a perturbed one
        kind = i % 4 if n > 1 else i % 2
        repo, clause = RepoSpec(spread), kind != 1
        if kind >= 2:
            maturity = schedule.dates[rng.randrange(n - 1)]
            forward = rng.uniform(0.9, 1.1) if kind == 3 else None
            repo = RepoSpec(spread, maturity=maturity, forward_price=forward)
        report = replication_report(discount, survival, schedule, bond, repo, clause)
        scenarios = enumerate_scenarios(survival, schedule)
        for scenario, row in zip(scenarios, report.scenarios, strict=True):
            ledger = portfolio_ledger(
                discount, survival, schedule, bond, repo,
                report.asw_spread, report.cds_spread, clause, scenario,
            )
            assert row.residual == ledger.residual(discount)
            compared += 1
    assert compared > 5000
