import math
import random
import sys
import threading
import tracemalloc

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
    Schedule,
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
from cdsreplica.curves import _grid
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

    @pytest.mark.parametrize("digits", [400, 5000])
    @pytest.mark.parametrize(
        "huge, message",
        [("paths", r"mc paths: must lie in \[1000, 100000000\]"),
         ("seed", r"mc seed: must lie in \[0, 2\*\*128\)")],
        ids=["paths", "seed"],
    )
    def test_a_huge_path_count_or_seed_is_not_echoed(self, f1, digits, huge, message):
        # str() of an int past 4,300 digits raises ValueError, and 400 digits made
        # a 445-character message
        n_paths, seed = (10**digits, 1) if huge == "paths" else (1000, 10**digits)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            mc_check(
                f1.discount, f1.survival, f1.schedule, f1.bond,
                RepoSpec(spread=0.001), True, n_paths, seed,
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


_Generator = np.random.Generator  # the real class, which the draws fixture replaces


@pytest.fixture
def draws(monkeypatch):
    """The counts of every multinomial drawn through np.random.Generator, in order."""
    drawn = []

    class Recording(_Generator):
        def multinomial(self, n, pvals, size=None):
            counts = super().multinomial(n, pvals, size)
            drawn.append(counts.copy())
            return counts

    monkeypatch.setattr(np.random, "Generator", Recording)
    return drawn


def _one_draw(report, n_paths, seed):
    """The bucket counts of the seed's Philox stream as one multinomial over the report's
    probabilities, and mc_check's estimate and standard error from them."""
    residuals = np.array([r.residual for r in report.scenarios])
    probabilities = [r.probability for r in report.scenarios]
    counts = _Generator(np.random.Philox(key=seed)).multinomial(n_paths, probabilities)
    estimate = float(counts @ residuals / n_paths)
    variance = float(counts @ (residuals - estimate) ** 2 / (n_paths - 1))
    return counts, (estimate, math.sqrt(variance) / math.sqrt(n_paths))


class TestMcSplit:
    """mc_check splits its paths over the N + 1 buckets in one multinomial draw of the
    seed's Philox stream, at any path count and over the whole 128-bit key range."""

    @pytest.mark.parametrize("seed", [0, 2**128 - 1])
    @pytest.mark.parametrize("n_paths", [1000, 1001, 1003, 99_999])
    def test_counts_are_the_single_stream_buckets(self, f1, draws, n_paths, seed):
        repo = RepoSpec(spread=0.001)
        report = replication_report(f1.discount, f1.survival, f1.schedule, f1.bond, repo, False)
        counts, moments = _one_draw(report, n_paths, seed)
        result = mc_check(f1.discount, f1.survival, f1.schedule, f1.bond, repo, False,
                          n_paths, seed)
        assert [c.tolist() for c in draws] == [counts.tolist()]
        assert result == moments

    def test_memory_does_not_grow_with_the_paths(self, f1):
        # numpy reports its buffers to tracemalloc; a per-path array would take 800 MB
        market = f1.discount, f1.survival, f1.schedule, f1.bond, RepoSpec(spread=0.001), False
        mc_check(*market, 1000, seed=1)  # numpy.random and the market's table, loaded once
        tracemalloc.start()
        try:
            result = mc_check(*market, replication._MAX_MC_PATHS, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert math.isfinite(result.estimate) and math.isfinite(result.std_error)

    def test_z_scores_are_standard_normal(self, f1):
        # the criterion-8 market over 200 seeds: the estimate is unbiased and its standard
        # error has the right scale
        repo = RepoSpec(spread=0.001)
        market = f1.discount, f1.survival, f1.schedule, f1.bond, repo, False
        asw_spread = replication_report(*market).asw_spread
        analytic = -early_termination_pv(*market[:4], asw_spread)
        z = np.array([(r.estimate - analytic) / r.std_error
                      for r in (mc_check(*market, 100_000, seed) for seed in range(200))])
        assert abs(z.mean()) <= 0.2
        assert 0.85 <= z.std(ddof=1) <= 1.15
        assert np.abs(z).max() <= 4.0

    def test_survival_near_zero_draws(self, draws):
        # every path defaults: the default buckets' probabilities sum to 1 up to rounding,
        # within what numpy's multinomial accepts for all but the last
        discount, survival = DiscountCurve.flat(0.02), SurvivalCurve.flat(10.0)
        schedule, bond = build_schedule(0.0, 30.0, 12), BondSpec(coupon=0.05, recovery=0.4)
        assert schedule.n_periods == 360 and survival.survival_prob(30.0) < 1e-100
        result = mc_check(discount, survival, schedule, bond, RepoSpec(0.001), True, 100_000, 3)
        assert draws[0].sum() == 100_000 and draws[0][-1] == 0
        assert abs(result.estimate) < TOL


class TestMcHandOff:
    """mc_check resolves the market before it draws, and callers on several threads
    each get their own bits."""

    @pytest.mark.parametrize("failure", ["early_repo_without_clause", "non_finite"])
    def test_a_market_that_fails_raises_its_error_and_draws_nothing(
        self, f1, monkeypatch, draws, failure
    ):
        repo = RepoSpec(spread=0.001)
        if failure == "non_finite":
            error = NonFiniteResult("residual")

            def failing(*args):
                raise error

            monkeypatch.setattr(replication, "_par_table", failing)
        else:  # the real clause-off early repo, which the table refuses
            repo = RepoSpec(spread=0.001, maturity=3.0)
        with pytest.raises(PricingError) as raised:
            mc_check(f1.discount, f1.survival, f1.schedule, f1.bond, repo, False, 2000, seed=5)
        if failure == "non_finite":
            assert raised.value is error
        else:
            assert type(raised.value) is InconsistentSpecs
        assert draws == []

    def test_concurrent_calls_keep_their_bits(self, f1):
        # more callers than cores, on markets that share one grid and evict each other
        # from its one table entry (_Grid.kept), under a short switch interval
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


@pytest.mark.parametrize("clause", ["no", None, 1, np.True_],
                         ids=["text", "none", "int", "numpy_bool"])
@pytest.mark.parametrize("call", [
    lambda m, clause: replication_report(*m, RepoSpec(0.001), clause),
    lambda m, clause: mc_check(*m, RepoSpec(0.001), clause, 2000, 5),
    lambda m, clause: portfolio_ledger(*m, RepoSpec(0.001), 0.01, 0.011, clause,
                                       DefaultScenario(2, 0.1)),
], ids=["replication_report", "mc_check", "portfolio_ledger"])
def test_clause_enabled_must_be_a_bool(f1, call, clause):
    # "no" once ran with the clause on and None with it off; the refusal comes before
    # the grid's kept table, which a report with the clause on has already built
    market = f1.discount, f1.survival, f1.schedule, f1.bond
    replication_report(*market, RepoSpec(0.001), True)
    match = f"^clause_enabled must be a bool, got {type(clause).__name__}$"
    with pytest.raises(ConfigError, match=match):
        call(market, clause)


class TestTableMemo:
    """A report followed by mc_check on one market builds the cashflow table once: the
    table is kept on the market's grid, beside its other sums (_Grid.kept)."""

    @pytest.fixture
    def tables(self, monkeypatch):
        """Calls of _cashflow_table; every test's f1 has fresh curves, so an empty grid."""
        calls = []
        real = replication._cashflow_table

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(replication, "_cashflow_table", counted)
        return calls

    def test_report_then_mc_check_builds_one_table(self, f1, tables):
        market = f1.discount, f1.survival, f1.schedule, f1.bond
        replication_report(*market, RepoSpec(spread=0.001), True)
        mc_check(*market, RepoSpec(spread=0.001), True, 2000, seed=5)  # an equal, fresh repo
        assert len(tables) == 1

    def test_interleaved_markets_each_keep_their_table(self, f1, tables):
        # two markets' reports, then their mc_checks: each grid holds its own table
        markets = [(f1.discount, f1.survival, f1.schedule, f1.bond),
                   (f1.discount, SurvivalCurve.flat(0.03), f1.schedule, f1.bond)]
        for market in markets:
            replication_report(*market, RepoSpec(spread=0.001), True)
        for market in markets:
            mc_check(*market, RepoSpec(spread=0.001), True, 2000, seed=5)
        assert len(tables) == 2

    def test_a_kept_table_is_found_without_repr_of_the_schedule(self, monkeypatch, tables):
        # the key's schedule is matched by identity: its repr costs O(N), about as much
        # as a book-long op, so a key compared by repr must not reach it
        def refused(self):
            raise AssertionError("the table key's schedule was repr'd")

        schedule = build_schedule(0.0, 30.0, 12)
        assert schedule.n_periods == 360
        market = (DiscountCurve.flat(0.02), SurvivalCurve.flat(0.02), schedule,
                  BondSpec(coupon=0.05, recovery=0.4))
        monkeypatch.setattr(Schedule, "__repr__", refused)
        replication_report(*market, RepoSpec(spread=0.001), True)
        result = mc_check(*market, RepoSpec(spread=0.001), True, 2000, seed=5)
        assert len(tables) == 1 and math.isfinite(result.estimate)

    def test_mc_check_bits_do_not_depend_on_a_prior_report(self, f1):
        def market():  # fresh curves each time: a grid that keeps no table yet
            return (DiscountCurve.flat(f1.r), SurvivalCurve.flat(f1.hazard), f1.schedule,
                    f1.bond, RepoSpec(spread=0.001), False)

        alone = mc_check(*market(), 20_000, seed=42)
        after = market()
        replication_report(*after)
        after_report = mc_check(*after, 20_000, seed=42)
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
        ],
        ids=["schedule", "discount", "survival", "clause", "bond", "negative_zero"],
    )
    def test_a_different_market_rebuilds_the_table(self, f1, tables, first, second):
        # equal but distinct curves and schedules are other markets, and so are specs
        # that == calls equal but whose fields differ in sign
        first = {**dict(discount=f1.discount, survival=f1.survival, schedule=f1.schedule,
                        bond=f1.bond, repo=RepoSpec(0.001), clause=True), **first}
        second = {**first, **second}
        replication_report(*first.values())
        report = replication_report(*second.values())
        assert len(tables) == 2
        assert replication_report(*second.values()) == report  # the second is kept
        assert len(tables) == 2

    @pytest.mark.parametrize(
        "first, second",
        [(RepoSpec(2.0**-10), RepoSpec(np.float32(2.0**-10))),
         (RepoSpec(0.0, maturity=5.0), RepoSpec(0.0, maturity=5))],
        ids=["float32", "int_for_float"],
    )
    def test_repos_equal_in_value_share_the_table(self, f1, tables, first, second):
        # a spec keeps its fields as floats, so these two repos are equal field for field
        market = f1.discount, f1.survival, f1.schedule, f1.bond
        assert repr(second) == repr(first)
        report = replication_report(*market, first, True)
        assert repr(replication_report(*market, second, True)) == repr(report)
        assert len(tables) == 1
        fresh = DiscountCurve.flat(f1.r), SurvivalCurve.flat(f1.hazard), f1.schedule, f1.bond
        assert repr(replication_report(*fresh, second, True)) == repr(report)

    def test_an_evaluation_that_raises_stores_nothing(self, f1, tables):
        market = f1.discount, f1.survival, f1.schedule, f1.bond
        replication_report(*market, RepoSpec(spread=0.001), True)
        sums = _grid(*market[:3]).sums
        stored = sums[replication._par_table]
        early = RepoSpec(spread=0.001, maturity=3.0)
        for _ in range(2):  # no clause with an early repo: nothing to store, both times
            with pytest.raises(InconsistentSpecs):
                replication_report(*market, early, False)
        assert sums[replication._par_table] is stored
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


def test_mc_counts_are_one_multinomial_draw(draws):
    # on every market, the counts are one multinomial of the seed's stream over the
    # report's probabilities, and the moments are theirs, bit for bit
    n_paths = 20_000
    for seed, (market, repo, clause) in enumerate(_mc_cases()):
        counts, moments = _one_draw(replication_report(*market, repo, clause), n_paths, seed)
        draws.clear()
        assert mc_check(*market, repo, clause, n_paths, seed) == moments
        assert [c.tolist() for c in draws] == [counts.tolist()]


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
    """A cashflow table of bond and repo columns of terms, the amounts booked with weight 1."""
    def block(*columns):
        return [(leg, list(terms)) for leg, terms in zip((Leg.BOND, Leg.REPO), columns)]

    last = len(periods[0])
    return replication._CashflowTable(
        last=last, times=tuple(map(float, range(last + 1))),
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


def _slice_sums(table):
    """math.fsum over each scenario's whole slice of the table's terms, the CDS negated:
    default buckets 1..N, then survival."""
    return [
        math.fsum(-e.amount if e.leg is Leg.CDS else e.amount for e in table.entries(bucket))
        for bucket in (*range(1, len(table.times)), None)
    ]


def test_residuals_carry_what_the_opening_sum_rounds_away():
    # the opening's 1.0 is lost under the rounding of its 1e16-sized sum, and every
    # period row sums to exactly zero; each residual must still count it
    table = _table(opening=([1e16], [1.0]), periods=([0.0, 0.0], [0.0, 0.0]),
                   settlements=([-1e16, -1e16], [0.0, 0.0]), unwind=([-1e16], [0.0]))
    assert _slice_sums(table) == [1.0, 1.0, 1.0]
    assert table.residuals() == _slice_sums(table)


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


def _ledger_deals():
    """The 243 markets and deals, seed 2024, of the ledger comparison, in order, each
    on fresh curves: (discount, survival, schedule, bond, repo, clause)."""
    rng = random.Random(2024)
    markets = [random_market(rng) for _ in range(240)]
    markets += [_long_market(rng, periods) for periods in (120, 128, 136)]
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
        yield discount, survival, schedule, bond, repo, clause


def test_report_residuals_are_the_ledger_residuals_exactly():
    # the report sums each scenario's slice of one cashflow table; portfolio_ledger
    # materializes the same slice, so the two residuals agree bit for bit
    compared = 0
    for discount, survival, schedule, bond, repo, clause in _ledger_deals():
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


def test_report_residuals_take_the_batched_pass(monkeypatch):
    # on the markets and deals of the ledger comparison, every table's heads are proved
    # exact, so the report never carries a prefix bucket by bucket (_exact_parts)
    def refused(values):
        raise AssertionError("the report fell back to _exact_parts")

    monkeypatch.setattr(replication, "_exact_parts", refused)
    deals = 0
    for deal in _ledger_deals():  # fresh curves: every table is built
        replication_report(*deal)
        deals += 1
    assert deals == 243


def test_a_market_that_fails_the_proof_keeps_its_bits(monkeypatch):
    # quarterly over 2.5y with a repo to 1.25y: the head after period 4 is about 2.8e-19,
    # and period 5's row does not add to it exactly (about 1e-34 is lost), so the report
    # carries the prefix as its _exact_parts; every residual is still its slice's fsum
    calls, real = [], replication._exact_parts
    monkeypatch.setattr(replication, "_exact_parts", lambda parts: calls.append(1) or real(parts))
    discount = DiscountCurve((1.0,), (0.07388212074524665,))
    survival = SurvivalCurve((1.0,), (0.04588275721443137,))
    schedule = build_schedule(0.0, 2.5, 4)
    bond = BondSpec(0.04818646440472815, 0.7687255450544161)
    repo = RepoSpec(0.017301822112460126, maturity=1.25)
    g = _grid(discount, survival, schedule)
    table, residuals = g.kept(replication._par_table, (schedule, True, bond, repo))
    assert calls
    assert [r.hex() for r in residuals] == [r.hex() for r in _slice_sums(table)]


# Tables whose first term that is not finite lies in a coupon row or a settlement row,
# and the message each raised when every column was discounted and checked before any
# sum; the terms are now checked only once a sum is not finite.
_SETTLEMENT_MARKET = (  # MtM_7 = tail / P_7 overflows, P_7 about exp(-300), the clause off
    DiscountCurve((2.0, 4.0, 5.0), (0.02, 200.0, -200.0)), SurvivalCurve.flat(0.0),
    build_schedule(0.0, 5.0, 2), BondSpec(1e300, 0.9), RepoSpec(0.001),
)
_COUPON_MARKET = (  # (-eps_1 + 1e300) * theta_1 * P_1 overflows, P_1 = exp(100)
    DiscountCurve.flat(-100.0), SurvivalCurve.flat(0.02), build_schedule(0.0, 5.0, 1),
    BondSpec(0.05, 0.4), RepoSpec(1e300),
)


@pytest.mark.parametrize(
    "market, clause, message",
    [
        (_COUPON_MARKET, True, "discounted repo cashflow at t_1 is not a finite number"),
        (_COUPON_MARKET, False, "discounted repo cashflow at t_1 is not a finite number"),
        (_SETTLEMENT_MARKET, False,
         "discounted asset swap cashflow at t_7 is not a finite number"),
    ],
    ids=["coupon-clause", "coupon-no-clause", "settlement-no-clause"],
)
def test_a_report_names_the_term_that_overflows(market, clause, message):
    with pytest.raises(NonFiniteResult) as raised:
        replication_report(*market, clause)
    assert str(raised.value) == message


@pytest.mark.parametrize("clause", [True, False], ids=["clause", "no-clause"])
@pytest.mark.parametrize(
    "rate, row",
    # a weight of 1e308 at t_2: at 70% the repo's settlement -(1 + eps_2) overflows and
    # its coupon -eps_2 + s does not; at 300% the coupon overflows too, and is named
    [(0.7, "settlement"), (3.0, "coupon")],
)
def test_a_table_names_the_term_that_overflows(rate, row, clause):
    discount, survival = DiscountCurve.flat(rate), SurvivalCurve.flat(0.02)
    schedule = build_schedule(0.0, 5.0, 1)
    g = _grid(discount, survival, schedule)
    weights = [*g.p[:2], 1e308, *g.p[3:]]
    table = replication._cashflow_table(
        g, schedule, BondSpec(0.05, 0.4), RepoSpec(0.001), clause, weights
    )
    repo_coupons = table.periods[1][1]
    assert (not all(map(math.isfinite, repo_coupons))) == (row == "coupon")
    with pytest.raises(NonFiniteResult) as raised:
        table.residuals()
    assert str(raised.value) == "discounted repo cashflow at t_2 is not a finite number"


@given(
    seed=st.integers(0, 10**9), periods=st.integers(1, 360),
    frequency=st.sampled_from((1, 4, 12)), deal=st.sampled_from(("clause", "no-clause", "early")),
)
@example(seed=0, periods=360, frequency=12, deal="clause")
@example(seed=1, periods=360, frequency=4, deal="no-clause")
@settings(max_examples=12, deadline=None)
def test_each_residual_is_the_fsum_of_its_slice(seed, periods, frequency, deal):
    # the report's table holds discounted terms; each residual must be, bit for bit,
    # math.fsum over its scenario's whole slice of them, the CDS negated
    rng = random.Random(seed)
    discount, survival, schedule, bond = _long_market(rng, periods, frequency)
    repo = RepoSpec(rng.uniform(-0.01, 0.02))
    if deal == "early" and periods > 1:
        repo = RepoSpec(repo.spread, maturity=schedule.dates[rng.randrange(periods - 1)])
    g = _grid(discount, survival, schedule)
    table, residuals = g.kept(replication._par_table, (schedule, deal != "no-clause", bond, repo))
    assert [r.hex() for r in residuals] == [r.hex() for r in _slice_sums(table)]
