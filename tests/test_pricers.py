import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdsreplica import (
    BondSpec,
    CrossedMarket,
    DegenerateAnnuity,
    DiscountCurve,
    InconsistentSpecs,
    MaturityNotOnGrid,
    NonFiniteResult,
    RepoSpec,
    Schedule,
    SurvivalCurve,
    annuity_defaultable,
    annuity_riskfree,
    build_schedule,
    cancelable_asw_pv,
    default_leg_pv,
    early_termination_pv,
    forward_bond_price,
    forward_fixings,
    implied_repo_spreads,
    mtm_profile,
    par_asw_spread,
    par_cancelable_asw_spread,
    par_cancelable_asw_spread_generalized,
    par_cds_spread,
    price_riskfree_bond,
    price_risky_bond,
    price_risky_floater,
    price_sheet,
    replication_report,
    standard_asw_pv,
)
from cdsreplica import curves, pricers, replication
from enum_oracle import (
    oracle_asw_pv,
    oracle_bond_price,
    oracle_floater_price,
    oracle_forward_bond_price,
    oracle_par_cds_spread,
)
from markets import Market, random_market

# Reference values for the flat F1 market, frozen from the scenario-enumeration
# oracle in enum_oracle.py. The tests below assert the oracle still reproduces
# them and that the closed-form pricers agree.
F1_EXPECTED = {
    "risky_bond": 1.0774321670871119,
    "riskfree_bond": 1.1403727385592557,
    "risky_floater": 0.9450754363088278,
    "annuity": 4.441700764300309,
    "annuity_riskfree": 4.710706410465923,
    "cds_spread": 0.012365660499379455,
    "asw_spread": 0.013361174734283334,
    "cancelable_asw_pv_at_zero": -0.054924563691172046,
    "forward_price_3y": 1.0328421285681113,
}

TOL = 1e-12


class TestRiskfreeBond:
    def test_undiscounted_sum(self):
        schedule = build_schedule(0.0, 5.0, 1)
        assert price_riskfree_bond(DiscountCurve.flat(0.0), schedule, 0.05) == pytest.approx(
            1.25, abs=TOL
        )

    def test_zero_coupon_is_discount_factor(self):
        schedule = build_schedule(0.0, 5.0, 1)
        curve = DiscountCurve.flat(0.03)
        assert price_riskfree_bond(curve, schedule, 0.0) == pytest.approx(
            curve.discount_factor(5.0), abs=TOL
        )

    def test_direct_summation(self, f1):
        expected = math.fsum(
            0.05 * math.exp(-0.02 * k) for k in range(1, 6)
        ) + math.exp(-0.1)
        assert price_riskfree_bond(f1.discount, f1.schedule, 0.05) == pytest.approx(
            expected, abs=TOL
        )

    def test_infinite_discount_exponent_is_a_non_finite_result(self):
        # the integral -1e308 * 2 is -inf: P(2) = exp(inf) is inf, not a price
        with pytest.raises(NonFiniteResult, match="discount curve at t = 2.0"):
            price_riskfree_bond(DiscountCurve((1.0,), (-1e308,)), Schedule(0.0, (2.0,)), 0.05)


class TestRiskyBond:
    def test_no_hazard_equals_riskfree(self, f1):
        riskless = SurvivalCurve.flat(0.0)
        assert price_risky_bond(f1.discount, riskless, f1.schedule, f1.bond) == pytest.approx(
            price_riskfree_bond(f1.discount, f1.schedule, f1.bond.coupon), abs=TOL
        )

    def test_full_recovery_zero_coupon_form(self, f1):
        bond = BondSpec(coupon=0.0, recovery=1.0)
        got = price_risky_bond(f1.discount, f1.survival, f1.schedule, bond)
        expected = (
            f1.discount.discount_factor(5.0) * f1.survival.survival_prob(5.0)
            + default_leg_pv(f1.discount, f1.survival, f1.schedule)
        )
        assert got == pytest.approx(expected, abs=TOL)

    def test_f1_matches_enumeration_oracle(self, f1):
        oracle = oracle_bond_price(f1.r, f1.hazard, f1.coupon, f1.recovery, f1.times)
        assert oracle == pytest.approx(F1_EXPECTED["risky_bond"], abs=TOL)
        got = price_risky_bond(f1.discount, f1.survival, f1.schedule, f1.bond)
        assert got == pytest.approx(oracle, abs=TOL)

    def test_overflowing_discount_factor_is_a_non_finite_result(self, f1):
        # P(1) = exp(1000) overflows a float: a pricing error, not a bare OverflowError
        with pytest.raises(NonFiniteResult, match="discount curve at t = 1.0"):
            price_risky_bond(DiscountCurve.flat(-1000.0), f1.survival, f1.schedule, f1.bond)


class TestRiskyFloater:
    def test_no_hazard_is_par(self, f1):
        assert price_risky_floater(f1.discount, SurvivalCurve.flat(0.0), f1.schedule, 0.4) == (
            pytest.approx(1.0, abs=1e-14)
        )

    def test_full_recovery_is_par(self, f1):
        assert price_risky_floater(f1.discount, f1.survival, f1.schedule, 1.0) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_f1_matches_enumeration_oracle(self, f1):
        oracle = oracle_floater_price(f1.r, f1.hazard, f1.recovery, f1.times)
        assert oracle == pytest.approx(F1_EXPECTED["risky_floater"], abs=TOL)
        got = price_risky_floater(f1.discount, f1.survival, f1.schedule, f1.recovery)
        assert got == pytest.approx(oracle, abs=TOL)


@pytest.mark.parametrize("recovery", [2.0, -1.0, math.nan, True, np.True_, "0.4"])
@pytest.mark.parametrize("pricer", [par_cds_spread, price_risky_floater])
def test_bare_recovery_outside_unit_interval_rejected(f1, pricer, recovery):
    # BondSpec's rule holds for the pricers that take a bare recovery; True, numpy's
    # included, is no 1.0, and it and text are refused as not numbers
    match = r"recovery must lie in \[0, 1\]"
    if not isinstance(recovery, float):
        match = f"^recovery must be a number, got {type(recovery).__name__}$"
    with pytest.raises(ValueError, match=match):
        pricer(f1.discount, f1.survival, f1.schedule, recovery)


@pytest.mark.parametrize("value, kind", [(True, "bool"), (np.True_, "bool"), ("0.05", "str")],
                         ids=["bool", "numpy_bool", "text"])
@pytest.mark.parametrize(
    "name, call",
    [
        ("coupon", lambda m, x: price_riskfree_bond(m.discount, m.schedule, x)),
        ("spread", lambda m, x: standard_asw_pv(*m.market, m.bond, x)),
        ("spread", lambda m, x: cancelable_asw_pv(*m.market, m.bond, x)),
        ("spread", lambda m, x: mtm_profile(m.discount, m.schedule, m.bond, x)),
        ("spread", lambda m, x: early_termination_pv(*m.market, m.bond, x)),
        ("repo_maturity", lambda m, x: forward_bond_price(*m.market, m.bond, x)),
        ("repo_maturity",
         lambda m, x: par_cancelable_asw_spread_generalized(*m.market, m.bond, x, 1.0)),
        ("forward_price",
         lambda m, x: par_cancelable_asw_spread_generalized(*m.market, m.bond, 3.0, x)),
        ("cds_bid", lambda m, x: implied_repo_spreads(x, 0.02, 0.01, 0.02)),
        ("cds_ask", lambda m, x: implied_repo_spreads(0.01, x, 0.01, 0.02)),
        ("aswc_bid", lambda m, x: implied_repo_spreads(0.01, 0.02, x, 0.02)),
        ("aswc_ask", lambda m, x: implied_repo_spreads(0.01, 0.02, 0.01, x)),
    ],
    ids=["riskfree_bond", "standard_asw_pv", "cancelable_asw_pv", "mtm_profile",
         "early_termination_pv", "forward_bond_price", "generalized_maturity",
         "generalized_forward", "cds_bid", "cds_ask", "aswc_bid", "aswc_ask"],
)
def test_bare_scalars_follow_the_real_rule(f1, name, call, value, kind):
    # a bool once priced as 1 (a coupon of True: 5.6155) and text raised a bare TypeError
    f1.market = f1.discount, f1.survival, f1.schedule
    with pytest.raises(ValueError, match=f"^{name} must be a number, got {kind}$"):
        call(f1, value)


class TestAnnuities:
    def test_flat_world(self):
        schedule = build_schedule(0.0, 5.0, 1)
        d0 = DiscountCurve.flat(0.0)
        q0 = SurvivalCurve.flat(0.0)
        assert annuity_riskfree(d0, schedule) == pytest.approx(5.0, abs=TOL)
        assert annuity_defaultable(d0, q0, schedule) == pytest.approx(5.0, abs=TOL)

    def test_no_hazard_equalizes(self, f1):
        assert annuity_defaultable(f1.discount, SurvivalCurve.flat(0.0), f1.schedule) == (
            pytest.approx(annuity_riskfree(f1.discount, f1.schedule), abs=TOL)
        )

    def test_extreme_hazard_crushes_annuity(self, f1):
        crushed = annuity_defaultable(f1.discount, SurvivalCurve.flat(10.0), f1.schedule)
        direct = math.fsum(
            math.exp(-0.02 * k) * math.exp(-10.0 * k) for k in range(1, 6)
        )
        assert crushed == pytest.approx(direct, abs=TOL)
        assert crushed < 0.2 * annuity_riskfree(f1.discount, f1.schedule)


class TestParCdsSpread:
    def test_no_hazard_gives_zero(self, f1):
        assert par_cds_spread(f1.discount, SurvivalCurve.flat(0.0), f1.schedule, 0.4).spread == 0.0

    def test_full_recovery_gives_zero(self, f1):
        assert par_cds_spread(f1.discount, f1.survival, f1.schedule, 1.0).spread == 0.0

    def test_f1_matches_enumeration_oracle(self, f1):
        oracle = oracle_par_cds_spread(f1.r, f1.hazard, f1.recovery, f1.times)
        assert oracle == pytest.approx(F1_EXPECTED["cds_spread"], abs=TOL)
        got = par_cds_spread(f1.discount, f1.survival, f1.schedule, f1.recovery)
        assert got.spread == pytest.approx(oracle, abs=TOL)
        # close to hazard * LGD but not equal under discrete buckets
        assert got.spread != pytest.approx(0.012, abs=1e-6)
        assert got.spread == pytest.approx(0.012, abs=5e-4)

    def test_increasing_in_hazard(self, f1):
        spreads = [
            par_cds_spread(f1.discount, SurvivalCurve.flat(h), f1.schedule, 0.4).spread
            for h in (0.001, 0.01, 0.05, 0.1, 0.5, 1.0)
        ]
        assert all(a < b for a, b in zip(spreads, spreads[1:]))

    def test_decreasing_in_recovery(self, f1):
        spreads = [
            par_cds_spread(f1.discount, f1.survival, f1.schedule, rec).spread
            for rec in (0.0, 0.2, 0.4, 0.6, 0.8)
        ]
        assert all(a > b for a, b in zip(spreads, spreads[1:]))


class TestParAswSpread:
    def test_no_hazard_gives_zero(self, f1):
        assert par_asw_spread(f1.discount, SurvivalCurve.flat(0.0), f1.schedule, f1.bond).spread == (
            pytest.approx(0.0, abs=1e-15)
        )

    def test_decomposition(self, f1):
        result = par_asw_spread(f1.discount, f1.survival, f1.schedule, f1.bond)
        assert result.spread * result.annuity == pytest.approx(result.numerator, abs=TOL)

    def test_f1_value_and_pv_neutrality(self, f1):
        got = par_asw_spread(f1.discount, f1.survival, f1.schedule, f1.bond)
        assert got.spread == pytest.approx(F1_EXPECTED["asw_spread"], abs=TOL)
        # the swap keeps running after default in the standard contract; at par
        # the scenario-weighted package PV is zero
        oracle_pv = oracle_asw_pv(
            f1.r, f1.hazard, f1.coupon, f1.recovery, got.spread, f1.times,
            cancel_at_default=False,
        )
        assert oracle_pv == pytest.approx(0.0, abs=TOL)


class TestParCancelableAswSpread:
    def test_no_hazard_gives_zero(self, f1):
        got = par_cancelable_asw_spread(f1.discount, SurvivalCurve.flat(0.0), f1.schedule, f1.bond)
        assert got.spread == pytest.approx(0.0, abs=1e-14)

    def test_full_recovery_gives_zero(self, f1):
        bond = BondSpec(coupon=f1.coupon, recovery=1.0)
        got = par_cancelable_asw_spread(f1.discount, f1.survival, f1.schedule, bond)
        assert got.spread == pytest.approx(0.0, abs=1e-14)

    def test_equals_cds_spread_exactly(self, f1):
        cds = par_cds_spread(f1.discount, f1.survival, f1.schedule, f1.recovery).spread
        aswc = par_cancelable_asw_spread(f1.discount, f1.survival, f1.schedule, f1.bond).spread
        assert abs(cds - aswc) < 1e-12
        # equivalent route: the floater shortfall is the protection leg
        shortfall = 1.0 - price_risky_floater(f1.discount, f1.survival, f1.schedule, f1.recovery)
        protection = f1.bond.lgd * default_leg_pv(f1.discount, f1.survival, f1.schedule)
        assert shortfall == pytest.approx(protection, abs=TOL)


class TestAswPvs:
    def test_cancelable_pv_vanishes_at_par(self, f1):
        par = par_cancelable_asw_spread(f1.discount, f1.survival, f1.schedule, f1.bond).spread
        assert cancelable_asw_pv(f1.discount, f1.survival, f1.schedule, f1.bond, par) == (
            pytest.approx(0.0, abs=TOL)
        )

    def test_linearity_in_spread(self, f1):
        par = par_cancelable_asw_spread(f1.discount, f1.survival, f1.schedule, f1.bond).spread
        annuity = annuity_defaultable(f1.discount, f1.survival, f1.schedule)
        bumped = cancelable_asw_pv(f1.discount, f1.survival, f1.schedule, f1.bond, par + 0.01)
        assert bumped == pytest.approx(0.01 * annuity, abs=TOL)

    def test_f1_pv_at_zero_spread_matches_oracle(self, f1):
        oracle = oracle_asw_pv(
            f1.r, f1.hazard, f1.coupon, f1.recovery, 0.0, f1.times, cancel_at_default=True
        )
        assert oracle == pytest.approx(F1_EXPECTED["cancelable_asw_pv_at_zero"], abs=TOL)
        got = cancelable_asw_pv(f1.discount, f1.survival, f1.schedule, f1.bond, 0.0)
        assert got == pytest.approx(oracle, abs=TOL)

    def test_standard_pv_vanishes_at_par(self, f1):
        par = par_asw_spread(f1.discount, f1.survival, f1.schedule, f1.bond).spread
        assert standard_asw_pv(f1.discount, f1.survival, f1.schedule, f1.bond, par) == (
            pytest.approx(0.0, abs=TOL)
        )


class TestMtmProfile:
    def test_zero_value_swap(self):
        # flat curves and spread = c - eps make every period payment vanish
        discount = DiscountCurve.flat(0.02)
        schedule = build_schedule(0.0, 5.0, 1)
        eps = forward_fixings(discount, schedule)[0]
        bond = BondSpec(coupon=0.05, recovery=0.4)
        profile = mtm_profile(discount, schedule, bond, spread=0.05 - eps)
        assert all(abs(v) < 1e-15 for v in profile.values)

    def test_last_entry_is_single_term(self, f1):
        spread = 0.01
        eps = forward_fixings(f1.discount, f1.schedule)
        profile = mtm_profile(f1.discount, f1.schedule, f1.bond, spread)
        expected = (-f1.coupon + eps[-1] + spread) * f1.schedule.accruals[-1]
        assert profile.values[-1] == pytest.approx(expected, abs=TOL)

    def test_brute_force_resummation(self, f1):
        spread = par_cancelable_asw_spread(f1.discount, f1.survival, f1.schedule, f1.bond).spread
        eps = forward_fixings(f1.discount, f1.schedule)
        profile = mtm_profile(f1.discount, f1.schedule, f1.bond, spread)
        dates = f1.schedule.dates
        for k in range(1, 6):
            brute = sum(
                (-f1.coupon + eps[h - 1] + spread)
                * f1.schedule.accruals[h - 1]
                * f1.discount.discount_factor(dates[h - 1])
                / f1.discount.discount_factor(dates[k - 1])
                for h in range(k, 6)
            )
            assert profile.values[k - 1] == pytest.approx(brute, abs=TOL)


    def test_values_are_the_backward_loops_bits(self, monkeypatch):
        # the running sums add as the loop did, 0.0 + pay_N first, and divide by the same P_k
        def loop(g, coupon, spread):
            payments = pricers._swap_payments(g, coupon, spread)
            values = [0.0] * len(payments)
            tail = 0.0
            for k in range(len(payments), 0, -1):
                tail += payments[k - 1]
                values[k - 1] = tail / g.p[k]
            return values

        rng = random.Random(31)
        for _ in range(60):
            m = random_market(rng)
            spread = rng.uniform(-0.05, 0.05)
            g = curves._grid(m.discount, None, m.schedule)
            assert ([v.hex() for v in pricers._mtm_values(g, m.bond.coupon, spread)]
                    == [v.hex() for v in loop(g, m.bond.coupon, spread)])
            repo = RepoSpec(rng.uniform(0.0, 0.01))  # clause off needs a repo to maturity
            report = replication_report(*m, repo, False)
            with monkeypatch.context() as patched:
                patched.setattr(replication, "_mtm_values", loop)
                # fresh curves: the report's table is kept on the market's grid
                fresh = m.discount._replace(), m.survival._replace()
                reference = replication_report(*fresh, m.schedule, m.bond, repo, False)
            assert repr(report) == repr(reference)  # repr round-trips every float exactly


class TestEarlyTerminationPv:
    def test_no_hazard_gives_zero(self, f1):
        assert early_termination_pv(
            f1.discount, SurvivalCurve.flat(0.0), f1.schedule, f1.bond, 0.01
        ) == 0.0

    def test_zero_value_swap_gives_zero(self, f1):
        eps = forward_fixings(f1.discount, f1.schedule)[0]
        got = early_termination_pv(
            f1.discount, f1.survival, f1.schedule, f1.bond, f1.coupon - eps
        )
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_clause_bridges_standard_and_cancelable(self, f1):
        s_asw = par_asw_spread(f1.discount, f1.survival, f1.schedule, f1.bond).spread
        lhs = standard_asw_pv(
            f1.discount, f1.survival, f1.schedule, f1.bond, s_asw
        ) + early_termination_pv(f1.discount, f1.survival, f1.schedule, f1.bond, s_asw)
        rhs = cancelable_asw_pv(f1.discount, f1.survival, f1.schedule, f1.bond, s_asw)
        assert lhs == pytest.approx(rhs, abs=TOL)

    def test_double_sum_route_agrees(self, f1):
        spread = 0.013
        profile = mtm_profile(f1.discount, f1.schedule, f1.bond, spread)
        probs = [
            f1.survival.survival_prob(k - 1.0) - f1.survival.survival_prob(float(k))
            for k in range(1, 6)
        ]
        double_sum = -math.fsum(
            p * f1.discount.discount_factor(float(k)) * profile.values[k - 1]
            for k, p in enumerate(probs, start=1)
        )
        got = early_termination_pv(f1.discount, f1.survival, f1.schedule, f1.bond, spread)
        assert got == pytest.approx(double_sum, abs=TOL)


class TestForwardBondPrice:
    def test_flat_world_two_coupons_plus_par(self):
        discount = DiscountCurve.flat(0.0)
        survival = SurvivalCurve.flat(0.0)
        schedule = build_schedule(0.0, 5.0, 1)
        bond = BondSpec(coupon=0.05, recovery=0.4)
        assert forward_bond_price(discount, survival, schedule, bond, 3.0) == pytest.approx(
            1.10, abs=TOL
        )

    def test_zero_coupon_forward_discount(self, f1):
        bond = BondSpec(coupon=0.0, recovery=0.4)
        got = forward_bond_price(f1.discount, SurvivalCurve.flat(0.0), f1.schedule, bond, 4.0)
        expected = f1.discount.discount_factor(5.0) / f1.discount.discount_factor(4.0)
        assert got == pytest.approx(expected, abs=TOL)

    def test_f1_matches_conditional_enumeration(self, f1):
        oracle = oracle_forward_bond_price(
            f1.r, f1.hazard, f1.coupon, f1.recovery, f1.times, 3.0
        )
        assert oracle == pytest.approx(F1_EXPECTED["forward_price_3y"], abs=TOL)
        got = forward_bond_price(f1.discount, f1.survival, f1.schedule, f1.bond, 3.0)
        assert got == pytest.approx(oracle, abs=TOL)

    def test_off_grid_rejected(self, f1):
        with pytest.raises(MaturityNotOnGrid):
            forward_bond_price(f1.discount, f1.survival, f1.schedule, f1.bond, 2.5)

    def test_underflowed_survival_rejected(self, f1):
        # Q(3) = exp(-900) is 0.0: the price conditional on surviving to 3y is undefined
        with pytest.raises(DegenerateAnnuity, match="forward bond price at t_3"):
            forward_bond_price(f1.discount, SurvivalCurve.flat(300.0), f1.schedule, f1.bond, 3.0)


class TestGeneralizedSpread:
    def test_reduces_to_plain_cancelable_at_maturity(self, f1):
        plain = par_cancelable_asw_spread(f1.discount, f1.survival, f1.schedule, f1.bond)
        generalized = par_cancelable_asw_spread_generalized(
            f1.discount, f1.survival, f1.schedule, f1.bond, 5.0, 1.0
        )
        assert generalized.spread == plain.spread
        assert generalized.numerator == plain.numerator
        assert generalized.annuity == plain.annuity

    def test_no_hazard_at_unit_forward_gives_zero(self, f1):
        got = par_cancelable_asw_spread_generalized(
            f1.discount, SurvivalCurve.flat(0.0), f1.schedule, f1.bond, 3.0, 1.0
        )
        assert got.spread == pytest.approx(0.0, abs=1e-14)

    def test_fair_forward_matches_truncated_cds(self, f1):
        # at the fair forward price the package replicates a CDS ending at the
        # repo maturity, so the spread matches the truncated par CDS spread
        fair = forward_bond_price(f1.discount, f1.survival, f1.schedule, f1.bond, 3.0)
        got = par_cancelable_asw_spread_generalized(
            f1.discount, f1.survival, f1.schedule, f1.bond, 3.0, fair
        )
        oracle = oracle_par_cds_spread(f1.r, f1.hazard, f1.recovery, f1.times[:3])
        assert got.spread - (fair - 1.0) / got.annuity == pytest.approx(oracle, abs=TOL)

    @pytest.mark.parametrize("repo_maturity,forward_price,message", [
        (5.0, 1.02, "repo to maturity must use forward price 1, got 1.02"),
        (3.0, -0.5, "forward price must be positive, got -0.5"),
        (3.0, 0.0, "forward price must be positive, got 0.0"),
    ], ids=["to-maturity-off-par", "negative", "zero"])
    def test_repurchase_price_checked_as_for_the_replication(
        self, f1, repo_maturity, forward_price, message
    ):
        # the repurchase prices that price_sheet and replication_report reject
        market = (f1.discount, f1.survival, f1.schedule, f1.bond)
        with pytest.raises(InconsistentSpecs, match=f"^{message}$"):
            par_cancelable_asw_spread_generalized(*market, repo_maturity, forward_price)
        with pytest.raises(InconsistentSpecs, match=f"^{message}$"):
            price_sheet(*market, RepoSpec(0.0, repo_maturity, forward_price))


class TestImpliedRepoSpreads:
    def test_plain_arithmetic(self):
        got = implied_repo_spreads(0.010, 0.012, 0.009, 0.011)
        assert got.repo == pytest.approx(0.003, abs=1e-15)
        assert got.reverse_repo == pytest.approx(-0.001, abs=1e-15)

    def test_zero_width_quotes(self):
        got = implied_repo_spreads(0.01, 0.01, 0.01, 0.01)
        assert got.repo == 0.0
        assert got.reverse_repo == 0.0

    def test_crossed_quotes_rejected(self):
        with pytest.raises(CrossedMarket):
            implied_repo_spreads(0.012, 0.010, 0.009, 0.011)
        with pytest.raises(CrossedMarket):
            implied_repo_spreads(0.010, 0.012, 0.011, 0.009)

    def test_non_finite_spread_rejected(self):
        # the difference of two finite quotes overflows; a NaN quote crosses nothing
        with pytest.raises(NonFiniteResult, match="^implied repo spread is inf, not a finite"):
            implied_repo_spreads(1e308, 1e308, -1e308, -1e308)
        with pytest.raises(NonFiniteResult, match="^implied reverse repo spread is nan, not a"):
            implied_repo_spreads(math.nan, 0.01, 0.01, 0.01)


@given(seed=st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_cds_and_cancelable_asw_spreads_coincide(seed):
    market = random_market(random.Random(seed))
    cds = par_cds_spread(market.discount, market.survival, market.schedule, market.bond.recovery)
    aswc = par_cancelable_asw_spread(market.discount, market.survival, market.schedule, market.bond)
    assert abs(cds.spread - aswc.spread) < 1e-12


@given(seed=st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_spread_results_decompose(seed):
    market = random_market(random.Random(seed))
    for result in (
        par_cds_spread(market.discount, market.survival, market.schedule, market.bond.recovery),
        par_asw_spread(market.discount, market.survival, market.schedule, market.bond),
        par_cancelable_asw_spread(market.discount, market.survival, market.schedule, market.bond),
    ):
        assert result.spread * result.annuity == pytest.approx(result.numerator, abs=1e-12)


def test_degenerate_annuity_unreachable_but_guarded():
    # annuities of valid curves are positive; the guard needs a synthetic zero
    schedule = build_schedule(0.0, 1.0, 1)
    discount = DiscountCurve.flat(0.0)
    crushed = SurvivalCurve.flat(800.0)  # survival underflows to exactly 0.0
    with pytest.raises(DegenerateAnnuity):
        par_cds_spread(discount, crushed, schedule, 0.4)


def test_absurd_par_spread_guarded(f1):
    # hazard 700: the annuity is about 1e-304 and the spread 6.2e303, finite but absurd
    with pytest.raises(DegenerateAnnuity, match="exceeds 1e"):
        par_cds_spread(f1.discount, SurvivalCurve.flat(700.0), f1.schedule, f1.recovery)
    # the top of the calibration bracket (hazard 10) on an annual grid still prices
    top = par_cds_spread(f1.discount, SurvivalCurve.flat(10.0), f1.schedule, 0.0)
    assert 2e4 < top.spread < 3e4


_INFINITE_CASHFLOWS = Market(  # a coupon of 1e300 at discount factors up to e^500
    DiscountCurve((5.0,), (-100.0,)), SurvivalCurve.flat(0.02), build_schedule(0.0, 5.0, 1),
    BondSpec(1e300, 0.4),
)


@pytest.mark.parametrize(
    "price, what",
    [
        (lambda m: price_risky_bond(*m), "risky bond price is inf"),
        (lambda m: price_riskfree_bond(m.discount, m.schedule, m.bond.coupon),
         "risk-free bond price is inf"),
        (lambda m: early_termination_pv(*m, 0.01), "early termination PV is inf"),
        (lambda m: standard_asw_pv(*m, 0.01), "standard asset swap PV is nan"),
        (lambda m: cancelable_asw_pv(*m, 0.01), "cancelable asset swap PV is nan"),
        (lambda m: mtm_profile(m.discount, m.schedule, m.bond, 0.01),
         "mark-to-market value at t_1 is -inf"),
    ],
    ids=["risky_bond", "riskfree_bond", "etp", "standard_asw_pv", "cancelable_asw_pv", "mtm"],
)
def test_public_pricer_returns_no_infinite_or_nan_value(price, what):
    with pytest.raises(NonFiniteResult, match=f"^{what}, not a finite number$"):
        price(_INFINITE_CASHFLOWS)


def test_infinite_annuity_is_a_non_finite_result():
    # one accrual of 1e300 at a discount factor of about 1.3e9: theta * P overflows,
    # and numerator / annuity would read a spread of 0
    d, s, g = DiscountCurve.flat(-2.1e-299), SurvivalCurve.flat(0.0), Schedule(0.0, (1e300,))
    bond = BondSpec(0.0, 0.4)
    for price in (lambda: par_cds_spread(d, s, g, 0.4), lambda: par_asw_spread(d, s, g, bond),
                  lambda: par_cancelable_asw_spread(d, s, g, bond)):
        with pytest.raises(NonFiniteResult, match="^annuity is inf, not a finite number$"):
            price()


def test_vanishing_riskfree_annuity_guarded(f1):
    # discount factors underflow to 0.0: the risk-free annuity vanishes with them
    with pytest.raises(DegenerateAnnuity):
        par_asw_spread(DiscountCurve.flat(1e308), f1.survival, f1.schedule, f1.bond)


@pytest.mark.parametrize(
    "fields",
    [dict(spread=math.nan), dict(spread=math.inf), dict(spread=0.0, maturity=math.nan),
     dict(spread=0.0, forward_price=-math.inf), dict(spread=True), dict(spread="0.01")],
)
def test_non_finite_repo_spec_rejected(fields):
    # a bool or text is not a finite number: True would price as 1.0, and text
    # failed with a bare TypeError
    with pytest.raises(ValueError):
        RepoSpec(**fields)


@pytest.mark.parametrize(
    "fields,match",
    [(dict(coupon=math.inf, recovery=0.4), "finite"), (dict(coupon=0.05, recovery=1.5), "recovery"),
     (dict(coupon=0.05, recovery=True), "recovery"),
     (dict(coupon="0.05", recovery=0.4), "^coupon must be a number, got str$"),
     (dict(coupon=0.05, recovery=np.True_), "recovery")],
)
def test_invalid_bond_spec_rejected(fields, match):
    with pytest.raises(ValueError, match=match):
        BondSpec(**fields)


def test_premium_bond_lowers_clause_spread(f1):
    """The break clause cancels a liability of the holder of a premium bond, so
    its par spread sits below the standard one; discount bonds flip the sign.
    (The opposite ordering is sometimes asserted; the exact formulas give this one.)
    """
    premium = BondSpec(coupon=0.10, recovery=0.4)
    discountb = BondSpec(coupon=0.0, recovery=0.4)
    for bond, sign in ((premium, -1.0), (discountb, 1.0)):
        b0 = price_risky_bond(f1.discount, f1.survival, f1.schedule, bond)
        assert (b0 - 1.0) * sign < 0.0
        s_asw = par_asw_spread(f1.discount, f1.survival, f1.schedule, bond).spread
        s_aswc = par_cancelable_asw_spread(f1.discount, f1.survival, f1.schedule, bond).spread
        assert (s_aswc - s_asw) * sign > 0.0
