import collections
import math
import random
import re
import sys
import threading
from itertools import accumulate

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdsreplica import (
    BondSpec,
    DefaultDistribution,
    DegenerateAnnuity,
    DiscountCurve,
    InconsistentSpecs,
    InvalidInterval,
    NonFiniteResult,
    QuoteUnattainable,
    RepoSpec,
    Schedule,
    SurvivalCurve,
    TimeBeforeAnchor,
    annuity_defaultable,
    annuity_riskfree,
    build_schedule,
    calibrate_flat_hazard,
    cancelable_asw_pv,
    default_distribution,
    default_leg_pv,
    early_termination_pv,
    enumerate_scenarios,
    forward_bond_price,
    forward_fixings,
    mc_check,
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
from cdsreplica.curves import _calibrate_flat_hazard
import calibration_oracle
from curve_oracle import exp_integrals
from markets import random_discount, random_survival


def manual_integral(t0, node_times, rates, a, b):
    """Clip-and-sum re-implementation of the piecewise-flat integral over [a, b]."""
    breaks = [t0, *node_times, max(b, node_times[-1]) + 1.0]
    total = 0.0
    for i, rate in enumerate([*rates, rates[-1]]):
        lo, hi = breaks[i], breaks[i + 1]
        total += rate * max(0.0, min(hi, b) - max(lo, a))
    return total


class TestDiscountCurve:
    def test_zero_rate_is_unit(self):
        assert DiscountCurve.flat(0.0).discount_factor(7.3) == 1.0

    def test_flat_closed_form(self):
        assert DiscountCurve.flat(0.02).discount_factor(5.0) == pytest.approx(
            math.exp(-0.1), abs=1e-15
        )

    def test_two_segment_integral(self):
        curve = DiscountCurve(node_times=(1.0, 2.0), fwd_rates=(0.01, 0.03))
        assert curve.discount_factor(2.0) == pytest.approx(math.exp(-0.04), abs=1e-15)
        # last segment extrapolates flat
        assert curve.discount_factor(4.0) == pytest.approx(math.exp(-0.10), abs=1e-15)

    def test_anchor_is_exactly_one(self):
        curve = DiscountCurve.flat(0.05, t0=2.0)
        assert curve.discount_factor(2.0) == 1.0

    def test_time_before_anchor_rejected(self):
        with pytest.raises(TimeBeforeAnchor):
            DiscountCurve.flat(0.02).discount_factor(-0.1)

    @pytest.mark.parametrize(
        "nodes,rates",
        [((1.0, 1.0), (0.01, 0.02)), ((2.0, 1.0), (0.01, 0.02)), ((), ()), ((1.0,), (0.01, 0.02)),
         ((1.0,), (math.inf,))],
    )
    def test_bad_segments_rejected(self, nodes, rates):
        with pytest.raises(ValueError):
            DiscountCurve(node_times=nodes, fwd_rates=rates)


@pytest.mark.parametrize("curve", [DiscountCurve, SurvivalCurve])
@pytest.mark.parametrize("nodes", [(math.nan,), (math.nan, 2.0), (1.0, math.nan)])
def test_nan_node_time_rejected(curve, nodes):
    with pytest.raises(ValueError):
        curve(nodes, tuple(0.02 for _ in nodes))


@pytest.mark.parametrize("curve", [DiscountCurve, SurvivalCurve])
@pytest.mark.parametrize("t0", [-math.inf, math.inf, math.nan])
def test_non_finite_anchor_rejected(curve, t0):
    # a curve anchored at -inf once built, and its value at t = 1 was 0.0; Schedule
    # refuses such an anchor too
    with pytest.raises(ValueError, match="^t0 must be finite$"):
        curve((1.0,), (0.02,), t0)


class TestSurvivalCurve:
    def test_no_hazard_is_certain_survival(self):
        curve = SurvivalCurve.flat(0.0)
        for t in (0.0, 1.0, 50.0):
            assert curve.survival_prob(t) == 1.0

    def test_flat_closed_form(self):
        assert SurvivalCurve.flat(0.02).survival_prob(5.0) == pytest.approx(
            math.exp(-0.1), abs=1e-15
        )

    def test_anchor(self):
        assert SurvivalCurve.flat(0.02).survival_prob(0.0) == 1.0

    def test_negative_hazard_rejected(self):
        with pytest.raises(ValueError):
            SurvivalCurve(node_times=(1.0,), hazards=(-0.01,))


class TestForwardRate:
    def test_zero_rate_gives_zero(self):
        assert DiscountCurve.flat(0.0).forward_rate(0.0, 1.0) == 0.0

    def test_flat_closed_form(self):
        assert DiscountCurve.flat(0.02).forward_rate(0.0, 1.0) == pytest.approx(
            math.exp(0.02) - 1.0, abs=1e-15
        )

    def test_degenerate_interval_rejected(self):
        for t_start, t_end in ((1.0, 1.0), (math.nan, 1.0)):
            with pytest.raises(InvalidInterval):
                DiscountCurve.flat(0.02).forward_rate(t_start, t_end)

    def test_start_before_anchor_rejected(self):
        with pytest.raises(TimeBeforeAnchor):
            DiscountCurve.flat(0.02).forward_rate(-1.0, 1.0)

    def test_each_period_is_the_grids_fixing_bit_for_bit(self):
        # a piecewise curve on a quarterly grid: every period after the first starts off 0
        curve = DiscountCurve((1.0, 2.5, 4.0), (0.01, 0.03, 0.045))
        schedule = build_schedule(0.0, 5.0, 4)
        fixings = forward_fixings(curve, schedule)
        times = (schedule.t0, *schedule.dates)
        for k in range(1, schedule.n_periods + 1):
            assert curve.forward_rate(times[k - 1], times[k]).hex() == fixings[k - 1].hex(), k

    def test_an_interval_off_the_nodes(self):
        # (0.7, 2.3] starts inside the first segment and ends inside the second
        curve = DiscountCurve((1.0, 3.0), (0.02, 0.025))
        growth = math.exp(0.02 * 0.3 + 0.025 * 1.3)  # P(0.7) / P(2.3)
        assert curve.forward_rate(0.7, 2.3) == pytest.approx((growth - 1.0) / 1.6, rel=1e-14)


class TestAnchors:
    """Every pricer reads P and Q from the schedule's t0, so each curve must be anchored there."""

    SCHEDULE = build_schedule(1.0, 6.0, 1)
    BOND = BondSpec(0.05, 0.4)

    @pytest.mark.parametrize("call", [
        lambda d, q, s, b: par_cds_spread(d, q, s, b.recovery),
        lambda d, q, s, b: price_sheet(d, q, s, b, RepoSpec(0.0)),
        lambda d, q, s, b: replication_report(d, q, s, b, RepoSpec(0.0), True),
        lambda d, q, s, b: calibrate_flat_hazard(d, s, 0.01, b.recovery),
    ], ids=["par_cds_spread", "price_sheet", "replication_report", "calibrate_flat_hazard"])
    def test_discount_curve_anchored_away_from_the_schedule_rejected(self, call):
        discount, survival = DiscountCurve.flat(0.03), SurvivalCurve.flat(0.02, t0=1.0)
        with pytest.raises(
            InconsistentSpecs, match="discount curve is anchored at 0.0, the schedule at 1.0"
        ):
            call(discount, survival, self.SCHEDULE, self.BOND)

    def test_survival_curve_anchored_away_from_the_schedule_rejected(self):
        with pytest.raises(
            InconsistentSpecs, match="survival curve is anchored at 0.0, the schedule at 1.0"
        ):
            default_distribution(SurvivalCurve.flat(0.02), self.SCHEDULE)

    def test_curves_anchored_at_the_schedule_replicate(self):
        discount, survival = DiscountCurve.flat(0.03, t0=1.0), SurvivalCurve.flat(0.02, t0=1.0)
        s_cds = par_cds_spread(discount, survival, self.SCHEDULE, self.BOND.recovery).spread
        s_aswc = par_cancelable_asw_spread(discount, survival, self.SCHEDULE, self.BOND).spread
        assert abs(s_cds - s_aswc) < 1e-12
        report = replication_report(
            discount, survival, self.SCHEDULE, self.BOND, RepoSpec(0.0), True
        )
        assert report.max_abs_residual < 1e-10


class TestDefaultDistribution:
    def test_no_hazard(self):
        schedule = build_schedule(0.0, 5.0, 1)
        dist = default_distribution(SurvivalCurve.flat(0.0), schedule)
        assert dist.bucket_probs == (0.0,) * 5
        assert dist.survival_prob == 1.0

    def test_flat_hazard_closed_form(self):
        schedule = build_schedule(0.0, 5.0, 1)
        dist = default_distribution(SurvivalCurve.flat(0.02), schedule)
        for k in range(1, 6):
            expected = math.exp(-0.02 * (k - 1)) - math.exp(-0.02 * k)
            assert dist.bucket_probs[k - 1] == pytest.approx(expected, abs=1e-15)
        assert dist.survival_prob == pytest.approx(math.exp(-0.1), abs=1e-15)

    @pytest.mark.parametrize(
        "buckets,survival,match",
        [((0.6, -0.1), 0.5, "non-negative"), ((0.5,), 1.5, r"\[0, 1\]"), ((0.5,), 0.4, "sum to"),
         ((0.5, math.nan), 0.5, "non-negative")],
    )
    def test_invalid_distribution_rejected(self, buckets, survival, match):
        with pytest.raises(ValueError, match=match):
            DefaultDistribution(buckets, survival)

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=100, deadline=None)
    def test_probabilities_exhaust_the_measure(self, seed):
        rng = random.Random(seed)
        periods = rng.randint(1, 30)
        schedule = build_schedule(0.0, float(periods), 1)
        dist = default_distribution(random_survival(rng, float(periods)), schedule)
        assert all(p >= 0.0 for p in dist.bucket_probs)
        total = math.fsum(dist.bucket_probs) + dist.survival_prob
        assert abs(total - 1.0) <= 1e-12


@given(seed=st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_discount_multiplicativity(seed):
    rng = random.Random(seed)
    curve = random_discount(rng, 10.0)
    t1 = rng.uniform(0.0, 10.0)
    t2 = t1 + rng.uniform(0.0, 10.0)
    increment = manual_integral(curve.t0, curve.node_times, curve.fwd_rates, t1, t2)
    assert curve.discount_factor(t2) == pytest.approx(
        curve.discount_factor(t1) * math.exp(-increment), rel=1e-13
    )


@given(seed=st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_survival_multiplicativity(seed):
    rng = random.Random(seed)
    curve = random_survival(rng, 10.0)
    t1 = rng.uniform(0.0, 10.0)
    t2 = t1 + rng.uniform(0.0, 10.0)
    increment = manual_integral(curve.t0, curve.node_times, curve.hazards, t1, t2)
    assert curve.survival_prob(t2) == pytest.approx(
        curve.survival_prob(t1) * math.exp(-increment), rel=1e-13
    )


@given(seed=st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_fixing_reconstructs_discount_ratio(seed):
    rng = random.Random(seed)
    periods = rng.randint(1, 20)
    frequency = rng.choice((1, 2, 4))
    schedule = build_schedule(0.0, periods / frequency, frequency)
    curve = random_discount(rng, schedule.maturity)
    fixings = forward_fixings(curve, schedule)
    prev = schedule.t0
    for k, t in enumerate(schedule.dates):
        lhs = (1.0 + fixings[k] * schedule.accruals[k]) * curve.discount_factor(t)
        assert lhs == pytest.approx(curve.discount_factor(prev), rel=1e-14)
        prev = t


class TestCalibration:
    def test_zero_quote_gives_zero_hazard(self):
        discount = DiscountCurve.flat(0.02)
        schedule = build_schedule(0.0, 5.0, 1)
        curve = calibrate_flat_hazard(discount, schedule, 0.0, 0.4)
        assert curve.hazards == (0.0,)

    @pytest.mark.parametrize("hazard", [1e-6, 1e-4, 0.01, 0.02, 0.2, 1.0])
    def test_roundtrip_through_the_pricer(self, hazard):
        discount = DiscountCurve.flat(0.02)
        schedule = build_schedule(0.0, 5.0, 1)
        quote = par_cds_spread(discount, SurvivalCurve.flat(hazard), schedule, 0.4).spread
        fitted = calibrate_flat_hazard(discount, schedule, quote, 0.4)
        assert fitted.hazards[0] == pytest.approx(hazard, abs=1e-10)
        reproduced = par_cds_spread(discount, fitted, schedule, 0.4).spread
        assert reproduced == pytest.approx(quote, abs=1e-12)

    def test_quote_above_bracket_ceiling_rejected(self):
        discount = DiscountCurve.flat(0.02)
        schedule = build_schedule(0.0, 5.0, 1)
        ceiling = par_cds_spread(discount, SurvivalCurve.flat(10.0), schedule, 0.4).spread
        with pytest.raises(QuoteUnattainable):
            calibrate_flat_hazard(discount, schedule, ceiling * 1.01, 0.4)

    def test_positive_quote_with_full_recovery_rejected(self):
        discount = DiscountCurve.flat(0.02)
        schedule = build_schedule(0.0, 5.0, 1)
        with pytest.raises(ValueError):
            calibrate_flat_hazard(discount, schedule, 0.01, 1.0)

    def test_negative_quote_rejected(self):
        discount = DiscountCurve.flat(0.02)
        schedule = build_schedule(0.0, 5.0, 1)
        with pytest.raises(ValueError):
            calibrate_flat_hazard(discount, schedule, -0.01, 0.4)

    @pytest.mark.parametrize(
        "quote,recovery,match",
        [("0.01", 0.4, "cds quote"), (0.01, "0.4", "recovery"), (True, 0.4, "cds quote"),
         (0.01, False, "recovery")],
    )
    def test_text_or_bool_input_rejected(self, quote, recovery, match):
        # True would calibrate to a quote of 1; text failed with a bare TypeError
        schedule = build_schedule(0.0, 5.0, 1)
        with pytest.raises(ValueError, match=match):
            calibrate_flat_hazard(DiscountCurve.flat(0.02), schedule, quote, recovery)


# A grid whose accruals are 0.5, 0.5, 2 and 2 years: its first guess, from the mean
# accrual, misses the root, so the fit takes Newton steps (3 points at quotes of 1-3%).
IRREGULAR = Schedule(0.0, (0.5, 1.0, 3.0, 5.0))

# Worst point count measured over 9,000 random markets in these ranges (1-4-node
# discount curves, h log-uniform and uniform on [1e-6, 9]): 14, where bisection
# on [0, 10] took a median of 41-42 and at most 54. The bound leaves a margin of 6.
# That was from the first guess quote / LGD; TestFirstGuess bounds the fit from the
# root of the discrete spread, and this bound stays the cap of any start.
NEWTON_MAX_POINTS = 20


@st.composite
def calibration_markets(draw):
    frequency = draw(st.sampled_from((1, 2, 4, 12)))
    periods = draw(st.integers(1, 360))
    maturity = periods / frequency
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4))
    times = [maturity * 1.2 * sum(gaps[: i + 1]) / sum(gaps) for i in range(len(gaps))]
    rates = draw(st.lists(st.floats(-0.02, 0.10), min_size=len(times), max_size=len(times)))
    hazard = draw(st.floats(1e-6, 9.0))
    recovery = draw(st.floats(0.0, 0.95))
    discount = DiscountCurve(tuple(times), tuple(rates))
    return discount, build_schedule(0.0, maturity, frequency), hazard, recovery


class TestNewtonCalibration:
    @given(market=calibration_markets())
    @settings(max_examples=150, deadline=None)
    def test_reproduces_the_quote_in_few_points(self, market):
        discount, schedule, hazard, recovery = market
        quote = par_cds_spread(discount, SurvivalCurve.flat(hazard), schedule, recovery).spread
        fit = _calibrate_flat_hazard(discount, schedule, quote, recovery)
        assert abs(fit.spread - quote) < 1e-12
        assert fit.iterations <= NEWTON_MAX_POINTS
        assert fit.curve == calibrate_flat_hazard(discount, schedule, quote, recovery)

    def test_reported_spread_is_the_pricers_spread_exactly(self):
        rng = random.Random(11)
        for _ in range(50):
            schedule = build_schedule(0.0, rng.randint(1, 40) / 4, 4)
            discount = random_discount(rng, schedule.maturity)
            recovery = rng.uniform(0.0, 0.9)
            fit = _calibrate_flat_hazard(discount, schedule, rng.uniform(1e-4, 0.05), recovery)
            assert fit.spread == par_cds_spread(discount, fit.curve, schedule, recovery).spread

    @pytest.mark.parametrize("slope", [math.nan, 0.0, -1.0, math.inf])
    def test_unusable_slope_falls_back_to_the_midpoint(self, monkeypatch, slope):
        # both slope sums go through curves.fsum; a constant makes every step unusable. On an
        # irregular grid the first guess is only near the root, so the fit takes steps
        monkeypatch.setattr(curves, "fsum", lambda values: slope)
        discount = DiscountCurve.flat(0.02)
        schedule = IRREGULAR
        quote = par_cds_spread(discount, SurvivalCurve.flat(0.03), schedule, 0.4).spread
        fit = _calibrate_flat_hazard(discount, schedule, quote, 0.4)
        assert abs(fit.spread - quote) < 1e-12
        assert NEWTON_MAX_POINTS < fit.iterations < 200  # the bisection's count, not Newton's

    def test_zero_quote_stops_at_its_first_point(self):
        schedule = build_schedule(0.0, 5.0, 1)
        fit = _calibrate_flat_hazard(DiscountCurve.flat(0.02), schedule, 0.0, 0.4)
        assert fit == (SurvivalCurve.flat(0.0), 0.0, 1)

    def test_nan_quote_rejected(self):
        schedule = build_schedule(0.0, 5.0, 1)
        with pytest.raises(ValueError):
            calibrate_flat_hazard(DiscountCurve.flat(0.02), schedule, math.nan, 0.4)


class TestFirstGuess:
    """The fit starts at the root of the discrete par spread on a regular grid."""

    @given(
        frequency=st.sampled_from((1, 2, 4, 12)),
        periods=st.integers(1, 360),
        t0=st.sampled_from((0.0, 1.25)),
        rate=st.floats(-0.05, 0.10),
        hazard=st.floats(1e-6, 9.0),
        recovery=st.floats(0.0, 0.95),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_flat_discount_curve_fits_at_its_first_point(
        self, frequency, periods, t0, rate, hazard, recovery
    ):
        # R is a constant on a flat discount curve, so the guess is the root itself
        discount = DiscountCurve.flat(rate, t0)
        schedule = build_schedule(t0, t0 + periods / frequency, frequency)
        quote = par_cds_spread(discount, SurvivalCurve.flat(hazard, t0), schedule, recovery).spread
        fit = _calibrate_flat_hazard(discount, schedule, quote, recovery)
        assert fit.iterations == 1
        assert abs(fit.spread - quote) < 1e-12

    @given(market=calibration_markets())
    @settings(max_examples=150, deadline=None)
    def test_any_market_fits_in_at_most_three_points(self, market):
        # the worst measured over 4,000 random markets in these ranges was 2
        discount, schedule, hazard, recovery = market
        quote = par_cds_spread(discount, SurvivalCurve.flat(hazard), schedule, recovery).spread
        fit = _calibrate_flat_hazard(discount, schedule, quote, recovery)
        assert fit.iterations <= 3
        assert abs(fit.spread - quote) < 1e-12

    @pytest.mark.parametrize("quote", [math.inf, 1e300])
    def test_an_unattainable_quote_past_every_float_is_rejected(self, quote):
        # an infinite quote makes the guess's sums zero, 1e300 a guess far past 10: either
        # falls back to quote / LGD clipped to 10, whose first point is its own check
        message = f"quote {quote} exceeds the spread attainable at hazard 10.0"
        with pytest.raises(QuoteUnattainable, match=f"^{re.escape(message)}$"):
            _calibrate_flat_hazard(DiscountCurve.flat(0.02), build_schedule(0.0, 1.0, 1),
                                   quote, 0.4)

    def test_the_guess_uses_no_patched_sum(self, monkeypatch):
        # the guess sums with math.fsum: a patched curves.fsum leaves it the root
        discount, schedule = DiscountCurve.flat(0.02), build_schedule(0.0, 5.0, 4)
        grid = curves._grid(discount, None, schedule)
        guess = curves._hazard_guess(grid, schedule, 0.012, 0.6)
        monkeypatch.setattr(curves, "fsum", lambda values: math.nan)
        assert curves._hazard_guess(grid, schedule, 0.012, 0.6) == guess

    @pytest.mark.parametrize("hazard", [1e-4, 0.03, 0.8])
    def test_an_irregular_schedule_still_reproduces_the_quote(self, hazard):
        discount = DiscountCurve((1.0, 4.0), (0.01, 0.04))
        quote = par_cds_spread(discount, SurvivalCurve.flat(hazard), IRREGULAR, 0.4).spread
        fit = _calibrate_flat_hazard(discount, IRREGULAR, quote, 0.4)
        assert abs(fit.spread - quote) < 1e-12
        assert fit.spread == par_cds_spread(discount, fit.curve, IRREGULAR, 0.4).spread
        assert fit.iterations > 1  # the mean accrual makes the guess approximate here


class TestIrregularFit:
    """Fits on IRREGULAR, where the first guess is only near the root, so Newton steps and
    the check at h = 10 are reached: a flat 2% discount curve, recovery 0.4."""

    DISCOUNT = DiscountCurve.flat(0.02)

    @pytest.mark.parametrize("quote", [0.005, 0.0185, 0.05])
    def test_a_fit_takes_few_points(self, quote):
        # measured 3, 3 and 4 points, and at most 4 over 400 quotes log-spaced in [1e-5, 1];
        # a step of hazard - residual * slope took 33-37
        fit = _calibrate_flat_hazard(self.DISCOUNT, IRREGULAR, quote, 0.4)
        assert abs(fit.spread - quote) < 1e-12
        assert fit.iterations <= 5

    def test_a_quote_just_above_the_ceiling_is_unattainable(self):
        # the first point prices below the quote, so the fit checks h = 10 and must refuse
        ceiling = par_cds_spread(self.DISCOUNT, SurvivalCurve.flat(10.0), IRREGULAR, 0.4).spread
        with pytest.raises(QuoteUnattainable, match="exceeds the spread attainable at hazard 10"):
            _calibrate_flat_hazard(self.DISCOUNT, IRREGULAR, ceiling * (1.0 + 1e-6), 0.4)


def _points(monkeypatch):
    """Patch curves._exp_integrals to list the flat hazard of every survival evaluation."""
    hazards = []
    real = curves._exp_integrals

    def counted(curve, t0, node_times, rates, times):
        if curve == "survival":
            hazards.append(rates[0])
        return real(curve, t0, node_times, rates, times)

    monkeypatch.setattr(curves, "_exp_integrals", counted)
    return hazards


class TestCheckAtTheCeiling:
    """The fit evaluates h = 10 only after a first point that prices below the quote."""

    @given(market=calibration_markets())
    @settings(max_examples=150, deadline=None)
    def test_the_fit_is_the_reference_fit_bit_for_bit(self, market):
        # the reference checks h = 10 first and validates every point's curve
        discount, schedule, hazard, recovery = market
        quote = par_cds_spread(discount, SurvivalCurve.flat(hazard), schedule, recovery).spread
        fit = _calibrate_flat_hazard(discount, schedule, quote, recovery)
        reference = calibration_oracle.calibrate_flat_hazard(discount, schedule, quote, recovery)
        assert fit.curve.hazards[0].hex() == reference.curve.hazards[0].hex()
        assert fit.spread.hex() == reference.spread.hex()
        assert fit.iterations == reference.iterations

    def test_only_a_first_point_below_the_quote_is_followed_by_the_check(self, monkeypatch):
        hazards = _points(monkeypatch)
        rng = random.Random(28)
        checked = 0
        for _ in range(100):
            # irregular dates: the first guess misses the root, on either side
            dates = list(accumulate(rng.uniform(0.1, 1.0) for _ in range(rng.randint(1, 12))))
            schedule = Schedule(0.0, dates)
            discount = DiscountCurve.flat(rng.uniform(-0.1, 0.05))
            recovery = rng.uniform(0.0, 0.9)
            quote = rng.uniform(1e-4, 0.05)
            guess = curves._hazard_guess(curves._grid(discount, None, schedule), schedule,
                                         quote, 1.0 - recovery)
            first = par_cds_spread(discount, SurvivalCurve.flat(guess), schedule, recovery).spread
            hazards.clear()
            fit = _calibrate_flat_hazard(discount, schedule, quote, recovery)
            below = first - quote <= -1e-12
            assert len(hazards) == fit.iterations + below
            assert hazards.count(10.0) == below
            checked += below
        assert 0 < checked < 100

    def test_a_first_point_a_hair_below_the_quote_is_not_checked(self, monkeypatch):
        # the guess is the root on a flat curve; a first point within the tolerance stops
        hazards = _points(monkeypatch)
        rng = random.Random(31)
        hair = 0
        for _ in range(40):
            discount = DiscountCurve.flat(rng.uniform(-0.05, 0.1))
            schedule = build_schedule(0.0, rng.randint(1, 40) / 4, 4)
            quote = rng.uniform(1e-4, 0.05)
            hazards.clear()
            fit = _calibrate_flat_hazard(discount, schedule, quote, 0.4)
            assert hazards == [fit.curve.hazards[0]] and fit.iterations == 1
            hair += fit.spread < quote
        assert hair > 0

    def test_a_negative_rate_market_still_checks_h_10_once(self, monkeypatch):
        # at -5% the first point on the irregular grid prices below the quote
        hazards = _points(monkeypatch)
        fit = _calibrate_flat_hazard(DiscountCurve.flat(-0.05), IRREGULAR, 0.01, 0.4)
        assert abs(fit.spread - 0.01) < 1e-12
        assert len(hazards) == fit.iterations + 1 and hazards.count(10.0) == 1

    def test_a_point_priced_above_the_spread_cap_proves_the_quote_attainable(self, monkeypatch):
        # a 2y first period at -5%: s(10) is about 1.3e8, past the pricers' cap of 1e6, and
        # the first point prices below the quote, so the fit checks h = 10 and goes on
        discount, schedule = DiscountCurve.flat(-0.05), Schedule(0.0, (2.0, 2.5, 3.0, 5.0))
        with pytest.raises(DegenerateAnnuity, match="exceeds 1e"):
            par_cds_spread(discount, SurvivalCurve.flat(10.0), schedule, 0.4)
        hazards = _points(monkeypatch)
        fit = _calibrate_flat_hazard(discount, schedule, 0.01, 0.4)
        assert hazards.count(10.0) == 1 and len(hazards) == fit.iterations + 1
        assert abs(fit.spread - 0.01) < 1e-12 and abs(fit.curve.hazards[0] - 0.018) < 1e-3
        assert par_cds_spread(discount, fit.curve, schedule, 0.4).spread == fit.spread
        assert calibrate_flat_hazard(discount, schedule, 0.01, 0.4) == fit.curve

    def test_an_attainable_quote_above_the_spread_cap_is_not_returned(self):
        # the fit may price past the cap, but the spread it returns passes the pricers' guard
        discount, schedule = DiscountCurve.flat(-0.05), Schedule(0.0, (2.0, 2.5, 3.0, 5.0))
        with pytest.raises(DegenerateAnnuity, match="exceeds 1e"):
            _calibrate_flat_hazard(discount, schedule, 2e6, 0.4)

    def test_a_quote_past_the_ceiling_evaluates_h_10_once(self, monkeypatch):
        # the first guess clips to 10, so the first point is the check
        hazards = _points(monkeypatch)
        with pytest.raises(QuoteUnattainable,
                           match=r"^quote 20000\.0 exceeds the spread attainable at hazard 10\.0$"):
            _calibrate_flat_hazard(DiscountCurve.flat(0.02), build_schedule(0.0, 5.0, 1),
                                   20000.0, 0.4)
        assert hazards == [10.0]

    def test_a_numpy_quote_fits_the_curve_flat_builds(self):
        dates = build_schedule(0.0, 5.0, 2).dates
        for quote, t0 in ((np.float64(0.012), 0.0), (0.012, 0), (0.012, np.float64(0.0))):
            fit = _calibrate_flat_hazard(DiscountCurve((1.0,), (0.02,), t0), Schedule(t0, dates),
                                         quote, 0.4)
            (hazard,) = fit.curve.hazards
            assert type(hazard) is float and type(fit.curve.node_times[0]) is float
            flat = SurvivalCurve.flat(hazard, t0)
            assert fit.curve == flat and flat == fit.curve
            assert (hash(fit.curve), repr(fit.curve)) == (hash(flat), repr(flat))
            assert fit.curve._asdict() == flat._asdict()

    def test_an_anchor_with_no_room_for_the_trial_node_is_rejected(self):
        # at |t0| >= 2**53, t0 + 1 == t0: no flat curve has a node after t0
        t0 = 2.0**53
        discount = DiscountCurve((t0 + 4.0,), (0.02,), t0)
        with pytest.raises(ValueError, match="strictly increasing and after t0"):
            SurvivalCurve.flat(0.02, t0)
        with pytest.raises(ValueError, match="strictly increasing and after t0"):
            _calibrate_flat_hazard(discount, Schedule(t0, (t0 + 2.0, t0 + 4.0)), 0.012, 0.4)


ORACLE_NODES = (0.75, 2.5, 6.0, 14.0)
ORACLE_RATES = (0.012, -0.021, 0.028, 0.034)


def _hexes(values):
    return [v.hex() for v in values]


@st.composite
def _curve_and_times(draw):
    """(t0, node_times, rates, ascending times): nodes and t0 themselves are often drawn."""
    t0 = draw(st.one_of(st.just(0.0), st.floats(-5.0, 5.0)))
    node_times = []
    for gap in draw(st.lists(st.floats(1e-3, 5.0), min_size=1, max_size=5)):
        node_times.append((node_times[-1] if node_times else t0) + gap)
    rates = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(node_times), max_size=len(node_times)))
    anywhere = st.floats(t0, node_times[-1] + 5.0)
    times = draw(st.lists(st.one_of(st.sampled_from([t0, *node_times]), anywhere),
                          min_size=1, max_size=12))
    return t0, tuple(node_times), tuple(rates), sorted(times)


@given(case=_curve_and_times())
@example(case=(0.0, ORACLE_NODES, ORACLE_RATES, [0.0, 1.0, 2.5, 3.0]))  # a time on a node
@example(case=(0.0, ORACLE_NODES, ORACLE_RATES, [0.0, 0.5, 20.0]))  # nodes between two times
@example(case=(0.0, ORACLE_NODES, ORACLE_RATES, [0.0, 0.1, 0.2]))  # all before the first node
@example(case=(0.0, ORACLE_NODES, ORACLE_RATES, [15.0, 16.0, 30.0]))  # all past the last node
@example(case=(0.0, ORACLE_NODES, ORACLE_RATES, [4.2]))  # a single time
@example(case=(0.0, ORACLE_NODES, ORACLE_RATES, [0.0]))  # t = t0
@settings(max_examples=100, deadline=None)
def test_exp_integrals_is_the_per_time_loop_bit_for_bit(case):
    t0, node_times, rates, times = case
    got = curves._exp_integrals("discount", t0, node_times, rates, times)
    assert _hexes(got) == _hexes(exp_integrals(t0, node_times, rates, times))


def test_grid_is_the_per_time_loop_bit_for_bit():
    discount = DiscountCurve(ORACLE_NODES, ORACLE_RATES)
    survival = SurvivalCurve((1.3, 4.7, 9.0), (0.011, 0.024, 0.03))
    schedule = build_schedule(0.0, 30.0, 12)
    times = [0.0, *schedule.dates]
    g = curves._grid(discount, survival, schedule)
    assert _hexes(g.p) == _hexes(exp_integrals(0.0, ORACLE_NODES, ORACLE_RATES, times))
    assert _hexes(g.q) == _hexes(exp_integrals(0.0, survival.node_times, survival.hazards, times))


def test_overflow_names_the_first_time_that_overflows():
    # exp(500) is finite, exp(1000) is not: t = 2.0, not the first time of the segment
    with pytest.raises(NonFiniteResult, match=r"^discount curve at t = 2\.0: exp\(1000\.0\) overflows"):
        curves._exp_integrals("discount", 0.0, (10.0,), (-500.0,), [0.0, 1.0, 2.0, 3.0])


def test_an_infinite_exponent_overflows_too():
    # at t = 2 the integral -1e308 * 2 is -inf, and exp(inf) is inf without an OverflowError
    curve = DiscountCurve((1.0,), (-1e308,))
    with pytest.raises(NonFiniteResult, match=r"^discount curve at t = 2\.0: exp\(inf\) overflows"):
        curve.discount_factor(2.0)
    with pytest.raises(NonFiniteResult, match=r"^discount curve at t = 2\.0: exp\(inf\) overflows"):
        forward_fixings(curve, Schedule(0.0, (2.0,)))


def test_grid_rejects_a_nan_discount_factor():
    # the integral to t = 2 is inf, and at t = 4 it is inf - inf: the factor is exp(nan),
    # no overflow, and not positive either
    schedule = Schedule(0.0, (4.0,))
    with pytest.raises(DegenerateAnnuity, match="not positive"):
        curves._grid(DiscountCurve((2.0, 5.0), (1e308, -1e308)), SurvivalCurve.flat(0.0), schedule)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_non_finite_time_rejected(t):
    # 0 * inf would make the factor NaN: the last of the ascending times is checked up front
    with pytest.raises(InvalidInterval, match=f"^time {t} is not finite"):
        DiscountCurve.flat(0.0).discount_factor(t)
    with pytest.raises(InvalidInterval, match=f"^time {t} is not finite"):
        SurvivalCurve.flat(0.0)._at((0.0, 1.0, t))


def _count_evaluations(monkeypatch):
    """Patch curves._exp_integrals to count its calls per curve name ("discount", "survival")."""
    counts = {"discount": 0, "survival": 0}
    real = curves._exp_integrals

    def counted(curve, *args):
        counts[curve] += 1
        return real(curve, *args)

    monkeypatch.setattr(curves, "_exp_integrals", counted)
    return counts


def test_one_market_evaluates_each_curve_once(monkeypatch):
    # every public pricer of the benchmark's price request, the report and the
    # Monte Carlo check, on one market: each curve is evaluated on the schedule once
    counts = _count_evaluations(monkeypatch)
    d = DiscountCurve(ORACLE_NODES, ORACLE_RATES)
    s = SurvivalCurve((1.3, 4.7, 9.0), (0.011, 0.024, 0.03))
    g = build_schedule(0.0, 10.0, 4)
    bond, repo_maturity = BondSpec(0.05, 0.4), 6.0
    s_asw = par_asw_spread(d, s, g, bond).spread
    price_riskfree_bond(d, g, bond.coupon)
    price_risky_bond(d, s, g, bond)
    price_risky_floater(d, s, g, bond.recovery)
    annuity_riskfree(d, g)
    annuity_defaultable(d, s, g)
    par_cds_spread(d, s, g, bond.recovery)
    par_cancelable_asw_spread(d, s, g, bond)
    early_termination_pv(d, s, g, bond, s_asw)
    fwd = forward_bond_price(d, s, g, bond, repo_maturity)
    par_cancelable_asw_spread_generalized(d, s, g, bond, repo_maturity, fwd)
    replication_report(d, s, g, bond, RepoSpec(0.001), True)
    mc_check(d, s, g, bond, RepoSpec(0.001), True, 1000, 0)
    assert counts == {"discount": 1, "survival": 1}
    # so do the other public pricers of the library
    default_leg_pv(d, s, g)
    standard_asw_pv(d, s, g, bond, s_asw)
    cancelable_asw_pv(d, s, g, bond, s_asw)
    mtm_profile(d, g, bond, s_asw)
    price_sheet(d, s, g, bond, RepoSpec(0.001, repo_maturity))
    default_distribution(s, g)
    enumerate_scenarios(s, g)
    assert counts == {"discount": 1, "survival": 1}
    # every caller shares P, Q, eps and dq, so they are tuples; the riskless grid shares P and eps
    grid = curves._grid(d, s, g)
    assert all(type(values) is tuple for values in (grid.p, grid.q, grid.eps, grid.dq))
    assert curves._grid(d, s, g).dq is grid.dq
    assert default_distribution(s, g).bucket_probs == grid.dq
    assert curves._grid(d, None, g).p is grid.p
    assert curves._grid(d, None, g).eps is forward_fixings(d, g)


def test_a_calibrated_market_evaluates_q_only_at_the_fits_points(monkeypatch):
    # each point of the fit prices on the pricers' grid, so the fitted curve leaves
    # the fit holding its Q: the price request, the report and mc_check add nothing
    counts = _count_evaluations(monkeypatch)
    d = DiscountCurve(ORACLE_NODES, ORACLE_RATES)
    g = build_schedule(0.0, 10.0, 4)
    bond, repo_maturity = BondSpec(0.05, 0.4), 6.0
    fit = curves._calibrate_flat_hazard(d, g, 0.012, bond.recovery)
    assert counts == {"discount": 1, "survival": fit.iterations}
    s = fit.curve
    assert par_cds_spread(d, s, g, bond.recovery).spread == fit.spread
    price_sheet(d, s, g, bond, RepoSpec(0.001, repo_maturity))
    s_asw = par_asw_spread(d, s, g, bond).spread
    price_riskfree_bond(d, g, bond.coupon)
    price_risky_bond(d, s, g, bond)
    price_risky_floater(d, s, g, bond.recovery)
    annuity_riskfree(d, g)
    annuity_defaultable(d, s, g)
    par_cancelable_asw_spread(d, s, g, bond)
    early_termination_pv(d, s, g, bond, s_asw)
    fwd = forward_bond_price(d, s, g, bond, repo_maturity)
    par_cancelable_asw_spread_generalized(d, s, g, bond, repo_maturity, fwd)
    replication_report(d, s, g, bond, RepoSpec(0.001), True)
    mc_check(d, s, g, bond, RepoSpec(0.001), True, 1000, 0)
    assert counts == {"discount": 1, "survival": fit.iterations}


def test_equal_but_distinct_objects_are_each_evaluated(monkeypatch):
    # the memo is keyed on the schedule's identity, never on equal values
    counts = _count_evaluations(monkeypatch)
    d1, d2 = DiscountCurve.flat(0.02), DiscountCurve.flat(0.02)
    s1, s2 = SurvivalCurve.flat(0.03), SurvivalCurve.flat(0.03)
    g1, g2 = build_schedule(0.0, 5.0, 1), build_schedule(0.0, 5.0, 1)
    assert d1 == d2 and s1 == s2 and g1 == g2
    markets = (d1, s1, g1), (d2, s2, g1), (d1, s1, g2)
    spreads = [par_cds_spread(d, s, g, 0.4) for d, s, g in markets]
    assert counts == {"discount": 3, "survival": 3}
    assert spreads[0] == spreads[1] == spreads[2]
    par_cds_spread(d1, s1, g2, 0.4)  # the last schedule each curve saw
    assert counts == {"discount": 3, "survival": 3}


def test_a_law_on_another_schedule_leaves_the_kept_grid(monkeypatch):
    # default_distribution reads the survival curve's grid only on that very schedule;
    # on another it evaluates Q and stores nothing, so the first market still hits
    counts = _count_evaluations(monkeypatch)
    d, s = DiscountCurve.flat(0.02), SurvivalCurve.flat(0.03)
    g1, g2 = build_schedule(0.0, 5.0, 1), build_schedule(0.0, 10.0, 4)
    first = par_cds_spread(d, s, g1, 0.4)
    law = default_distribution(s, g2)
    again = par_cds_spread(d, s, g1, 0.4)
    assert counts == {"discount": 1, "survival": 2}
    assert again == first
    assert law == default_distribution(SurvivalCurve.flat(0.03), g2)


def test_evaluation_leaves_equality_hash_repr_and_asdict_alone():
    d, s = DiscountCurve((1.0, 3.0), (0.02, 0.03)), SurvivalCurve.flat(0.02)
    before = [(c, c._replace(), hash(c), repr(c), c._asdict()) for c in (d, s)]
    curves._grid(d, s, build_schedule(0.0, 5.0, 2))
    for curve, twin, hashed, shown, as_dict in before:
        assert curve == twin and twin == curve
        assert (hash(curve), repr(curve), curve._asdict()) == (hashed, shown, as_dict)
    # each curve holds one memo, its last grid: a fit and a law on another schedule add none
    fitted = curves.calibrate_flat_hazard(d, build_schedule(0.0, 5.0, 2), 0.012, 0.4)
    default_distribution(s, build_schedule(0.0, 10.0, 4))
    assert [len(set(vars(c)) - set(c._fields)) for c in (d, s, fitted)] == [1, 1, 1]


def test_a_failed_evaluation_stores_nothing():
    # the market of test_grid_rejects_a_nan_discount_factor, evaluated twice
    discount = DiscountCurve((2.0, 5.0), (1e308, -1e308))
    schedule = Schedule(0.0, (4.0,))
    for _ in range(2):
        with pytest.raises(DegenerateAnnuity, match="not positive"):
            curves._grid(discount, SurvivalCurve.flat(0.0), schedule)


class TestGridMemo:
    """Each market keeps one grid per curve memo, and each grid keeps the sums derived from it."""

    @staticmethod
    def count_sums(monkeypatch):
        """Patch every sum a grid keeps (_Grid.kept) to count its computations by name."""
        counts = collections.Counter()

        def counted(module, name):
            real = getattr(module, name)

            def derive(g, key=None):
                counts[name] += 1
                return real(g, key)

            return derive

        for module, name in ((pricers, "_annuity"), (pricers, "_default_leg"),
                             (pricers, "_floater_coupons"), (pricers, "_bond_coupons"),
                             (replication, "_grid_buckets")):
            monkeypatch.setattr(module, name, counted(module, name))
        riskless = counted(curves, "_riskless")  # the discount memo's grid and its twin
        monkeypatch.setattr(curves, "_riskless", riskless)
        monkeypatch.setattr(pricers, "_riskless", riskless)
        return counts

    @staticmethod
    def market():
        d = DiscountCurve(ORACLE_NODES, ORACLE_RATES)
        s = SurvivalCurve((1.3, 4.7, 9.0), (0.011, 0.024, 0.03))
        return d, s, build_schedule(0.0, 30.0, 4), BondSpec(0.05, 0.4)

    def test_one_market_computes_each_distinct_sum_once(self, monkeypatch):
        counts = self.count_sums(monkeypatch)
        d, s, g, bond = self.market()
        # the benchmark's book-long op at N = 120: a price request, a clause-on report
        # and mc_check
        s_asw = par_asw_spread(d, s, g, bond).spread
        price_riskfree_bond(d, g, bond.coupon)
        price_risky_bond(d, s, g, bond)
        price_risky_floater(d, s, g, bond.recovery)
        annuity_riskfree(d, g)
        annuity_defaultable(d, s, g)
        par_cds_spread(d, s, g, bond.recovery)
        par_cancelable_asw_spread(d, s, g, bond)
        early_termination_pv(d, s, g, bond, s_asw)
        replication_report(d, s, g, bond, RepoSpec(0.001), True)
        mc_check(d, s, g, bond, RepoSpec(0.001), True, 1000, 0)
        # the risky and the riskless annuity, default leg and bond coupons, the floater's
        # coupons and the validated buckets, each once
        expected = {"_riskless": 1, "_annuity": 2, "_default_leg": 2, "_bond_coupons": 2,
                    "_floater_coupons": 1, "_grid_buckets": 1}
        assert counts == expected
        # the rest of the library, and the clause-off report, add none
        default_leg_pv(d, s, g)
        standard_asw_pv(d, s, g, bond, s_asw)
        cancelable_asw_pv(d, s, g, bond, s_asw)
        price_sheet(d, s, g, bond, RepoSpec(0.001))
        replication_report(d, s, g, bond, RepoSpec(0.001), False)
        assert counts == expected
        grid = curves._grid(d, s, g)
        assert grid is curves._grid(d, s, g)
        assert grid.sums[curves._riskless][1] is curves._grid(d, None, g)

    def test_equal_but_distinct_curves_or_schedules_miss(self, monkeypatch):
        counts = self.count_sums(monkeypatch)
        d1, d2 = DiscountCurve.flat(0.02), DiscountCurve.flat(0.02)
        s1, s2 = SurvivalCurve.flat(0.03), SurvivalCurve.flat(0.03)
        g1, g2 = build_schedule(0.0, 5.0, 1), build_schedule(0.0, 5.0, 1)
        markets = (d1, s1, g1), (d2, s1, g1), (d1, s2, g1), (d1, s1, g2)
        grids, spreads = [], []
        for market in markets:
            grids.append(curves._grid(*market))
            spreads.append(par_cds_spread(*market, 0.4))
        assert counts["_annuity"] == counts["_default_leg"] == 4
        assert len(set(map(id, grids))) == 4 and len(set(spreads)) == 1
        assert curves._grid(d1, s1, g2) is grids[-1]  # the last market each curve saw
        par_cds_spread(d1, s1, g2, 0.4)
        assert counts["_annuity"] == counts["_default_leg"] == 4

    @pytest.mark.parametrize("first, second", [(0.0, -0.0)], ids=["negative_zero"])
    def test_coupons_equal_in_value_but_not_in_type_or_sign_miss(
        self, monkeypatch, first, second
    ):
        counts = self.count_sums(monkeypatch)
        d, s, g, _ = self.market()
        price_risky_bond(d, s, g, BondSpec(first, 0.4))
        price = price_risky_bond(d, s, g, BondSpec(second, 0.4))
        assert counts["_bond_coupons"] == 2
        fresh_d, fresh_s, _, _ = self.market()
        assert repr(price) == repr(price_risky_bond(fresh_d, fresh_s, g, BondSpec(second, 0.4)))
        price_risky_bond(d, s, g, BondSpec(second, 0.4))  # an equal, fresh spec hits
        assert counts["_bond_coupons"] == 3

    @pytest.mark.parametrize(
        "first, second",
        [(2.0**-10, np.float32(2.0**-10)), (1.0, 1)],
        ids=["float32", "int_for_float"],
    )
    def test_coupons_equal_in_value_share_the_kept_sums(self, monkeypatch, first, second):
        # a spec keeps its coupon as a float, so these two specs are equal field for field
        counts = self.count_sums(monkeypatch)
        d, s, g, _ = self.market()
        price = price_risky_bond(d, s, g, BondSpec(first, 0.4))
        spec = BondSpec(second, 0.4)
        assert type(spec.coupon) is float and spec.coupon == first
        assert repr(price_risky_bond(d, s, g, spec)) == repr(price)
        assert counts["_bond_coupons"] == 1
        fresh_d, fresh_s, _, _ = self.market()
        assert repr(price) == repr(price_risky_bond(fresh_d, fresh_s, g, BondSpec(second, 0.4)))

    def test_the_whole_window_is_the_grid(self):
        d, s, g, _ = self.market()
        grid = curves._grid(d, s, g)
        n = g.n_periods
        assert grid.window(0, n) is grid
        head = grid.window(0, n - 1)
        assert head is not grid and head.sums == {} and head.theta == grid.theta[:-1]

    def test_one_entry_per_kind_after_100_bonds(self):
        d, s, g, _ = self.market()
        for k in range(100):
            bond = BondSpec(0.001 * k, 0.4)
            par_asw_spread(d, s, g, bond)
            replication_report(d, s, g, bond, RepoSpec(0.001), True)
        grid, riskless = curves._grid(d, s, g), curves._grid(d, None, g)
        assert set(grid.sums) == {curves._riskless, pricers._annuity, pricers._default_leg,
                                  pricers._floater_coupons, pricers._bond_coupons,
                                  replication._grid_buckets, replication._par_table}
        assert set(riskless.sums) == {pricers._annuity, pricers._default_leg,
                                      pricers._bond_coupons}
        assert grid.sums[pricers._bond_coupons][0] == riskless.sums[pricers._bond_coupons][0]
        assert grid.sums[pricers._bond_coupons][0] == 0.001 * 99  # the last bond priced
        assert grid.sums[replication._par_table][0][2] == BondSpec(0.001 * 99, 0.4)

    def test_threads_pricing_markets_that_evict_each_other_keep_their_bits(self):
        # four threads share two curves on two schedules and price a bond each, so the
        # curve memos, the grids and the coupon entries are evicted under them
        schedules = build_schedule(0.0, 5.0, 1), build_schedule(0.0, 10.0, 4)
        bonds = [BondSpec(0.01 * (k + 1), 0.4) for k in range(4)]

        def prices(d, s, bond):
            return [repr((price_risky_bond(d, s, g, bond), par_asw_spread(d, s, g, bond),
                          price_sheet(d, s, g, bond, RepoSpec(0.001)),
                          replication_report(d, s, g, bond, RepoSpec(0.001), True)))
                    for g in schedules]

        def curves_():
            return DiscountCurve(ORACLE_NODES, ORACLE_RATES), SurvivalCurve.flat(0.03)

        expected = [prices(*curves_(), bond) for bond in bonds]  # each on fresh curves
        d, s = curves_()
        results = {}

        def run(k):
            results[k] = [prices(d, s, bonds[k]) for _ in range(20)]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
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
        assert [results[k] for k in range(4)] == [[e] * 20 for e in expected]
