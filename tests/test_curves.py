import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdsreplica import (
    DegenerateAnnuity,
    DiscountCurve,
    InvalidInterval,
    NonFiniteResult,
    QuoteUnattainable,
    Schedule,
    SurvivalCurve,
    TimeBeforeAnchor,
    build_schedule,
    calibrate_flat_hazard,
    default_distribution,
    forward_fixings,
    par_cds_spread,
)
from cdsreplica import curves
from cdsreplica.curves import _calibrate_flat_hazard
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
        [((1.0, 1.0), (0.01, 0.02)), ((2.0, 1.0), (0.01, 0.02)), ((), ()), ((1.0,), (0.01, 0.02))],
    )
    def test_bad_segments_rejected(self, nodes, rates):
        with pytest.raises(ValueError):
            DiscountCurve(node_times=nodes, fwd_rates=rates)


@pytest.mark.parametrize("curve", [DiscountCurve, SurvivalCurve])
@pytest.mark.parametrize("nodes", [(math.nan,), (math.nan, 2.0), (1.0, math.nan)])
def test_nan_node_time_rejected(curve, nodes):
    with pytest.raises(ValueError):
        curve(nodes, tuple(0.02 for _ in nodes))


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
        with pytest.raises(InvalidInterval):
            DiscountCurve.flat(0.02).forward_rate(1.0, 1.0)

    def test_start_before_anchor_rejected(self):
        with pytest.raises(TimeBeforeAnchor):
            DiscountCurve.flat(0.02).forward_rate(-1.0, 1.0)


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


# Worst point count measured over 9,000 random markets in these ranges (1-4-node
# discount curves, h log-uniform and uniform on [1e-6, 9]): 14, where bisection
# on [0, 10] took a median of 41-42 and at most 54. The bound leaves a margin of 6.
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
        # both slope sums go through curves.fsum; a constant makes every step unusable
        monkeypatch.setattr(curves, "fsum", lambda values: slope)
        discount = DiscountCurve.flat(0.02)
        schedule = build_schedule(0.0, 5.0, 4)
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
    # 0 * inf is NaN, so the last factor is exp(nan): no overflow, and not positive either
    schedule = Schedule(0.0, (1.0, math.inf))
    with pytest.raises(DegenerateAnnuity, match="not positive"):
        curves._grid(DiscountCurve.flat(0.0), SurvivalCurve.flat(0.0), schedule)
