import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdsreplica import (
    DiscountCurve,
    InvalidInterval,
    QuoteUnattainable,
    SurvivalCurve,
    TimeBeforeAnchor,
    build_schedule,
    calibrate_flat_hazard,
    default_distribution,
    forward_fixings,
    par_cds_spread,
)
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
