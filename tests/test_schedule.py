import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdsreplica import (
    ConfigError,
    DiscountCurve,
    InvalidFrequency,
    InvalidInterval,
    MaturityNotOnGrid,
    NonIntegralPeriods,
    Schedule,
    SurvivalCurve,
    build_schedule,
    truncate_schedule,
)
from cdsreplica.schedule import _is_integer, _real


def test_annual_grid():
    s = build_schedule(0.0, 5.0, 1)
    assert s.dates == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert s.accruals == (1.0,) * 5
    assert s.n_periods == 5
    assert s.maturity == 5.0


def test_semiannual_grid():
    s = build_schedule(0.0, 1.0, 2)
    assert s.dates == (0.5, 1.0)
    assert s.accruals == (0.5, 0.5)


def test_non_integral_periods_rejected():
    with pytest.raises(NonIntegralPeriods):
        build_schedule(0.0, 1.3, 4)


@pytest.mark.parametrize("frequency", [3, True, 1.0])
def test_invalid_frequency_rejected(frequency):
    # True == 1, but a bool is not a frequency
    with pytest.raises(InvalidFrequency):
        build_schedule(0.0, 5.0, frequency)


@pytest.mark.parametrize("digits", [400, 5000])
def test_a_huge_frequency_is_not_echoed(digits):
    # str() of an int past 4,300 digits raises ValueError, and 400 digits made
    # a 445-character message
    with pytest.raises(InvalidFrequency, match=r"^frequency must be one of \(1, 2, 4, 12\)$"):
        build_schedule(0.0, 5.0, 10**digits)


@pytest.mark.parametrize(("frequency", "name"), [(True, "bool"), (1.0, "float"), ("4", "str")])
def test_a_non_integer_frequency_is_named_by_its_type(frequency, name):
    with pytest.raises(InvalidFrequency, match=f"^frequency must be an integer, got {name}$"):
        build_schedule(0.0, 5.0, frequency)


@pytest.mark.parametrize(
    ("t0", "maturity", "name"),
    [(0.0, True, "maturity"), (False, 5.0, "t0"), (0.0, "5", "maturity")],
)
def test_bool_anchor_or_maturity_rejected(t0, maturity, name):
    # True == 1.0 would build one period to t = 1; False == 0.0 a grid from 0; text
    # failed with a bare TypeError
    with pytest.raises(ConfigError, match=f"^{name} must be a number"):
        build_schedule(t0, maturity, 1)


@pytest.mark.parametrize(
    ("value", "expected"),
    [(3, True), (np.int64(3), True), (np.array(3), True), (10**400, True),
     (True, False), (np.True_, False), (3.0, False), (np.float64(3.0), False),
     (np.array(3.0), False), ("3", False), (None, False)],
)
def test_one_integer_rule(value, expected):
    # every ndarray has __index__, so the rule asks operator.index, which refuses a float array
    assert _is_integer(value) is expected


@pytest.mark.parametrize(
    ("value", "expected"),
    [(0.4, True), (5, True), (np.float32(0.05), True), (np.int64(5), True), (10**400, False),
     (np.float64(2.5), True), (True, False), (np.True_, False), (np.False_, False),
     ("0.4", False), (None, False), (Decimal("0.25"), True), (Fraction(1, 4), True)],
)
def test_one_real_rule(value, expected):
    # a type with __float__ that is not bool: numpy scalars, Decimal and Fraction pass and
    # come back as a float of the same value, but numpy's bool does not, and text does not;
    # an int passes unless float() overflows on it
    if expected:
        got = _real("x", value)
        assert type(got) is float and got == value
    else:
        kind = type(value).__name__
        message = "is too large for a float" if kind == "int" else f"must be a number, got {kind}"
        with pytest.raises(ConfigError, match=f"^x {message}$"):
            _real("x", value)


def test_a_sequence_holding_an_integer_too_large_for_a_float_is_refused():
    # _reals converts each value by _real once the types pass
    with pytest.raises(ConfigError, match="^node_times is too large for a float$"):
        DiscountCurve((10**400,), (0.02,))


@pytest.mark.parametrize(
    ("build", "match"),
    [
        (lambda: Schedule(0.0, ("1", "2")), "^schedule dates must be numbers, got str$"),
        (lambda: Schedule(0.0, (1.0, True)), "^schedule dates must be numbers, got bool$"),
        (lambda: Schedule(0.0, np.array([True, False])), "must be numbers, got bool"),
        (lambda: Schedule("0", (1.0,)), "^schedule t0 must be a number, got str$"),
        (lambda: DiscountCurve(("1",), ("0.02",)), "^node_times must be numbers, got str$"),
        (lambda: DiscountCurve((1.0,), (np.True_,)), "^fwd_rates must be numbers, got bool"),
        (lambda: DiscountCurve((1.0,), (0.02,), True), "^t0 must be a number, got bool$"),
        (lambda: SurvivalCurve.flat("0.02"), "^hazards must be numbers, got str$"),
        (lambda: SurvivalCurve((1.0, "2"), (0.02, 0.03)), "^node_times must be numbers"),
    ],
    ids=["schedule_text", "schedule_bool", "schedule_numpy_bool", "schedule_t0",
         "discount_text", "discount_numpy_bool", "discount_t0", "survival_flat_text",
         "survival_mixed"],
)
def test_curves_and_schedule_follow_the_real_rule(build, match):
    # float() once took "1" for 1.0 and True for 1.0; each distinct type is checked once
    with pytest.raises(ValueError, match=match):
        build()


_ANNUAL = build_schedule(0.0, 5.0, 1)


@pytest.mark.parametrize(
    ("query", "match"),
    [
        (lambda: SurvivalCurve.flat(0.02).survival_prob(True), "^t must be a number, got bool$"),
        (lambda: SurvivalCurve.flat(0.02).survival_prob("1"), "^t must be a number, got str$"),
        (lambda: DiscountCurve.flat(0.02).discount_factor("1"), "^t must be a number, got str$"),
        (lambda: DiscountCurve.flat(0.02).discount_factor(np.True_), "^t must be a number, got"),
        (lambda: DiscountCurve.flat(0.02).forward_rate("0", 1.0),
         "^t_start must be a number, got str$"),
        (lambda: DiscountCurve.flat(0.02).forward_rate(0.0, True),
         "^t_end must be a number, got bool$"),
        (lambda: truncate_schedule(_ANNUAL, True), "^maturity must be a number, got bool$"),
        (lambda: truncate_schedule(_ANNUAL, "3"), "^maturity must be a number, got str$"),
        (lambda: DiscountCurve.flat(0.02, t0="0"), "^t0 must be a number, got str$"),
        (lambda: SurvivalCurve.flat(0.02, t0=True), "^t0 must be a number, got bool$"),
    ],
    ids=["survival_bool", "survival_text", "discount_text", "discount_numpy_bool",
         "forward_start_text", "forward_end_bool", "truncate_bool", "truncate_text",
         "discount_flat_t0", "survival_flat_t0"],
)
def test_curve_queries_and_truncation_follow_the_real_rule(query, match):
    # a bool was taken for 1.0 (Q(1), a one-period schedule) and text raised a bare TypeError
    with pytest.raises(ValueError, match=match):
        query()


def test_curves_and_schedule_keep_numpy_numbers_as_floats():
    schedule = Schedule(np.float32(0.0), np.array([1, 2], dtype=np.int64))
    curve = DiscountCurve(np.array([1.0, 2.0]), (np.float32(0.25), 0.02))
    assert schedule.dates == (1.0, 2.0) and type(schedule.dates[0]) is float
    assert curve.fwd_rates == (0.25, 0.02) and type(curve.node_times[0]) is float


def test_maturity_before_anchor_rejected():
    with pytest.raises(InvalidInterval):
        build_schedule(1.0, 1.0, 1)


@pytest.mark.parametrize(
    "t0,maturity,frequency,error,match",
    [
        (0.0, math.inf, 4, NonIntegralPeriods, "= inf is not an integer"),
        (0.0, 1e308, 4, NonIntegralPeriods, "= inf is not an integer"),  # the count overflows
        (-math.inf, 5.0, 4, NonIntegralPeriods, "= inf is not an integer"),
        (0.0, math.nan, 4, NonIntegralPeriods, "= nan is not an integer"),
        (math.nan, 5.0, 4, NonIntegralPeriods, "= nan is not an integer"),
        (0.0, 1e308, 1, ConfigError, r"^the schedule has 1e\+308 periods, above the limit"),
        (0.0, 1e9, 1, ConfigError, "^the schedule has 1000000000 periods, above the limit"),
        (0.0, 25000.25, 4, ConfigError, "has 100001 periods, above the limit of 100000$"),
    ],
)
def test_unbounded_period_count_rejected_before_any_date(t0, maturity, frequency, error, match):
    with pytest.raises(error, match=match):
        build_schedule(t0, maturity, frequency)


def test_period_limit_is_inclusive():
    assert build_schedule(0.0, 25000.0, 4).n_periods == 10**5


def test_truncate_prefix():
    s = build_schedule(0.0, 5.0, 1)
    t = truncate_schedule(s, 3.0)
    assert t.dates == (1.0, 2.0, 3.0)
    assert t.accruals == (1.0, 1.0, 1.0)


def test_truncate_at_maturity_is_identity():
    s = build_schedule(0.0, 5.0, 1)
    assert truncate_schedule(s, 5.0) == s


def test_index_at_is_the_first_date_within_tolerance():
    # the first two dates lie 1.5e-9 apart, so a time between them is within 1e-9 of both
    s = Schedule(t0=0.0, dates=(1.0, 1.0 + 1.5e-9, 2.0))
    for t in (1.0 - 0.9e-9, 1.0, 1.0 + 0.75e-9, 1.0 + 1e-9, 1.0 + 1.5e-9, 1.0 + 2.4e-9, 2.0 + 0.9e-9):
        first = next(i for i, date in enumerate(s.dates) if abs(date - t) <= 1e-9)
        assert s.index_at(t) == first
    assert s.index_at(1.0 + 0.75e-9) == 0
    assert s.index_at(1.0 + 2.4e-9) == 1
    for t in (1.0 - 2e-9, 1.0 + 3e-9, 1.5, 2.0 + 2e-9, math.nan, math.inf):
        with pytest.raises(MaturityNotOnGrid):
            s.index_at(t)


def test_truncate_off_grid_rejected():
    s = build_schedule(0.0, 5.0, 1)
    with pytest.raises(MaturityNotOnGrid):
        truncate_schedule(s, 2.5)


def test_nonzero_anchor():
    s = build_schedule(1.5, 3.5, 2)
    assert s.t0 == 1.5
    assert s.dates == (2.0, 2.5, 3.0, 3.5)


@pytest.mark.parametrize(
    "bad",
    [
        dict(t0=0.0, dates=(2.0, 1.0)),
        dict(t0=0.0, dates=(1.0, 1.0)),
        dict(t0=0.0, dates=(0.0, 1.0)),
        dict(t0=0.0, dates=()),
        dict(t0=2.0, dates=(1.0,)),
        dict(t0=0.0, dates=(1.0, math.inf)),
        dict(t0=-1e308, dates=(1e308,)),  # finite dates, but the accrual overflows
    ],
)
def test_invalid_schedules_rejected(bad):
    with pytest.raises(ValueError):
        Schedule(**bad)


@given(
    periods=st.integers(min_value=1, max_value=60),
    frequency=st.sampled_from([1, 2, 4, 12]),
    t0=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
def test_build_then_truncate_roundtrip(periods, frequency, t0):
    s = build_schedule(t0, t0 + periods / frequency, frequency)
    assert s.n_periods == periods
    assert truncate_schedule(s, s.maturity) == s
    assert math.isclose(
        math.fsum(s.accruals), s.maturity - s.t0, rel_tol=0.0, abs_tol=1e-12
    )


@given(
    periods=st.integers(min_value=2, max_value=40),
    cut=st.integers(min_value=1, max_value=39),
    frequency=st.sampled_from([1, 2, 4]),
)
def test_truncate_keeps_prefix(periods, cut, frequency):
    if cut > periods:
        cut = periods
    s = build_schedule(0.0, periods / frequency, frequency)
    t = truncate_schedule(s, s.dates[cut - 1])
    assert t.dates == s.dates[:cut]
    assert t.accruals == s.accruals[:cut]


def test_nan_date_rejected():
    with pytest.raises(ValueError):
        Schedule(t0=0.0, dates=(1.0, math.nan))
