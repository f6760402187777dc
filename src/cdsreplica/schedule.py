"""Payment grid shared by every instrument.

Times are year fractions from the anchor t0 (no calendar dates); the
accrual of period k is exactly t_k - t_{k-1}. Business-day calendars,
stubs, and roll conventions are out of scope.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import index

from ._record import Record, field
from .errors import (
    ConfigError, InvalidFrequency, InvalidInterval, MaturityNotOnGrid, NonIntegralPeriods,
)

__all__ = ["Schedule", "build_schedule", "truncate_schedule"]

VALID_FREQUENCIES = (1, 2, 4, 12)

_GRID_TOL = 1e-9
_MAX_PERIODS = 10**5  # build_schedule's largest grid; a priced period takes about 780 B


def _is_integer(value) -> bool:
    """An int or a numpy integer, not a bool: what operator.index takes, which refuses
    numpy's bool and float arrays; numbers.Integral would cost every CLI start an import."""
    try:
        index(value)
    except TypeError:
        return False
    return not isinstance(value, bool)


def _is_real_type(kind: type) -> bool:
    """A number's type: it has __float__, which text lacks, and is not named bool or bool_
    (numpy's, before numpy 2) without importing numpy; numbers.Real costs every CLI an import."""
    return hasattr(kind, "__float__") and kind.__name__ not in ("bool", "bool_")


def _real(name: str, value) -> float:
    """value as a float, if it is a number (_is_real_type), else ConfigError naming it; a float
    is returned at once; a number too large for a float raises ConfigError, not OverflowError."""
    if type(value) is float:
        return value
    if not _is_real_type(type(value)):
        raise ConfigError(f"{name} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} is too large for a float") from None


def _reals(name: str, values) -> tuple[float, ...]:
    """The values as floats (_real), else ConfigError naming them. The type rule is checked
    once per distinct type, and values that are all floats already are kept as they are."""
    values = tuple(values)
    kinds = set(map(type, values))
    if kinds == {float}:
        return values
    for kind in kinds:
        if not _is_real_type(kind):
            raise ConfigError(f"{name} must be numbers, got {kind.__name__}")
    return tuple([_real(name, value) for value in values])


class Schedule(Record):
    """Payment dates t_1 < ... < t_N with accruals theta_k = t_k - t_{k-1}.

    t0 and the dates must be numbers (_real), else ConfigError; they are kept as
    floats. The accruals are derived from the dates. Immutable after
    construction; safe to share across threads.
    """

    t0: float
    dates: tuple[float, ...]
    accruals: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "t0", _real("schedule t0", self.t0))
        dates = _reals("schedule dates", self.dates)
        if not dates:
            raise ValueError("schedule needs at least one payment date")
        accruals = []
        prev = self.t0
        for t in dates:
            if not t > prev:
                raise ValueError("dates must be strictly increasing and after t0")
            accruals.append(t - prev)
            prev = t
        if not (math.isfinite(self.t0) and math.isfinite(prev)):  # prev: the last date
            raise ValueError("t0 and the dates must be finite")
        if math.inf in accruals:  # finite dates far enough apart: t_k - t_{k-1} overflows
            k = accruals.index(math.inf) + 1
            start, end = (self.t0, *dates)[k - 1 : k + 1]
            raise ValueError(f"accrual of period {k} (from {start} to {end}) is not finite")
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "accruals", tuple(accruals))

    @property
    def n_periods(self) -> int:
        return len(self.dates)

    @property
    def maturity(self) -> float:
        return self.dates[-1]

    def index_at(self, t: float) -> int:
        """0-based index of the first payment date equal to t (within 1e-9), a number (_real).

        Bisection skips the dates below t - 2e-9, which rounding cannot bring
        within 1e-9 of t; the scan from there stops at the first date within
        the tolerance, or at the first date past t.
        """
        t = _real("t", t)
        for i in range(bisect_left(self.dates, t - 2 * _GRID_TOL), len(self.dates)):
            if abs(self.dates[i] - t) <= _GRID_TOL:
                return i
            if self.dates[i] > t:
                break
        raise MaturityNotOnGrid(f"time {t} is not a payment date of the schedule")


def build_schedule(t0: float, maturity: float, frequency: int) -> Schedule:
    """Build a regular grid with `frequency` payments per year.

    frequency must be an integer (_is_integer), and t0 and maturity numbers (_real).
    (maturity - t0) * frequency must be a finite integer (within 1e-9), at
    most _MAX_PERIODS; both are checked before any date is built.
    """
    if not _is_integer(frequency):
        raise InvalidFrequency(f"frequency must be an integer, got {type(frequency).__name__}")
    if frequency not in VALID_FREQUENCIES:  # not echoed: an integer may have thousands of digits
        raise InvalidFrequency(f"frequency must be one of {VALID_FREQUENCIES}")
    t0, maturity = _real("t0", t0), _real("maturity", maturity)
    if maturity <= t0:
        raise InvalidInterval(f"maturity {maturity} must exceed anchor {t0}")
    n_exact = (maturity - t0) * frequency
    if not math.isfinite(n_exact) or abs(n_exact - round(n_exact)) > _GRID_TOL:
        raise NonIntegralPeriods(
            f"(maturity - t0) * frequency = {n_exact} is not an integer number of periods"
        )
    n = round(n_exact)
    if n > _MAX_PERIODS:
        raise ConfigError(f"the schedule has {n:.15g} periods, above the limit of {_MAX_PERIODS}")
    dt = 1.0 / frequency
    return Schedule(t0=t0, dates=[t0 + k * dt for k in range(1, n + 1)])


def truncate_schedule(schedule: Schedule, maturity: float) -> Schedule:
    """Prefix of the schedule ending at `maturity`, a number (_real) on the grid."""
    idx = schedule.index_at(_real("maturity", maturity))
    return Schedule(t0=schedule.t0, dates=schedule.dates[: idx + 1])
