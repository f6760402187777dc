"""Payment grid shared by every instrument.

Times are year fractions from the anchor t0 (no calendar dates); the
accrual of period k is exactly t_k - t_{k-1}. Business-day calendars,
stubs, and roll conventions are out of scope.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import index

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


def _is_real(value) -> bool:
    """A number, not a bool: a value whose type has __float__, which text lacks, and is not
    named bool, which refuses Python's bool and numpy's (`numpy.bool`, `numpy.bool_` before
    numpy 2) without importing numpy. Other numpy scalars pass; numbers.Real would cost
    every CLI start an import."""
    return _is_real_type(type(value))


def _is_real_type(kind: type) -> bool:
    """_is_real's rule on a type: every value of the type passes it or none does."""
    return hasattr(kind, "__float__") and kind.__name__ not in ("bool", "bool_")


def _real(name: str, value):
    """value itself, if it is a number (_is_real), else ValueError naming it."""
    if not _is_real_type(type(value)):
        raise ValueError(f"{name} must be a number, got {type(value).__name__}")
    return value


def _reals(name: str, values) -> tuple[float, ...]:
    """The values as floats, if each is a number (_is_real), else ValueError naming them.
    The rule is checked once per distinct type, not once per value, and values that are
    all floats already are kept as they are: together that costs what float() on each did."""
    values = tuple(values)
    kinds = set(map(type, values))
    if kinds == {float}:
        return values
    for kind in kinds:
        if not _is_real_type(kind):
            raise ValueError(f"{name} must be numbers, got {kind.__name__}")
    return tuple(map(float, values))


@dataclass(frozen=True)
class Schedule:
    """Payment dates t_1 < ... < t_N with accruals theta_k = t_k - t_{k-1}.

    t0 and the dates must be numbers (_is_real), else ValueError; the dates are
    kept as floats. The accruals are derived from the dates. Immutable after
    construction; safe to share across threads.
    """

    t0: float
    dates: tuple[float, ...]
    accruals: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        _real("schedule t0", self.t0)
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
        """0-based index of the first payment date equal to t (within 1e-9).

        Bisection skips the dates below t - 2e-9, which rounding cannot bring
        within 1e-9 of t; the scan from there stops at the first date within
        the tolerance, or at the first date past t.
        """
        for i in range(bisect_left(self.dates, t - 2 * _GRID_TOL), len(self.dates)):
            if abs(self.dates[i] - t) <= _GRID_TOL:
                return i
            if self.dates[i] > t:
                break
        raise MaturityNotOnGrid(f"time {t} is not a payment date of the schedule")


def build_schedule(t0: float, maturity: float, frequency: int) -> Schedule:
    """Build a regular grid with `frequency` payments per year.

    frequency must be an integer (_is_integer), and t0 and maturity numbers (_is_real).
    (maturity - t0) * frequency must be a finite integer (within 1e-9), at
    most _MAX_PERIODS; both are checked before any date is built.
    """
    if not _is_integer(frequency) or frequency not in VALID_FREQUENCIES:
        raise InvalidFrequency(f"frequency must be one of {VALID_FREQUENCIES}, got {frequency}")
    for name, value in (("t0", t0), ("maturity", maturity)):
        if not _is_real(value):
            raise ConfigError(f"{name} must be a number, got {value!r}")
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
    """Prefix of the schedule ending at `maturity`, which must lie on the grid."""
    idx = schedule.index_at(maturity)
    return Schedule(t0=schedule.t0, dates=schedule.dates[: idx + 1])
