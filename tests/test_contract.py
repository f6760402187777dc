"""The library's one input contract, on every public callable.

Every callable in `cdsreplica.__all__` that takes market inputs, and every public method
of the curves and the schedule that takes a scalar, is called on one valid market with
arguments found by `inspect.signature`. In each scalar slot, and in the first element of
each sequence slot, each value of the survey replaces the valid one: bools (Python's and
numpy's), text, None, NaN, ±inf, an integer too large for a float, and the valid value as
a Fraction, a Decimal, a numpy float32 and, where it is integral, an int. Each call must
return a result whose numbers are all finite Python floats, or raise ValueError
(PricingError and ConfigError included); it must never raise TypeError or
OverflowError. None is valid where the slot's default is None.

The survey is finite, so it is run exhaustively rather than sampled.
"""

import inspect
import math
from decimal import Decimal
from enum import Enum
from fractions import Fraction

import numpy as np
import pytest

import cdsreplica
from cdsreplica import (
    BondSpec,
    DefaultScenario,
    DiscountCurve,
    RepoSpec,
    SurvivalCurve,
    build_schedule,
)

SCHEDULE = build_schedule(0.0, 5.0, 1)
DISCOUNT = DiscountCurve((1.0, 3.0), (0.02, 0.025))
SURVIVAL = SurvivalCurve((2.0, 4.0), (0.02, 0.03))

# One valid market, by parameter name: every public callable's arguments are drawn from it.
VALID = {
    "discount": DISCOUNT, "survival": SURVIVAL, "curve": SURVIVAL, "schedule": SCHEDULE,
    "bond": BondSpec(0.05, 0.4), "repo": RepoSpec(0.001), "scenario": DefaultScenario(2, 0.1),
    "t0": 0.0, "maturity": 3.0, "frequency": 1, "dates": (1.0, 2.0, 3.0),
    "node_times": (1.0, 3.0), "fwd_rates": (0.02, 0.025), "hazards": (0.02, 0.03),
    "rate": 0.02, "hazard": 0.02, "t": 2.0, "t_start": 1.0, "t_end": 2.0,
    "bucket_probs": (0.25, 0.25), "survival_prob": 0.5,
    "coupon": 0.05, "recovery": 0.4, "spread": 0.001, "forward_price": 1.0,
    "repo_maturity": 3.0, "cds_quote": 0.012, "cds_bid": 0.010, "cds_ask": 0.012,
    "aswc_bid": 0.008, "aswc_ask": 0.009, "asw_spread": 0.01, "cds_spread": 0.011,
    "clause_enabled": True, "n_paths": 1000, "seed": 5,
}

# Plain records: each stores what it is given and validates nothing, because the library
# builds it from numbers it has already taken through the contract (or, for a
# DefaultScenario, portfolio_ledger checks the one field it reads, the bucket).
RECORDS = {
    "CashflowEntry", "CashflowLedger", "DefaultScenario", "ImpliedRepoSpreads", "Leg",
    "McCheckResult", "MtmProfile", "ReplicationReport", "ScenarioResidual", "SpreadResult",
}

METHODS = {
    "DiscountCurve.flat": DiscountCurve.flat,
    "DiscountCurve.discount_factor": DISCOUNT.discount_factor,
    "DiscountCurve.forward_rate": DISCOUNT.forward_rate,
    "SurvivalCurve.flat": SurvivalCurve.flat,
    "SurvivalCurve.survival_prob": SURVIVAL.survival_prob,
    "Schedule.index_at": SCHEDULE.index_at,
}

# Numbers a result may hold that are not floats, by the name of the field holding them.
NOT_FLOATS = {"default_bucket": int, "clause_enabled": bool, "Schedule.index_at": int}


def _driven():
    """Every public callable that takes market inputs, by name."""
    names = {}
    for name in cdsreplica.__all__:
        value = getattr(cdsreplica, name)
        if name in RECORDS or (isinstance(value, type) and issubclass(value, Exception)):
            continue
        names[name] = value
    return {**names, **METHODS}


DRIVEN = _driven()


def _survey(valid):
    """(name, value) of each survey value for a slot whose valid value is `valid`."""
    yield from [("bool", True), ("numpy_bool", np.True_), ("text", str(valid)),
                ("none", None), ("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf),
                ("huge_int", 10**400), ("fraction", Fraction(valid)),
                ("decimal", Decimal(valid)), ("float32", np.float32(valid))]
    if type(valid) is float and valid.is_integer():
        yield "int_for_float", int(valid)


def _slots(parameters):
    """(parameter, index or None, valid value) of each slot the survey fills: a scalar, or
    the first element of a sequence of numbers."""
    for p in parameters:
        valid = VALID[p.name]
        if type(valid) in (bool, int, float):
            yield p.name, None, valid
        elif type(valid) is tuple and type(valid[0]) is float:
            yield p.name, 0, valid[0]


def _numbers(value, field):
    """(field, number) of every number a result holds, named by its innermost field."""
    if value is None or isinstance(value, Enum):
        return
    if hasattr(value, "_fields"):  # a record or a NamedTuple
        for name, item in value._asdict().items():
            yield from _numbers(item, name)
    elif isinstance(value, dict):
        for name, item in value.items():
            yield from _numbers(item, name)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _numbers(item, field)
    else:
        yield field, value


def _check_result(name, result, call):
    """Every number of the result of `call` (its label name) is a finite float, or a
    number of the one type NOT_FLOATS names for its field."""
    assert result is not None, name
    for field, number in _numbers(result, call):
        kind = NOT_FLOATS.get(field, float)
        assert type(number) is kind, (name, field, number)
        assert kind is not float or math.isfinite(number), (name, field, number)


def test_every_public_name_is_driven_or_named_as_skipped():
    errors = {n for n in cdsreplica.__all__ if isinstance(getattr(cdsreplica, n), type)
              and issubclass(getattr(cdsreplica, n), Exception)}
    assert set(cdsreplica.__all__) == (set(DRIVEN) - set(METHODS)) | RECORDS | errors
    assert RECORDS <= set(cdsreplica.__all__)


@pytest.mark.parametrize("name", sorted(DRIVEN))
def test_every_scalar_is_a_number_or_refused(name):
    call = DRIVEN[name]
    parameters = inspect.signature(call).parameters.values()
    valid = {p.name: VALID[p.name] for p in parameters}
    _check_result(name, call(**valid), name)
    for slot, index, value in _slots(parameters):
        default = next(p.default for p in parameters if p.name == slot)
        for kind, survey in _survey(value):
            given = survey if index is None else (survey, *valid[slot][1:])
            try:
                result = call(**{**valid, slot: given})
            except ValueError as exc:  # PricingError and ConfigError included
                assert kind != "none" or default is not None, (name, slot, exc)
                continue
            except (TypeError, OverflowError) as exc:
                pytest.fail(f"{name}({slot}={kind}) raised {type(exc).__name__}: {exc}")
            _check_result(f"{name}({slot}={kind})", result, name)
