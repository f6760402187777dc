"""The value types' record contract: repr, hash, equality, immutability, validation, match.

Every public value type of the library, and each config record of the CLI, is a frozen
record (`cdsreplica._record.Record`). Each sample below is built once, with the text its
repr has always printed: `tests/test_golden.py` and the benchmark's digests hash reprs.
"""

import math

import pytest

from cdsreplica import (
    BondSpec,
    CashflowEntry,
    CashflowLedger,
    DefaultDistribution,
    DefaultScenario,
    DiscountCurve,
    Leg,
    MtmProfile,
    ReplicationReport,
    RepoSpec,
    ScenarioResidual,
    Schedule,
    SpreadResult,
    SurvivalCurve,
    cli,
)
from cdsreplica._record import Record

BOND_CONFIG = cli.BondConfig(0.05, 0.4, 5.0, 4)

# (record, its repr)
SAMPLES = [
    (BondSpec(0.05, 0.4), "BondSpec(coupon=0.05, recovery=0.4)"),
    (RepoSpec(0.01), "RepoSpec(spread=0.01, maturity=None, forward_price=None)"),
    (SpreadResult(0.01, 0.02, 2.0), "SpreadResult(spread=0.01, numerator=0.02, annuity=2.0)"),
    (MtmProfile((0.5, -0.25)), "MtmProfile(values=(0.5, -0.25))"),
    (Schedule(0.0, (1.0, 2.5)), "Schedule(t0=0.0, dates=(1.0, 2.5), accruals=(1.0, 1.5))"),
    (DiscountCurve((1.0, 3.0), (0.02, 0.025)),
     "DiscountCurve(node_times=(1.0, 3.0), fwd_rates=(0.02, 0.025), t0=0.0)"),
    (SurvivalCurve.flat(0.02), "SurvivalCurve(node_times=(1.0,), hazards=(0.02,), t0=0.0)"),
    (DefaultDistribution((0.25, 0.25), 0.5),
     "DefaultDistribution(bucket_probs=(0.25, 0.25), survival_prob=0.5)"),
    (DefaultScenario(2, 0.1), "DefaultScenario(default_bucket=2, probability=0.1)"),
    (CashflowLedger((CashflowEntry(1.0, Leg.BOND, 0.05),)),
     "CashflowLedger(entries=(CashflowEntry(time=1.0, leg=<Leg.BOND: 'bond'>, amount=0.05),))"),
    (ReplicationReport(True, 0.01, 0.011, 0.001, 5.0, 1.0,
                       (ScenarioResidual(1, 0.25, 0.0), ScenarioResidual(None, 0.75, -1e-17)),
                       -7.5e-18, 1e-17),
     "ReplicationReport(clause_enabled=True, asw_spread=0.01, cds_spread=0.011, "
     "repo_spread=0.001, repo_maturity=5.0, forward_price=1.0, scenarios=("
     "ScenarioResidual(default_bucket=1, probability=0.25, residual=0.0), "
     "ScenarioResidual(default_bucket=None, probability=0.75, residual=-1e-17)), "
     "expected_residual=-7.5e-18, max_abs_residual=1e-17)"),
    (BOND_CONFIG, "BondConfig(coupon=0.05, recovery=0.4, maturity=5.0, frequency=4)"),
    (cli.RepoConfig(), "RepoConfig(spread=0.0, maturity=None, forward_price=None)"),
    (cli.QuotesConfig(0.01, 0.012, 0.008, 0.009),
     "QuotesConfig(cds_bid=0.01, cds_ask=0.012, aswc_bid=0.008, aswc_ask=0.009)"),
    (cli.MarketConfig(((1.0, 0.02),), BOND_CONFIG, cds_quote=0.012),
     "MarketConfig(discount_nodes=((1.0, 0.02),), bond=BondConfig(coupon=0.05, recovery=0.4, "
     "maturity=5.0, frequency=4), hazard_nodes=None, cds_quote=0.012, repo=RepoConfig("
     "spread=0.0, maturity=None, forward_price=None), quotes=None)"),
]
RECORDS = [record for record, _ in SAMPLES]
IDS = [type(record).__name__ for record in RECORDS]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_type_has_a_sample():
    types = {sub for sub in _subclasses(Record) if sub.__module__.startswith("cdsreplica.")}
    assert len(types) == 15
    assert types == {type(record) for record in RECORDS}


@pytest.mark.parametrize(("record", "text"), SAMPLES, ids=IDS)
def test_repr_is_the_text_it_has_always_printed(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_hash_and_equality_read_the_field_tuple(record):
    values = tuple(getattr(record, name) for name in record._fields)
    assert list(record._asdict().items()) == list(zip(record._fields, values))
    assert hash(record) == hash(values)
    twin = record._replace()
    assert twin is not record and twin == record and not twin != record
    assert hash(twin) == hash(record) and repr(twin) == repr(record)


def test_a_schedule_derives_its_accruals_in_every_field_view():
    schedule = Schedule(0.0, (1.0, 2.5))
    assert schedule._fields == ("t0", "dates", "accruals")
    assert Schedule.__match_args__ == ("t0", "dates")
    assert schedule._replace(dates=(1.0, 3.0)).accruals == (1.0, 2.0)
    with pytest.raises(TypeError):
        Schedule(0.0, (1.0,), (1.0,))


@pytest.mark.parametrize(("spec", "config"), [
    (RepoSpec(0.0), cli.RepoConfig()),
    (RepoSpec(0.01, 2.0, 0.99), cli.RepoConfig(0.01, 2.0, 0.99)),
    (BondSpec(0.05, 0.4), BOND_CONFIG),
])
def test_equality_holds_only_within_one_class(spec, config):
    # the config's fields begin with the spec's, at the same values
    assert config._fields[: len(spec._fields)] == spec._fields
    assert all(getattr(config, name) == getattr(spec, name) for name in spec._fields)
    assert spec != config and config != spec
    assert not spec == config and not config == spec
    assert spec == type(spec)(*map(spec._asdict().get, type(spec).__match_args__))


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise_attribute_error(record):
    before = repr(record), hash(record)
    for name in (*record._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    # object.__setattr__ still sets an attribute (a curve's memo), outside every field view
    twin = record._replace()
    object.__setattr__(twin, "_memo", "kept")
    assert twin._memo == "kept" and "_memo" not in twin._asdict()
    assert twin == record and (repr(twin), hash(twin)) == before


@pytest.mark.parametrize(("record", "changes", "error"), [
    (BondSpec(0.05, 0.4), {"recovery": 1.5}, "recovery must lie in"),
    (BondSpec(0.05, 0.4), {"coupon": math.inf}, "coupon must be a finite number"),
    (RepoSpec(0.01), {"maturity": math.nan}, "repo maturity must be a finite number"),
    (Schedule(0.0, (1.0, 2.0)), {"dates": (2.0, 1.0)}, "strictly increasing"),
    (DiscountCurve.flat(0.02), {"fwd_rates": (math.nan,)}, "rates must be finite"),
    (SurvivalCurve.flat(0.02), {"hazards": (-0.01,)}, "must be non-negative"),
    (DefaultDistribution((0.5,), 0.5), {"survival_prob": 0.75}, "probabilities sum to"),
])
def test_validation_runs_on_construction_and_on_copy_with_changes(record, changes, error):
    arguments = {name: getattr(record, name) for name in type(record).__match_args__}
    with pytest.raises(ValueError, match=error):
        type(record)(**{**arguments, **changes})
    with pytest.raises(ValueError, match=error):
        record._replace(**changes)


def test_copy_with_changes_converts_as_construction_does():
    changed = BondSpec(0.05, 0.4)._replace(coupon=1, recovery=0)
    assert changed == BondSpec(1.0, 0.0)
    assert (type(changed.coupon), type(changed.recovery)) == (float, float)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_match_args_are_the_constructor_arguments_in_order(record):
    args = type(record).__match_args__
    assert args == tuple(name for name in record._fields if name != "accruals")
    assert type(record)(*(getattr(record, name) for name in args)) == record


def test_a_record_matches_by_position_and_keyword():
    match RepoSpec(0.01, 2.0):
        case RepoSpec(spread, maturity, None):
            assert (spread, maturity) == (0.01, 2.0)
        case _:
            pytest.fail("RepoSpec did not match by position")
    match cli.RepoConfig(0.02):
        case RepoSpec(spread=0.02, maturity=None):  # a RepoConfig is a RepoSpec
            pass
        case _:
            pytest.fail("RepoConfig did not match RepoSpec by keyword")
