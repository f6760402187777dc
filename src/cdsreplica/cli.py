"""Command-line front end: JSON market config in, JSON (or table) report out.

Subcommands: price, replicate, implied-repo, calibrate. All rates, spreads,
and hazards are decimals per year; all times are year fractions from t0 = 0.

Exit codes: 0 success (and, for `replicate` with the clause on, residuals
within tolerance); 2 validation error; 3 numerical failure (an overflow or
a result that is not a finite number included); 4 replication residual above
tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from ._record import MISSING, Record, field
from .curves import DiscountCurve, SurvivalCurve, _calibrate_flat_hazard, calibrate_flat_hazard
from .errors import ConfigError, PricingError

# The per-number pricers after price_sheet are not called here. They stay attributes of
# this module, as do mc_check and replication_report (through __getattr__ below), because
# bench/workloads.py wraps them by name (CLI_CALLS).
from .pricers import (  # noqa: F401
    BondSpec,
    RepoSpec,
    implied_repo_spreads,
    price_sheet,
    annuity_defaultable,
    annuity_riskfree,
    early_termination_pv,
    forward_bond_price,
    par_asw_spread,
    par_cancelable_asw_spread,
    par_cancelable_asw_spread_generalized,
    par_cds_spread,
    price_riskfree_bond,
    price_risky_bond,
    price_risky_floater,
)
from .schedule import VALID_FREQUENCIES, Schedule, _is_integer, build_schedule

REPLICATION_TOL = 1e-10


def __getattr__(name: str):
    """mc_check and replication_report, bound here on first use: only `replicate`
    loads the replication module."""
    if name not in ("mc_check", "replication_report"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # an import statement, so that -X importtime lists replication under replicate
    from .replication import mc_check, replication_report

    value = mc_check if name == "mc_check" else replication_report
    globals()[name] = value  # only name: the other may hold a wrapper already
    return value


def _require_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer past the largest float; its digits are not echoed
        raise ConfigError(f"{path}: must be finite, got an integer too large for a float") from None
    if not math.isfinite(number):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    return number


def _number_where(holds, rule: str):
    """A parser of a finite number that also satisfies holds(number), else `<path>: <rule>`."""
    def parse(value, path: str) -> float:
        number = _require_number(value, path)
        if not holds(number):
            raise ConfigError(f"{path}: {rule}")
        return number
    return parse


_positive = _number_where(lambda x: x > 0.0, "must be positive")


def _frequency(value, path: str) -> int:
    if not _is_integer(value):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if value not in VALID_FREQUENCIES:  # not echoed: an integer may have hundreds of digits
        raise ConfigError(f"{path}: must be one of {VALID_FREQUENCIES}")
    return value


def _forward_price(value, path: str) -> float | None:
    return None if value == "fair" else _positive(value, path)


def _nodes(parse_rate):
    """A parser of a non-empty list of [time, rate] pairs, times positive and strictly increasing."""
    def parse(raw, path: str) -> tuple[tuple[float, float], ...]:
        # a tuple too: serialize_config gives the nodes back as tuples
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ConfigError(f"{path}: expected a non-empty list of [time, rate] pairs")
        nodes = []
        for i, pair in enumerate(raw):
            where = f"{path}[{i}]"
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigError(f"{where}: expected a [time, rate] pair")
            t = _positive(pair[0], f"{where}.time")
            if nodes and t <= nodes[-1][0]:
                raise ConfigError(f"{where}.time: must exceed the previous node time")
            nodes.append((t, parse_rate(pair[1], f"{where}.rate")))
        return tuple(nodes)
    return parse


def _section(cls):
    return lambda raw, path: _parse_fields(cls, raw, path)


class BondConfig(BondSpec):
    """The `bond` section: a BondSpec plus the maturity and frequency of its grid."""

    coupon: float = field(parse=_require_number)
    recovery: float = field(parse=_number_where(lambda r: 0.0 <= r < 1.0, "must lie in [0, 1)"))
    maturity: float = field(parse=_positive)
    frequency: int = field(parse=_frequency)


class RepoConfig(RepoSpec):
    """The `repo` section: a RepoSpec read from JSON, the forward price "fair" as None."""

    spread: float = field(0.0, parse=_require_number)
    maturity: float | None = field(None, parse=_positive)
    forward_price: float | None = field(None, parse=_forward_price)  # None means "fair"


class QuotesConfig(Record):
    """The `quotes` section: CDS and cancelable-ASW bid and ask, for implied-repo."""

    cds_bid: float = field(parse=_require_number)
    cds_ask: float = field(parse=_require_number)
    aswc_bid: float = field(parse=_require_number)
    aswc_ask: float = field(parse=_require_number)


class MarketConfig(Record):
    """A validated market config: curves (or a CDS quote), bond, repo and quotes."""

    discount_nodes: tuple[tuple[float, float], ...] = field(parse=_nodes(_require_number))
    bond: BondConfig = field(parse=_section(BondConfig))
    hazard_nodes: tuple[tuple[float, float], ...] | None = field(
        None, parse=_nodes(_number_where(lambda h: h >= 0.0, "hazard must be non-negative"))
    )
    cds_quote: float | None = field(
        None, parse=_number_where(lambda q: q >= 0.0, "must be non-negative")
    )
    repo: RepoConfig = field(RepoConfig(), parse=_section(RepoConfig))
    quotes: QuotesConfig | None = field(None, parse=_section(QuotesConfig))


def _parse_fields(cls, raw, path: str = ""):
    """Build the config record cls from a JSON object, each field by its own parser.

    An absent field takes its default; an absent required field goes to its
    parser as None, so that the error names it.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config root'}: expected an object")
    prefix = f"{path}." if path else ""
    for key in raw:
        if key not in cls._specs:
            raise ConfigError(f"{prefix}{key}: unknown field")
    return cls(**{
        name: spec.parse(raw.get(name), prefix + name)
        for name, spec in cls._specs.items()
        if name in raw or spec.default is MISSING
    })


def parse_config(raw) -> MarketConfig:
    """Validate a raw JSON mapping into a MarketConfig, naming the failing field."""
    config = _parse_fields(MarketConfig, raw)
    if (config.hazard_nodes is None) == (config.cds_quote is None):
        raise ConfigError("exactly one of hazard_nodes or cds_quote must be present")
    return config


def serialize_config(config: MarketConfig) -> dict:
    """Inverse of parse_config: parse(serialize(c)) == c. Fields that are None are left out."""
    return {name: serialize_config(value) if isinstance(value, Record) else value
            for name, value in config._asdict().items() if value is not None}


def _discount_and_schedule(config: MarketConfig) -> tuple[DiscountCurve, Schedule]:
    schedule = build_schedule(0.0, config.bond.maturity, config.bond.frequency)
    discount = DiscountCurve(
        node_times=tuple(t for t, _ in config.discount_nodes),
        fwd_rates=tuple(r for _, r in config.discount_nodes),
    )
    return discount, schedule


def _build_market(config: MarketConfig) -> tuple[DiscountCurve, SurvivalCurve, Schedule, BondSpec]:
    discount, schedule = _discount_and_schedule(config)
    if config.hazard_nodes is not None:
        survival = SurvivalCurve(
            node_times=tuple(t for t, _ in config.hazard_nodes),
            hazards=tuple(h for _, h in config.hazard_nodes),
        )
    else:
        survival = calibrate_flat_hazard(
            discount, schedule, config.cds_quote, config.bond.recovery
        )
    return discount, survival, schedule, config.bond


def cmd_price(config: MarketConfig) -> dict:
    """Prices, annuities, and every par spread for the configured market, on one grid."""
    return price_sheet(*_build_market(config), config.repo)


def cmd_replicate(
    config: MarketConfig, clause_enabled: bool, mc_paths: int | None, seed: int
) -> tuple[dict, int]:
    """Scenario residual table; exit 0 iff the clause is on and residuals are tiny.

    replication_report and mc_check are read as attributes of this module, so
    that one set on it (a wrapper, a monkeypatch) is called even before the
    replication module loads.
    """
    this = sys.modules[__name__]
    discount, survival, schedule, bond = _build_market(config)
    report = this.replication_report(
        discount, survival, schedule, bond, config.repo, clause_enabled
    )
    payload = report.to_dict()
    if mc_paths is not None:
        mc = this.mc_check(
            discount, survival, schedule, bond, config.repo, clause_enabled, mc_paths, seed
        )
        payload["mc_estimate"] = mc.estimate
        payload["mc_std_error"] = mc.std_error
        payload["mc_paths"] = mc_paths
        payload["mc_seed"] = seed
    code = 0
    if clause_enabled and not report.max_abs_residual < REPLICATION_TOL:
        code = 4
    return payload, code


def cmd_implied_repo(config: MarketConfig) -> dict:
    """Repo / reverse-repo spreads implied by the configured quotes."""
    if config.quotes is None:
        raise ConfigError("quotes: required for implied-repo")
    q = config.quotes
    implied = implied_repo_spreads(q.cds_bid, q.cds_ask, q.aswc_bid, q.aswc_ask)
    return {
        "implied_repo_spread": implied.repo,
        "implied_reverse_repo_spread": implied.reverse_repo,
    }


def cmd_calibrate(config: MarketConfig) -> dict:
    """Flat hazard fitted to the configured CDS quote, the spread it reproduces, and how."""
    if config.cds_quote is None:
        raise ConfigError("cds_quote: required for calibrate")
    discount, schedule = _discount_and_schedule(config)
    fit = _calibrate_flat_hazard(discount, schedule, config.cds_quote, config.bond.recovery)
    return {
        "calibrated_hazard": fit.curve.hazards[0],
        "target_cds_spread": config.cds_quote,
        "reproduced_cds_spread": fit.spread,
        "residual_spread": fit.spread - config.cds_quote,
        "iterations": fit.iterations,
    }


def _format_value(key: str, value, bp: bool) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if bp and key.endswith(("_spread", "_hazard")):
        return f"{value * 1e4:.8f} bp"
    return f"{value:.12g}"


def _print_pretty(payload: dict, bp: bool) -> None:
    scenarios = payload.pop("scenarios", None)
    width = max(len(k) for k in payload) if payload else 0
    for key, value in payload.items():
        print(f"{key:<{width}}  {_format_value(key, value, bp)}")
    if scenarios is not None:
        print()
        print(f"{'default_bucket':>14}  {'probability':>22}  {'residual':>22}")
        for row in scenarios:
            bucket = "survival" if row["default_bucket"] is None else str(row["default_bucket"])
            print(f"{bucket:>14}  {row['probability']:>22.12g}  {row['residual']:>22.12g}")


def _non_finite_key(value, path: str = "") -> str | None:
    """Path of the first number in a payload that is NaN or infinite, or None."""
    if isinstance(value, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return path if isinstance(value, float) and not math.isfinite(value) else None
    return next(filter(None, (_non_finite_key(v, key) for key, v in items)), None)


def _emit(payload: dict, pretty: bool, bp: bool, code: int) -> int:
    """Print the payload and return the exit code.

    NaN and infinity are not JSON, so a payload holding one prints a single
    error line naming its key instead, and exits 3 (or keeps the 4 of a
    replication gate that has already failed).
    """
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        print(f"error: {_non_finite_key(payload)}: not a finite number", file=sys.stderr)
        return code or 3
    if pretty:
        _print_pretty(dict(payload), bp)
    else:
        print(text)
    return code


def _load_config(path: str) -> MarketConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: not UTF-8, or an integer past Python's digit limit; RecursionError: too deep
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(raw)


def build_parser() -> argparse.ArgumentParser:
    """The command line; each subcommand binds its handler run(config, args) -> (payload, code)."""
    parser = argparse.ArgumentParser(
        prog="cdsreplica",
        description="Price and verify the replication of a stylized CDS "
        "by a bond financed in repo plus a break-clause asset swap.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON market config")
    parser.add_argument("--pretty", action="store_true", help="human-readable table output")
    parser.add_argument("--bp", action="store_true",
                        help="display spreads in basis points (table output only)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("price", help="prices, annuities, and par spreads").set_defaults(
        run=lambda config, args: (cmd_price(config), 0))
    replicate = sub.add_parser("replicate", help="scenario-by-scenario replication check")
    replicate.add_argument("--no-clause", action="store_true",
                           help="drop the early-termination clause from the asset swap")
    replicate.add_argument("--mc", type=int, metavar="N",
                           help="add a Monte Carlo residual estimate over N paths")
    replicate.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    replicate.set_defaults(
        run=lambda config, args: cmd_replicate(config, not args.no_clause, args.mc, args.seed))
    sub.add_parser("implied-repo", help="repo spreads implied by CDS and ASW quotes").set_defaults(
        run=lambda config, args: (cmd_implied_repo(config), 0))
    sub.add_parser("calibrate", help="fit a flat hazard to the configured CDS quote").set_defaults(
        run=lambda config, args: (cmd_calibrate(config), 0))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, code = args.run(_load_config(args.config), args)
    except PricingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3
    return _emit(payload, args.pretty, args.bp, code)


if __name__ == "__main__":
    sys.exit(main())
