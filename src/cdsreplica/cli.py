"""Command-line front end: JSON market config in, JSON (or table) report out.

Subcommands: price, replicate, implied-repo, calibrate. All rates, spreads,
and hazards are decimals per year; all times are year fractions from t0 = 0.

Exit codes: 0 success (and, for `replicate` with the clause on, residuals
within tolerance); 2 validation error; 3 numerical failure (an overflow
included); 4 replication residual above tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from itertools import repeat

from .curves import DiscountCurve, SurvivalCurve, _grid, calibrate_flat_hazard
from .errors import ConfigError, CrossedMarket, InconsistentSpecs, PricingError, QuoteUnattainable
from .pricers import (
    BondSpec,
    RepoSpec,
    _annuity,
    _early_termination,
    _forward_bond,
    _note,
    _par_asw,
    _par_cancelable,
    _par_cds,
    _risky_bond,
    _riskless,
    implied_repo_spreads,
    par_cds_spread,
)

# cmd_price prices on one grid through the private helpers above; these public
# pricers stay importable from this module, where bench/workloads.py wraps them
# by name (CLI_CALLS) on the cli-mix workload.
from .pricers import (  # noqa: F401
    annuity_defaultable,
    annuity_riskfree,
    early_termination_pv,
    forward_bond_price,
    par_asw_spread,
    par_cancelable_asw_spread,
    par_cancelable_asw_spread_generalized,
    price_riskfree_bond,
    price_risky_bond,
    price_risky_floater,
)
from .replication import mc_check, replication_report
from .schedule import Schedule, build_schedule

REPLICATION_TOL = 1e-10

_SPREAD_KEYS = frozenset({
    "cds_par_spread",
    "asw_par_spread",
    "cancelable_asw_par_spread",
    "generalized_cancelable_asw_par_spread",
    "asw_spread",
    "cds_spread",
    "repo_spread",
    "implied_repo_spread",
    "implied_reverse_repo_spread",
    "calibrated_hazard",
    "reproduced_cds_spread",
})


@dataclass(frozen=True)
class BondConfig:
    coupon: float
    recovery: float
    maturity: float
    frequency: int


@dataclass(frozen=True)
class RepoConfig:
    spread: float = 0.0
    maturity: float | None = None
    forward_price: float | None = None  # None means "fair"


@dataclass(frozen=True)
class QuotesConfig:
    cds_bid: float
    cds_ask: float
    aswc_bid: float
    aswc_ask: float


@dataclass(frozen=True)
class MarketConfig:
    discount_nodes: tuple[tuple[float, float], ...]
    bond: BondConfig
    hazard_nodes: tuple[tuple[float, float], ...] | None = None
    cds_quote: float | None = None
    repo: RepoConfig = RepoConfig()
    quotes: QuotesConfig | None = None


def _require_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}: expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ConfigError(f"{field}: must be finite, got {value!r}")
    return number


def _parse_nodes(raw, field: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{field}: expected a non-empty list of [time, rate] pairs")
    nodes = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"{field}[{i}]: expected a [time, rate] pair")
        t = _require_number(pair[0], f"{field}[{i}].time")
        r = _require_number(pair[1], f"{field}[{i}].rate")
        if t <= 0.0:
            raise ConfigError(f"{field}[{i}].time: must be positive")
        nodes.append((t, r))
    return tuple(nodes)


def parse_config(raw: dict) -> MarketConfig:
    """Validate a raw JSON mapping into a MarketConfig, naming the failing field."""
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected a JSON object")
    known = {"discount_nodes", "hazard_nodes", "cds_quote", "bond", "repo", "quotes"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{key}: unknown field")

    discount_nodes = _parse_nodes(raw.get("discount_nodes"), "discount_nodes")

    if "bond" not in raw or not isinstance(raw["bond"], dict):
        raise ConfigError("bond: expected an object with coupon/recovery/maturity/frequency")
    b = raw["bond"]
    for key in b:
        if key not in {"coupon", "recovery", "maturity", "frequency"}:
            raise ConfigError(f"bond.{key}: unknown field")
    maturity = _require_number(b.get("maturity"), "bond.maturity")
    if maturity <= 0.0:
        raise ConfigError("bond.maturity: must be positive")
    frequency = b.get("frequency")
    if not isinstance(frequency, int) or isinstance(frequency, bool):
        raise ConfigError(f"bond.frequency: expected an integer, got {frequency!r}")
    recovery = _require_number(b.get("recovery"), "bond.recovery")
    if not 0.0 <= recovery < 1.0:
        raise ConfigError("bond.recovery: must lie in [0, 1)")
    bond = BondConfig(
        coupon=_require_number(b.get("coupon"), "bond.coupon"),
        recovery=recovery,
        maturity=maturity,
        frequency=frequency,
    )

    hazard_nodes = None
    cds_quote = None
    if ("hazard_nodes" in raw) == ("cds_quote" in raw):
        raise ConfigError("exactly one of hazard_nodes or cds_quote must be present")
    if "hazard_nodes" in raw:
        hazard_nodes = _parse_nodes(raw["hazard_nodes"], "hazard_nodes")
        for i, (_, h) in enumerate(hazard_nodes):
            if h < 0.0:
                raise ConfigError(f"hazard_nodes[{i}].rate: hazard must be non-negative")
    else:
        cds_quote = _require_number(raw["cds_quote"], "cds_quote")
        if cds_quote < 0.0:
            raise ConfigError("cds_quote: must be non-negative")

    repo = RepoConfig()
    if "repo" in raw:
        if not isinstance(raw["repo"], dict):
            raise ConfigError("repo: expected an object")
        r = raw["repo"]
        for key in r:
            if key not in {"spread", "maturity", "forward_price"}:
                raise ConfigError(f"repo.{key}: unknown field")
        fwd = r.get("forward_price", "fair")
        if fwd == "fair":
            forward_price = None
        else:
            forward_price = _require_number(fwd, "repo.forward_price")
            if forward_price <= 0.0:
                raise ConfigError("repo.forward_price: must be positive")
        repo_maturity = None
        if "maturity" in r:
            repo_maturity = _require_number(r["maturity"], "repo.maturity")
            if repo_maturity <= 0.0:
                raise ConfigError("repo.maturity: must be positive")
        repo = RepoConfig(
            spread=_require_number(r.get("spread", 0.0), "repo.spread"),
            maturity=repo_maturity,
            forward_price=forward_price,
        )

    quotes = None
    if "quotes" in raw:
        if not isinstance(raw["quotes"], dict):
            raise ConfigError("quotes: expected an object")
        q = raw["quotes"]
        for key in q:
            if key not in {"cds_bid", "cds_ask", "aswc_bid", "aswc_ask"}:
                raise ConfigError(f"quotes.{key}: unknown field")
        quotes = QuotesConfig(
            cds_bid=_require_number(q.get("cds_bid"), "quotes.cds_bid"),
            cds_ask=_require_number(q.get("cds_ask"), "quotes.cds_ask"),
            aswc_bid=_require_number(q.get("aswc_bid"), "quotes.aswc_bid"),
            aswc_ask=_require_number(q.get("aswc_ask"), "quotes.aswc_ask"),
        )

    return MarketConfig(
        discount_nodes=discount_nodes,
        bond=bond,
        hazard_nodes=hazard_nodes,
        cds_quote=cds_quote,
        repo=repo,
        quotes=quotes,
    )


def serialize_config(config: MarketConfig) -> dict:
    """Inverse of parse_config: parse(serialize(c)) == c."""
    raw: dict = {
        "discount_nodes": [[t, r] for t, r in config.discount_nodes],
        "bond": {
            "coupon": config.bond.coupon,
            "recovery": config.bond.recovery,
            "maturity": config.bond.maturity,
            "frequency": config.bond.frequency,
        },
        "repo": {
            "spread": config.repo.spread,
            "forward_price": (
                "fair" if config.repo.forward_price is None else config.repo.forward_price
            ),
        },
    }
    if config.repo.maturity is not None:
        raw["repo"]["maturity"] = config.repo.maturity
    if config.hazard_nodes is not None:
        raw["hazard_nodes"] = [[t, h] for t, h in config.hazard_nodes]
    else:
        raw["cds_quote"] = config.cds_quote
    if config.quotes is not None:
        raw["quotes"] = {
            "cds_bid": config.quotes.cds_bid,
            "cds_ask": config.quotes.cds_ask,
            "aswc_bid": config.quotes.aswc_bid,
            "aswc_ask": config.quotes.aswc_ask,
        }
    return raw


def _build_market(config: MarketConfig) -> tuple[DiscountCurve, SurvivalCurve, Schedule, BondSpec]:
    schedule = build_schedule(0.0, config.bond.maturity, config.bond.frequency)
    discount = DiscountCurve(
        node_times=tuple(t for t, _ in config.discount_nodes),
        fwd_rates=tuple(r for _, r in config.discount_nodes),
    )
    if config.hazard_nodes is not None:
        survival = SurvivalCurve(
            node_times=tuple(t for t, _ in config.hazard_nodes),
            hazards=tuple(h for _, h in config.hazard_nodes),
        )
    else:
        survival = calibrate_flat_hazard(
            discount, schedule, config.cds_quote, config.bond.recovery
        )
    bond = BondSpec(coupon=config.bond.coupon, recovery=config.bond.recovery)
    return discount, survival, schedule, bond


def _repo_spec(config: MarketConfig) -> RepoSpec:
    return RepoSpec(
        spread=config.repo.spread,
        maturity=config.repo.maturity,
        forward_price=config.repo.forward_price,
    )


def cmd_price(config: MarketConfig) -> dict:
    """Prices, annuities, and every par spread for the configured market, on one grid."""
    discount, survival, schedule, bond = _build_market(config)
    g = _grid(discount, survival, schedule)
    riskless = _riskless(g)
    s_asw = _par_asw(g, bond).spread
    report = {
        "riskfree_bond_price": _note(riskless, repeat(bond.coupon), 0.0),
        "risky_bond_price": _risky_bond(g, bond),
        "risky_floater_price": _note(g, g.eps, bond.recovery),
        "annuity_riskfree": _annuity(riskless),
        "annuity_defaultable": _annuity(g),
        "cds_par_spread": _par_cds(g, bond.recovery).spread,
        "asw_par_spread": s_asw,
        "cancelable_asw_par_spread": _par_cancelable(g, bond, schedule.n_periods, 1.0).spread,
        "early_termination_pv": _early_termination(g, bond.coupon, s_asw),
    }
    repo_maturity = config.repo.maturity
    if repo_maturity is not None and repo_maturity < schedule.maturity - 1e-9:
        idx = schedule.index_at(repo_maturity)
        fair = _forward_bond(g, bond, idx)
        forward_price = config.repo.forward_price
        if forward_price is None:
            forward_price = fair
        report["forward_bond_price"] = fair
        report["generalized_cancelable_asw_par_spread"] = (
            _par_cancelable(g, bond, idx + 1, forward_price).spread
        )
    return report


def cmd_replicate(
    config: MarketConfig,
    clause_enabled: bool = True,
    mc_paths: int | None = None,
    seed: int = 0,
) -> tuple[dict, int]:
    """Scenario residual table; exit 0 iff the clause is on and residuals are tiny."""
    discount, survival, schedule, bond = _build_market(config)
    repo = _repo_spec(config)
    report = replication_report(discount, survival, schedule, bond, repo, clause_enabled)
    payload = report.to_dict()
    if mc_paths is not None:
        mc = mc_check(
            discount, survival, schedule, bond, repo, clause_enabled, mc_paths, seed
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
    """Flat hazard fitted to the configured CDS quote, and the reproduced spread."""
    if config.cds_quote is None:
        raise ConfigError("cds_quote: required for calibrate")
    discount, survival, schedule, bond = _build_market(config)
    reproduced = par_cds_spread(discount, survival, schedule, bond.recovery).spread
    return {
        "calibrated_hazard": survival.hazards[0],
        "target_cds_spread": config.cds_quote,
        "reproduced_cds_spread": reproduced,
        "residual": reproduced - config.cds_quote,
    }


def _format_value(key: str, value, bp: bool) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if bp and key in _SPREAD_KEYS:
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


def _emit(payload: dict, pretty: bool, bp: bool) -> None:
    if pretty:
        _print_pretty(dict(payload), bp)
    else:
        print(json.dumps(payload, indent=2))


def _load_config(path: str) -> MarketConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def build_parser() -> argparse.ArgumentParser:
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
    sub.add_parser("price", help="prices, annuities, and par spreads")
    replicate = sub.add_parser("replicate", help="scenario-by-scenario replication check")
    replicate.add_argument("--no-clause", action="store_true",
                           help="drop the early-termination clause from the asset swap")
    replicate.add_argument("--mc", type=int, metavar="N",
                           help="add a Monte Carlo residual estimate over N paths")
    replicate.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    sub.add_parser("implied-repo", help="repo spreads implied by CDS and ASW quotes")
    sub.add_parser("calibrate", help="fit a flat hazard to the configured CDS quote")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.command == "price":
            payload, code = cmd_price(config), 0
        elif args.command == "replicate":
            payload, code = cmd_replicate(
                config,
                clause_enabled=not args.no_clause,
                mc_paths=args.mc,
                seed=args.seed,
            )
        elif args.command == "implied-repo":
            payload, code = cmd_implied_repo(config), 0
        else:
            payload, code = cmd_calibrate(config), 0
    except QuoteUnattainable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, CrossedMarket, InconsistentSpecs) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PricingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"error: numerical overflow: {exc}", file=sys.stderr)
        return 3
    _emit(payload, args.pretty, args.bp)
    return code


if __name__ == "__main__":
    sys.exit(main())
