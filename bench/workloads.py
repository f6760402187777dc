"""Seeded inputs, one op per workload, and the per-op correctness checks.

Markets are drawn in the acceptance-fixture ranges (r <= 0.08, hazard <= 0.10,
recovery <= 0.9, coupon <= 0.10) from a generator of the benchmark's own; the
seed is the only input. Period counts are stratified rather than drawn, so
every seed gives the same mix of grid sizes and the timings of different
seeds stay comparable.

Every check is written so that a NaN fails it: `abs(x) < tol` is False for
NaN, whereas `max()` over a list silently skips a NaN after the first item.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import partial
from dataclasses import dataclass
from pathlib import Path

from cdsreplica import (
    BondSpec,
    DiscountCurve,
    RepoSpec,
    SurvivalCurve,
    annuity_defaultable,
    annuity_riskfree,
    build_schedule,
    calibrate_flat_hazard,
    early_termination_pv,
    forward_bond_price,
    mc_check,
    par_asw_spread,
    par_cancelable_asw_spread,
    par_cancelable_asw_spread_generalized,
    par_cds_spread,
    price_riskfree_bond,
    price_risky_bond,
    price_risky_floater,
    replication_report,
)
from cdsreplica import cli
from tracing import NullTracer

TOL = 1e-12
MC_PATHS = 100_000
MC_Z = 5.0


@dataclass(frozen=True)
class MarketSpec:
    """Plain numbers from which an op builds its market, as the CLI does."""

    frequency: int
    periods: int
    discount_nodes: tuple[tuple[float, float], ...]
    hazard_nodes: tuple[tuple[float, float], ...] | None
    cds_quote: float | None
    coupon: float
    recovery: float
    repo_spread: float
    repo_periods: int | None  # None: the repo runs to the bond's maturity
    mc_seed: int

    @property
    def maturity(self) -> float:
        return self.periods / self.frequency

    @property
    def repo_maturity(self) -> float | None:
        return None if self.repo_periods is None else self.repo_periods / self.frequency

    @property
    def last_period(self) -> int:
        return self.periods if self.repo_periods is None else self.repo_periods

    def config(self) -> dict:
        """The CLI's JSON config for this market."""
        raw = {
            "discount_nodes": [list(n) for n in self.discount_nodes],
            "bond": {"coupon": self.coupon, "recovery": self.recovery,
                     "maturity": self.maturity, "frequency": self.frequency},
            "repo": {"spread": self.repo_spread},
        }
        if self.hazard_nodes is None:
            raw["cds_quote"] = self.cds_quote
        else:
            raw["hazard_nodes"] = [list(n) for n in self.hazard_nodes]
        if self.repo_maturity is not None:
            raw["repo"]["maturity"] = self.repo_maturity
        return raw


# -- generator ------------------------------------------------------------------


def _nodes(rng: random.Random, horizon: float, n_nodes: int, max_rate: float):
    gap = horizon / (n_nodes + 1)
    t, nodes = 0.0, []
    for _ in range(n_nodes):
        t += rng.uniform(0.25 * gap, 1.75 * gap) + 1e-3
        nodes.append((t, rng.uniform(0.0, max_rate)))
    return tuple(nodes)


def _curve(rng: random.Random, horizon: float, max_rate: float, n_nodes: int | None = None):
    """Flat or piecewise with 2-4 nodes, unless the node count is fixed."""
    if n_nodes is None:
        if rng.random() < 0.5:
            return ((1.0, rng.uniform(0.0, max_rate)),)
        n_nodes = rng.randint(2, 4)
    return _nodes(rng, horizon, n_nodes, max_rate)


def _market(rng, frequency, periods, calibrated, early_repo, discount_nodes=None,
            hazard_nodes=None) -> MarketSpec:
    horizon = periods / frequency
    recovery = rng.uniform(0.0, 0.9)
    if discount_nodes is None:
        discount = _curve(rng, horizon, 0.08)
    else:
        discount = _curve(rng, horizon, 0.08, discount_nodes)
    hazard, quote = None, None
    if calibrated:
        # A quote near the credit triangle hazard * LGD, always attainable.
        quote = rng.uniform(1e-4, 0.10) * (1.0 - recovery)
    elif hazard_nodes is None:
        hazard = _curve(rng, horizon, 0.10)
    else:
        hazard = _curve(rng, horizon, 0.10, hazard_nodes)
    repo_periods = rng.randint(1, periods - 1) if early_repo and periods > 1 else None
    return MarketSpec(
        frequency=frequency, periods=periods, discount_nodes=discount,
        hazard_nodes=hazard, cds_quote=quote, coupon=rng.uniform(0.0, 0.10),
        recovery=recovery, repo_spread=rng.uniform(-0.01, 0.02),
        repo_periods=repo_periods, mc_seed=rng.randrange(2**31),
    )


def short_markets(seed: int, n: int = 400) -> list[MarketSpec]:
    """book-short: every grid of 1-40 periods equally often; each grid size has
    its hazard calibrated in half of its markets and an early repo in 30%."""
    rng = random.Random(f"book-short:{seed}")
    pool = []
    for i in range(n):
        block = i // 40
        calibrated = (i + block) % 2 == 0
        early = block % 10 < 3
        pool.append(_market(rng, rng.choice((1, 2, 4)), 1 + i % 40, calibrated, early))
    rng.shuffle(pool)
    return pool


def long_markets(seed: int, n: int = 24) -> list[MarketSpec]:
    """book-long: quarterly or monthly, 4-node discount and 3-node hazard curves.

    The grid sizes are the same for every seed, evenly spaced over 120-360, and
    taken in a stride order so that the markets a run gets through in part of
    a cycle still cover the whole range; only the market data varies by seed.
    """
    rng = random.Random(f"book-long:{seed}")
    stride = 7  # coprime to n
    return [
        _market(rng, rng.choice((4, 12)), 120 + round((k * stride % n) * 240 / (n - 1)),
                False, False, discount_nodes=4, hazard_nodes=3)
        for k in range(n)
    ]


# -- book ops -------------------------------------------------------------------


def _build_market(spec: MarketSpec, t):
    schedule = t.call("schedule", "schedule.build_schedule", build_schedule,
                      0.0, spec.maturity, spec.frequency)
    discount = t.call("curves", "curves.build", DiscountCurve,
                      tuple(n[0] for n in spec.discount_nodes),
                      tuple(n[1] for n in spec.discount_nodes))
    if spec.hazard_nodes is None:
        survival = t.call("curves", "curves.calibrate", calibrate_flat_hazard,
                          discount, schedule, spec.cds_quote, spec.recovery)
    else:
        survival = t.call("curves", "curves.build", SurvivalCurve,
                          tuple(n[0] for n in spec.hazard_nodes),
                          tuple(n[1] for n in spec.hazard_nodes))
    return discount, survival, schedule, BondSpec(coupon=spec.coupon, recovery=spec.recovery)


def price_request(spec: MarketSpec, t):
    """Every price, annuity and par spread, ETP at s_asw, and the forward leg if the repo ends early."""
    d, s, g, bond = market = _build_market(spec, t)

    def price(fn, *args):
        return t.call("pricers", "pricers." + fn.__name__, fn, *args)

    prices = {
        "riskfree_bond": price(price_riskfree_bond, d, g, bond.coupon),
        "risky_bond": price(price_risky_bond, d, s, g, bond),
        "risky_floater": price(price_risky_floater, d, s, g, bond.recovery),
        "annuity_riskfree": price(annuity_riskfree, d, g),
        "annuity_defaultable": price(annuity_defaultable, d, s, g),
        "s_cds": price(par_cds_spread, d, s, g, bond.recovery).spread,
        "s_asw": price(par_asw_spread, d, s, g, bond).spread,
        "s_aswc": price(par_cancelable_asw_spread, d, s, g, bond).spread,
    }
    prices["etp"] = price(early_termination_pv, d, s, g, bond, prices["s_asw"])
    if spec.repo_maturity is not None:
        fwd = price(forward_bond_price, d, s, g, bond, spec.repo_maturity)
        prices["forward_price"] = fwd
        prices["s_aswc_generalized"] = price(
            par_cancelable_asw_spread_generalized, d, s, g, bond, spec.repo_maturity, fwd
        ).spread
    return market, prices


def ledger_entries(periods: int, last_period: int, clause: bool) -> int:
    """Cashflow entries replication_report books for one market (computed, not counted).

    A default in bucket b <= L books 3 opening rows, 4 per surviving period and
    3 settlement rows (4 with the close-out when the clause is off); survival,
    or a default after the repo ends, books 3 + 4L + 2.
    """
    n, L = periods, last_period
    per_default = 6 + (0 if clause else 1)
    return L * per_default + 2 * L * (L - 1) + (n - L + 1) * (5 + 4 * L)


def _repo(spec: MarketSpec) -> RepoSpec:
    return RepoSpec(spread=spec.repo_spread, maturity=spec.repo_maturity)


def _count_report(spec: MarketSpec, clause: bool, t) -> None:
    t.count("replication.scenarios", spec.periods + 1)
    t.count("replication.ledger_entries_computed",
            ledger_entries(spec.periods, spec.last_period, clause))


def _report(spec: MarketSpec, market, clause: bool, t):
    report = t.call("replication", "replication.report", replication_report,
                    *market, _repo(spec), clause)
    _count_report(spec, clause, t)
    return report


def _mc_check(spec: MarketSpec, market, t):
    """mc_check builds the clause-on report again before sampling it."""
    mc = t.call("replication", "replication.mc_check", mc_check,
                *market, _repo(spec), True, MC_PATHS, spec.mc_seed)
    _count_report(spec, True, t)
    return mc


def book_short_op(spec: MarketSpec, t):
    market, prices = price_request(spec, t)
    out = {"prices": prices, "on": _report(spec, market, True, t)}
    if spec.repo_maturity is None:
        out["off"] = _report(spec, market, False, t)
    return out


def book_long_op(spec: MarketSpec, t):
    market, prices = price_request(spec, t)
    report = _report(spec, market, True, t)
    return {"prices": prices, "on": report, "mc": _mc_check(spec, market, t)}


def probe_op(spec: MarketSpec, t) -> None:
    """Every timed layer call on one market, for the metrics a workload's own ops never reach."""
    market, prices = price_request(spec, t)
    t.call("curves", "curves.calibrate", calibrate_flat_hazard,
           market[0], market[2], prices["s_cds"], spec.recovery)
    _report(spec, market, True, t)
    _mc_check(spec, market, t)


def _residuals_ok(report) -> bool:
    return all(math.isfinite(r.residual) and abs(r.residual) < TOL for r in report.scenarios)


def _mc_ok(estimate: float, std_error: float, expected: float) -> bool:
    return abs(estimate - expected) <= MC_Z * std_error + TOL


def check_book(spec: MarketSpec, out: dict) -> list[str]:
    """Names of the checks this op failed (empty when it passed)."""
    p = out["prices"]
    failed = []
    if not abs(p["s_cds"] - p["s_aswc"]) < TOL:
        failed.append("price: s_cds != s_aswc")
    if spec.cds_quote is not None and not abs(p["s_cds"] - spec.cds_quote) < TOL:
        failed.append("calibrate: quote not reproduced")
    if not _residuals_ok(out["on"]):
        failed.append("clause on: residual not below tolerance")
    if "off" in out and not abs(out["off"].expected_residual + p["etp"]) < TOL:
        failed.append("clause off: E[residual] != -ETP(s_asw)")
    if "mc" in out and not _mc_ok(out["mc"].estimate, out["mc"].std_error,
                                  out["on"].expected_residual):
        failed.append("mc: estimate outside 5 standard errors")
    return failed


def digest(obj) -> str:
    """Hash of the repr of every output; repr round-trips floats exactly."""
    return hashlib.blake2b(repr(obj).encode(), digest_size=16).hexdigest()


# -- cli-mix --------------------------------------------------------------------

COMMANDS = (
    ("price",),
    ("replicate",),
    ("replicate", "--no-clause"),
    ("replicate", "--mc", str(MC_PATHS)),
    ("calibrate",),
    ("implied-repo",),
)

# Invalid configs, from the classes tests/test_cli.py pins: (name, exit code).
INVALID = (
    ("unknown-field", 2),
    ("non-number", 2),
    ("crossed-quotes", 2),
    ("missing-quotes", 2),
    ("unattainable-quote", 3),
)


@dataclass(frozen=True)
class CliItem:
    spec: MarketSpec
    argv: tuple[str, ...]
    config: dict
    quotes: tuple[float, float, float, float] | None
    invalid: str | None
    expect_code: int
    command: str  # label: price, replicate, replicate-mc, calibrate, implied-repo, invalid


def _quotes(rng: random.Random, crossed: bool = False):
    cds_bid = rng.uniform(0.0, 0.05)
    aswc_bid = rng.uniform(0.0, 0.05)
    cds_ask = cds_bid + rng.uniform(1e-4, 0.005)
    aswc_ask = aswc_bid + rng.uniform(1e-4, 0.005)
    if crossed:
        cds_bid, cds_ask = cds_ask, cds_bid
    return cds_bid, cds_ask, aswc_bid, aswc_ask


def cli_items(seed: int, n: int = 120) -> list[CliItem]:
    """The six commands in turn on small markets; every 20th config is invalid."""
    rng = random.Random(f"cli-mix:{seed}")
    items = []
    for i in range(n):
        kind = i % len(COMMANDS)
        argv = COMMANDS[kind]
        calibrated = kind == 4 or (kind != 5 and (i // len(COMMANDS)) % 2 == 1)
        early = kind in (0, 1, 3) and rng.random() < 0.3
        spec = _market(rng, rng.choice((1, 2, 4)), 1 + i % 40, calibrated, early)
        config, quotes, invalid, code = spec.config(), None, None, 0
        if kind == 3:
            argv = argv + ("--seed", str(spec.mc_seed))
        if kind == 5:
            quotes = _quotes(rng)
        if i % 20 == 19:
            invalid, code = INVALID[(i // 20) % len(INVALID)]
            argv, quotes = _invalid_config(rng, invalid, config)
        if quotes is not None:
            config["quotes"] = dict(zip(("cds_bid", "cds_ask", "aswc_bid", "aswc_ask"), quotes))
        label = "invalid" if invalid else ("replicate-mc" if kind == 3 else argv[0])
        items.append(CliItem(spec, argv, config, quotes, invalid, code, label))
    return items


def _invalid_config(rng, invalid: str, config: dict):
    if invalid == "unknown-field":
        config["surprise"] = 1
        return ("price",), None
    if invalid == "non-number":
        config["bond"]["coupon"] = "high"
        return ("price",), None
    if invalid == "crossed-quotes":
        return ("implied-repo",), _quotes(rng, crossed=True)
    if invalid == "missing-quotes":
        return ("implied-repo",), None
    # Far above the spread at the top of the hazard bracket on any grid
    # (about 22000 * LGD at hazard 10 on an annual grid).
    config.pop("hazard_nodes", None)
    config["cds_quote"] = 1e6
    return ("calibrate",), None


def write_configs(items: list[CliItem], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, item in enumerate(items):
        path = directory / f"market-{i:03d}.json"
        path.write_text(json.dumps(item.config))
        paths.append(path)
    return paths


def cli_argv(item: CliItem, path: Path) -> list[str]:
    return ["--config", str(path), *item.argv]


def run_cli_process(item: CliItem, path: Path, env: dict, cwd: Path):
    proc = subprocess.run(
        [sys.executable, "-m", "cdsreplica.cli", *cli_argv(item, path)],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_in_process(item: CliItem, path: Path):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(cli_argv(item, path))
    return code, out.getvalue(), err.getvalue()


# Names the cli module calls, wrapped in spans during a traced cli-mix run.
CLI_CALLS = {
    "build_schedule": ("schedule", "schedule.build_schedule"),
    "DiscountCurve": ("curves", "curves.build"),
    "SurvivalCurve": ("curves", "curves.build"),
    "calibrate_flat_hazard": ("curves", "curves.calibrate"),
    "replication_report": ("replication", "replication.report"),
    "mc_check": ("replication", "replication.mc_check"),
    **{
        name: ("pricers", "pricers." + name)
        for name in (
            "annuity_defaultable", "annuity_riskfree", "early_termination_pv",
            "forward_bond_price", "implied_repo_spreads", "par_asw_spread",
            "par_cancelable_asw_spread", "par_cancelable_asw_spread_generalized",
            "par_cds_spread", "price_riskfree_bond", "price_risky_bond", "price_risky_floater",
        )
    },
}


@contextmanager
def traced_cli(tracer):
    """Route the cli module's calls into each layer through the tracer; restore on exit."""
    saved = {name: getattr(cli, name) for name in CLI_CALLS}
    try:
        for name, (layer, span) in CLI_CALLS.items():
            setattr(cli, name, partial(tracer.call, layer, span, saved[name]))
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def cli_op(entry, t, env: dict, cwd: Path):
    """One cli-mix op: the command in a fresh interpreter.

    Traced, the op then runs the same argv through cli.main in this process,
    with the layer calls in spans; its output must equal the subprocess's.
    """
    item, path = entry
    result = t.call("cli", "cli.process", run_cli_process, item, path, env, cwd)
    if not t.enabled:
        return result, None
    replay = t.call("cli", "cli.main", run_cli_in_process, item, path)
    if item.command.startswith("replicate") and result[0] == 0:
        _count_report(item.spec, "--no-clause" not in item.argv, t)
        if item.command == "replicate-mc":
            _count_report(item.spec, True, t)
    return result, replay


def _expected_etp(spec: MarketSpec, s_asw: float) -> float:
    """ETP at the reported s_asw, on a market built here by the library."""
    d, s, g, bond = _build_market(spec, NullTracer())
    return early_termination_pv(d, s, g, bond, s_asw)


def check_cli(entry, output) -> list[str]:
    item = entry[0]
    result, replay = output
    if replay is not None and replay != result:
        return [f"{item.command}: in-process output differs from the subprocess's"]
    code, out, err = result
    if item.invalid:
        lines = err.splitlines()
        ok = (code == item.expect_code and out == "" and len(lines) == 1
              and lines[0].startswith("error:") and "Traceback" not in err)
        return [] if ok else [f"invalid {item.invalid}: exit {code}, stderr {err[-200:]!r}"]
    if code != 0:
        return [f"{item.command}: exit {code}, stderr {err[-200:]!r}"]
    report = json.loads(out)
    failed = []
    if item.command == "price":
        if not abs(report["cds_par_spread"] - report["cancelable_asw_par_spread"]) < TOL:
            failed.append("price: s_cds != s_aswc")
    elif item.command == "calibrate":
        if not abs(report["reproduced_cds_spread"] - item.spec.cds_quote) < TOL:
            failed.append("calibrate: quote not reproduced")
    elif item.command == "implied-repo":
        cds_bid, cds_ask, aswc_bid, aswc_ask = item.quotes
        if (report["implied_repo_spread"] != cds_ask - aswc_bid
                or report["implied_reverse_repo_spread"] != cds_bid - aswc_ask):
            failed.append("implied-repo: not cds_ask - aswc_bid, cds_bid - aswc_ask")
    elif "--no-clause" in item.argv:
        etp = _expected_etp(item.spec, report["asw_spread"])
        if not abs(report["expected_residual"] + etp) < TOL:
            failed.append("clause off: E[residual] != -ETP(s_asw)")
    else:
        residuals = [row["residual"] for row in report["scenarios"]]
        if not all(math.isfinite(r) and abs(r) < TOL for r in residuals):
            failed.append("clause on: residual not below tolerance")
        if "mc_estimate" in report and not _mc_ok(
            report["mc_estimate"], report["mc_std_error"], report["expected_residual"]
        ):
            failed.append("mc: estimate outside 5 standard errors")
    return failed
