"""Fixed probes of the traced run: CLI start-up decomposition and the N sweep.

Neither depends on the workload or the seed, so every traced run reports
them on the same inputs.
"""

from __future__ import annotations

import io
import json
import math
import re
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter_ns

from cdsreplica import (
    BondSpec,
    DiscountCurve,
    RepoSpec,
    SurvivalCurve,
    build_schedule,
    calibrate_flat_hazard,
    early_termination_pv,
    forward_bond_price,
    mc_check,
    par_asw_spread,
    par_cancelable_asw_spread,
    par_cds_spread,
    replication_report,
)
from cdsreplica import cli

SWEEP_N = (5, 40, 120, 360)
SWEEP_REPS = {5: 41, 40: 21, 120: 9, 360: 5}
SWEEP_FREQUENCY = 4
# One fixed piecewise market: 4 discount nodes, 3 hazard nodes.
SWEEP_DISCOUNT = ((1.0, 0.02), (5.0, 0.03), (20.0, 0.035), (50.0, 0.04))
SWEEP_HAZARD = ((3.0, 0.01), (10.0, 0.02), (30.0, 0.03))
SWEEP_BOND = BondSpec(coupon=0.05, recovery=0.4)

PROCESS_REPS = 5


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = perf_counter_ns()
        fn()
        times.append(perf_counter_ns() - start)
    return statistics.median(times) / 1e6


def _run(args: list[str], env: dict, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(args, env=env, cwd=cwd, capture_output=True, text=True,
                          check=True, timeout=120)


def cli_startup(env: dict, cwd: Path) -> dict[str, float]:
    """Interpreter start, package import above it, and numpy's cumulative import time."""
    interp = _median_ms(lambda: _run([sys.executable, "-c", "pass"], env, cwd), PROCESS_REPS)
    imported = _median_ms(
        lambda: _run([sys.executable, "-c", "import cdsreplica.cli"], env, cwd), PROCESS_REPS
    )
    numpy_us = []
    for _ in range(PROCESS_REPS):
        err = _run([sys.executable, "-X", "importtime", "-c", "import cdsreplica.cli"],
                   env, cwd).stderr
        match = re.search(r"^import time:\s+\d+ \|\s+(\d+) \|\s+numpy$", err, re.MULTILINE)
        numpy_us.append(int(match.group(1)) if match else 0)  # 0: the CLI no longer imports numpy
    return {
        "cli.interp_start_ms": interp,
        "cli.import_ms": imported - interp,
        "cli.import_numpy_ms": statistics.median(numpy_us) / 1e3,
    }


def cli_main(directory: Path) -> dict[str, float]:
    """In-process cli.main(argv) per command on the sweep market at N = 40, stdout captured."""
    maturity = 40 / SWEEP_FREQUENCY
    config = {
        "discount_nodes": [list(n) for n in SWEEP_DISCOUNT],
        "hazard_nodes": [list(n) for n in SWEEP_HAZARD],
        "bond": {"coupon": SWEEP_BOND.coupon, "recovery": SWEEP_BOND.recovery,
                 "maturity": maturity, "frequency": SWEEP_FREQUENCY},
        "repo": {"spread": 0.001},
        "quotes": {"cds_bid": 0.010, "cds_ask": 0.012, "aswc_bid": 0.009, "aswc_ask": 0.011},
    }
    quoted = {k: v for k, v in config.items() if k != "hazard_nodes"}
    quoted["cds_quote"] = 0.012
    cases = {
        "price": (config, ["price"]),
        "replicate": (config, ["replicate"]),
        "replicate-mc": (config, ["replicate", "--mc", "100000"]),
        "calibrate": (quoted, ["calibrate"]),
        "implied-repo": (config, ["implied-repo"]),
        "invalid": (dict(config, surprise=1), ["price"]),
    }
    directory.mkdir(parents=True, exist_ok=True)
    out = {}
    for name, (raw, argv) in cases.items():
        path = directory / f"probe-{name}.json"
        path.write_text(json.dumps(raw))

        def call():
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                cli.main(["--config", str(path), *argv])

        out[f"cli.main_ms.{name}"] = _median_ms(call, 7)
    return out


def n_sweep() -> dict[str, float]:
    """Layer cost at N = 5, 40, 120, 360 on one market, with log-log slopes from 120 to 360.

    Repetitions of one call cycle through the four sizes, so that a drift in
    machine speed moves every size alike and leaves the slopes alone.
    """
    discount = DiscountCurve(tuple(n[0] for n in SWEEP_DISCOUNT), tuple(n[1] for n in SWEEP_DISCOUNT))
    survival = SurvivalCurve(tuple(n[0] for n in SWEEP_HAZARD), tuple(n[1] for n in SWEEP_HAZARD))
    bond = SWEEP_BOND
    repo = RepoSpec(spread=0.001)
    calls: dict[str, dict[int, object]] = {}
    for n in SWEEP_N:
        schedule = build_schedule(0.0, n / SWEEP_FREQUENCY, SWEEP_FREQUENCY)
        quote = par_cds_spread(discount, survival, schedule, bond.recovery).spread
        s_asw = par_asw_spread(discount, survival, schedule, bond).spread
        repo_maturity = schedule.dates[n // 2]
        for name, fn, args in (
            ("curves.calibrate", calibrate_flat_hazard, (discount, schedule, quote, bond.recovery)),
            ("pricers.par_cds_spread", par_cds_spread, (discount, survival, schedule, bond.recovery)),
            ("pricers.par_asw_spread", par_asw_spread, (discount, survival, schedule, bond)),
            ("pricers.par_cancelable_asw_spread", par_cancelable_asw_spread,
             (discount, survival, schedule, bond)),
            ("pricers.early_termination_pv", early_termination_pv,
             (discount, survival, schedule, bond, s_asw)),
            ("pricers.forward_bond_price", forward_bond_price,
             (discount, survival, schedule, bond, repo_maturity)),
            ("replication.report", replication_report,
             (discount, survival, schedule, bond, repo, True)),
            ("replication.mc_check", mc_check,
             (discount, survival, schedule, bond, repo, True, 100_000, 0)),
        ):
            calls.setdefault(name, {})[n] = (fn, args)

    out: dict[str, float] = {}
    for name, by_n in calls.items():
        times: dict[int, list[int]] = {n: [] for n in SWEEP_N}
        for rep in range(max(SWEEP_REPS.values())):
            for n, (fn, args) in by_n.items():
                if rep < SWEEP_REPS[n]:
                    start = perf_counter_ns()
                    fn(*args)
                    times[n].append(perf_counter_ns() - start)
        ms = {n: statistics.median(t) / 1e6 for n, t in times.items()}
        out.update({f"{name}.n{n}_ms": ms[n] for n in SWEEP_N})
        out[f"{name}.scaling_exp"] = math.log(ms[360] / ms[120]) / math.log(3.0)
    return out
