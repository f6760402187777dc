"""Time the replication report and mc_check at N = 5, 40, 120 and 360, for two checkouts.

    python tests/report_probe.py PARENT CHANGE [--rounds R] [--reps K]

PARENT and CHANGE are checkouts of this repository, best made fresh (`git archive`).
Each round runs one child interpreter per root, with PYTHONPATH set to the root's
`src`; the two roots alternate, the parent first on even rounds and the change first
on odd ones. A child builds the benchmark's N-sweep market (`bench/probes.py`: 4
discount nodes, 3 hazard nodes, a 5% bond at 40% recovery, quarterly payments) on
grids of N = 5, 40, 120 and 360 periods, with a repo to maturity at a 10 bp spread,
and times K calls of each of these, cycling through the sizes:
- `report`: `replication_report` with the clause on, the table built (the kept last
  table is cleared before each call);
- `report_no_clause`: the same with the clause off;
- `mc_check`: `mc_check` at 100,000 paths and seed 0, after a report on the market,
  so that it reuses that report's table.
It prints one JSON line per root (PARENT's first), the median over rounds of each
round's median in µs, and a last line with each change/parent ratio and the number
of rounds in which the change was faster. Only the standard library is used here; the
children load numpy for mc_check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIZES = (5, 40, 120, 360)

CHILD = """
import json, statistics, sys
from time import perf_counter_ns
import cdsreplica.replication as replication
from cdsreplica import (BondSpec, DiscountCurve, RepoSpec, SurvivalCurve, build_schedule,
                        mc_check, replication_report)
reps, sizes = int(sys.argv[1]), json.loads(sys.argv[2])
discount = DiscountCurve((1.0, 5.0, 20.0, 50.0), (0.02, 0.03, 0.035, 0.04))
survival = SurvivalCurve((3.0, 10.0, 30.0), (0.01, 0.02, 0.03))
bond, repo = BondSpec(coupon=0.05, recovery=0.4), RepoSpec(spread=0.001)
markets = {n: (discount, survival, build_schedule(0.0, n / 4, 4), bond, repo) for n in sizes}

def report(market, clause):
    replication._last_table = None
    start = perf_counter_ns()
    replication_report(*market, clause)
    return perf_counter_ns() - start

def check(market):
    replication_report(*market, True)
    start = perf_counter_ns()
    mc_check(*market, True, 100_000, 0)
    return perf_counter_ns() - start

measures = {
    "report": lambda market: report(market, True),
    "report_no_clause": lambda market: report(market, False),
    "mc_check": check,
}
for measure in measures.values():  # warm up every path and memo once
    for market in markets.values():
        measure(market)
times = {name: {n: [] for n in sizes} for name in measures}
for _ in range(reps):
    for name, measure in measures.items():
        for n, market in markets.items():
            times[name][n].append(measure(market))
print(json.dumps({name: {n: statistics.median(t) / 1e3 for n, t in by_n.items()}
                  for name, by_n in times.items()}))
"""


def child(root: Path, reps: int) -> dict[str, dict[str, float]]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, "-c", CHILD, str(reps), json.dumps(SIZES)], env=env,
                         cwd=root, capture_output=True, text=True, timeout=600)
    if run.returncode:
        sys.exit(f"{root}: the timing child exited {run.returncode}: {run.stderr[-300:]}")
    return json.loads(run.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs=2, type=Path, metavar="ROOT", help="PARENT, then CHANGE")
    parser.add_argument("--rounds", type=int, default=6, help="children per root")
    parser.add_argument("--reps", type=int, default=41, help="timed calls per size and round")
    args = parser.parse_args()
    roots = [root.resolve() for root in args.roots]
    rounds = {root: [] for root in roots}
    for turn in range(args.rounds):
        for root in roots[::-1] if turn % 2 else roots:
            rounds[root].append(child(root, args.reps))
    medians = {
        root: {name: {n: statistics.median(r[name][n] for r in runs) for n in runs[0][name]}
               for name in runs[0]}
        for root, runs in rounds.items()
    }
    for root in roots:
        line = {name: {n: round(us, 2) for n, us in by_n.items()}
                for name, by_n in medians[root].items()}
        print(json.dumps({"root": str(root), "rounds": args.rounds, "reps": args.reps,
                          "median_us": line}), flush=True)
    parent, change = roots
    print(json.dumps({
        "change_over_parent": {
            name: {n: round(medians[change][name][n] / us, 3) for n, us in by_n.items()}
            for name, by_n in medians[parent].items()
        },
        "change_faster_rounds": {
            name: {n: sum(c[name][n] < p[name][n] for p, c in zip(rounds[parent], rounds[change]))
                   for n in by_n}
            for name, by_n in medians[parent].items()
        },
    }))


if __name__ == "__main__":
    main()
