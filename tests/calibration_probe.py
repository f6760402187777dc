"""Time the flat-hazard fit on one seed's calibrated book-short markets, for two checkouts.

    python tests/calibration_probe.py PARENT CHANGE [--seed S] [--rounds R] [--reps K]

PARENT and CHANGE are checkouts of this repository, best made fresh (`git archive`).
Each round runs one child interpreter per root, with the root's `src` and `bench`
first on sys.path; the two roots alternate, the parent first on even rounds and the
change first on odd ones. A child takes the markets of `bench/workloads.short_markets(S)`
that give a `cds_quote` (half of the pool, 1-40 periods) and, for each, times K calls of
`curves._calibrate_flat_hazard`, each on a fresh discount curve, so that every fit pays
its discount evaluation as a benchmark op does. Apart from the timed calls it records
each fit's `iterations` and its survival evaluations, counted by wrapping
`curves._exp_integrals`.

It prints one JSON line per root (PARENT's first): per period count N, the median over
rounds of the median time per fit in µs (for `all`, the median over every market), the
points per fit (`iterations`) and the survival evaluations per fit, each averaged over
that N's markets or over all of them. A last line gives each change/parent time ratio
and the number of rounds in which the change was faster. Only the standard library is
used here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = """
import json, statistics, sys
from time import perf_counter_ns
sys.path[:0] = [sys.argv[3] + "/src", sys.argv[3] + "/bench"]
import workloads
from cdsreplica import DiscountCurve, build_schedule, curves

reps, seed = int(sys.argv[1]), int(sys.argv[2])
markets = []
for spec in workloads.short_markets(seed):
    if spec.cds_quote is not None:
        nodes = tuple(n[0] for n in spec.discount_nodes), tuple(n[1] for n in spec.discount_nodes)
        schedule = build_schedule(0.0, spec.maturity, spec.frequency)
        markets.append((spec.periods, nodes, schedule, spec.cds_quote, spec.recovery))

evaluations = 0
real = curves._exp_integrals

def counted(curve, *args):
    global evaluations
    evaluations += curve == "survival"
    return real(curve, *args)

counts = {}
curves._exp_integrals = counted
for n, nodes, schedule, quote, recovery in markets:
    evaluations = 0
    fit = curves._calibrate_flat_hazard(DiscountCurve(*nodes), schedule, quote, recovery)
    counts.setdefault(n, []).append((fit.iterations, evaluations))
curves._exp_integrals = real

times = {}
for n, nodes, schedule, quote, recovery in markets:
    elapsed = []
    for _ in range(reps):
        discount = DiscountCurve(*nodes)
        start = perf_counter_ns()
        curves._calibrate_flat_hazard(discount, schedule, quote, recovery)
        elapsed.append(perf_counter_ns() - start)
    times.setdefault(n, []).append(statistics.median(elapsed) / 1e3)
times["all"] = [t for n in sorted(counts) for t in times[n]]
counts["all"] = [c for n in sorted(counts) for c in counts[n]]
print(json.dumps({n: {"fit_us": statistics.median(times[n]),
                      "points": statistics.fmean(c[0] for c in counts[n]),
                      "evaluations": statistics.fmean(c[1] for c in counts[n]),
                      "fits": len(counts[n])}
                  for n in times}))
"""


def child(root: Path, reps: int, seed: int) -> dict[str, dict[str, float]]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    run = subprocess.run([sys.executable, "-c", CHILD, str(reps), str(seed), str(root)],
                         env=env, cwd=root, capture_output=True, text=True, timeout=600)
    if run.returncode:
        sys.exit(f"{root}: the timing child exited {run.returncode}: {run.stderr[-300:]}")
    return json.loads(run.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs=2, type=Path, metavar="ROOT", help="PARENT, then CHANGE")
    parser.add_argument("--seed", type=int, default=3, help="the book-short pool's seed")
    parser.add_argument("--rounds", type=int, default=6, help="children per root")
    parser.add_argument("--reps", type=int, default=21, help="timed fits per market and round")
    args = parser.parse_args()
    roots = [root.resolve() for root in args.roots]
    rounds = {root: [] for root in roots}
    for turn in range(args.rounds):
        for root in roots[::-1] if turn % 2 else roots:
            rounds[root].append(child(root, args.reps, args.seed))
    medians = {root: {n: statistics.median(r[n]["fit_us"] for r in runs) for n in runs[0]}
               for root, runs in rounds.items()}
    for root in roots:
        first = rounds[root][0]
        print(json.dumps({
            "root": str(root), "seed": args.seed, "rounds": args.rounds, "reps": args.reps,
            "per_n": {n: {"fit_us": round(medians[root][n], 2),
                          "points": round(first[n]["points"], 3),
                          "evaluations": round(first[n]["evaluations"], 3),
                          "fits": first[n]["fits"]}
                      for n in first},
        }), flush=True)
    parent, change = roots
    print(json.dumps({
        "change_over_parent": {n: round(medians[change][n] / us, 3)
                               for n, us in medians[parent].items()},
        "change_faster_rounds": {
            n: sum(c[n]["fit_us"] < p[n]["fit_us"] for p, c in zip(rounds[parent], rounds[change]))
            for n in medians[parent]
        },
    }))


if __name__ == "__main__":
    main()
