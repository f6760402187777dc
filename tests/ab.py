"""Run one probe on two sides of this repository in alternated pairs, and judge the change.

    python tests/ab.py PARENT CHANGE PROBE [--pairs P] [--seed S]

PARENT and CHANGE are each a directory holding a checkout of this repository, or a
git revision of the repository this script lives in; a revision is exported with
`git archive` into a temporary directory, so it holds no bytecode the other side
lacks. The two sides must have the same `bench/` and `BENCHMARK.json`; the script
names the first file that differs and stops.

PROBE is one of:
- a workload of `BENCHMARK.json` (`cli-mix`, `book-short`, `book-long`): each run is
  the side's own `bench/run.py`, with the command, `run_seconds` and the end-to-end
  metrics, their direction and their bounds taken from `BENCHMARK.json`;
- a layer probe, one child interpreter per run with the side's `src` and `bench` first
  on sys.path (the children are described at their programs below): `report`,
  `calibration` or `startup`.

Pair k runs the probe once on each side, the parent first when k is odd and the change
first when k is even. The environment is the caller's, so under
PYTHONDONTWRITEBYTECODE=1 every fresh interpreter compiles what it imports. Progress
goes to stderr; stdout gets one JSON document: `method` (command, order, sides, seed)
and, under `end_to_end.<workload>` or `layer.<probe>`, for each label both sides' runs,
medians and quartiles, the change/parent ratio of the medians, the pairs the change won
and the verdict of `summary`. Only the standard library is used here.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
GAIN_PAIRS = 10  # the fewest pairs on which a gain may be claimed

# The replication report and mc_check at N = 5, 40, 120 and 360 on the benchmark's
# N-sweep market (`bench/probes.py`: 4 discount nodes, 3 hazard nodes, a 5% bond at 40%
# recovery, quarterly payments), with a repo to maturity at a 10 bp spread. Each label is
# the median of 41 timed calls per size, cycling through the sizes, in µs:
# - `report`: `replication_report` with the clause on, the table built (the table's
#   entry is popped from the market's grid, `_Grid.kept`, before each timed call; the
#   grid's other sums stay kept);
# - `report_no_clause`: the same with the clause off;
# - `mc_check`: `mc_check` at 100,000 paths and seed 0, after a report on the market,
#   so that it reuses that report's table.
# Both sides must keep the table on the grid (`replication._par_table`).
REPORT = """
import json, statistics
from time import perf_counter_ns
import cdsreplica.replication as replication
from cdsreplica.curves import _grid
from cdsreplica import (BondSpec, DiscountCurve, RepoSpec, SurvivalCurve, build_schedule,
                        mc_check, replication_report)
reps, sizes = 41, (5, 40, 120, 360)
discount = DiscountCurve((1.0, 5.0, 20.0, 50.0), (0.02, 0.03, 0.035, 0.04))
survival = SurvivalCurve((3.0, 10.0, 30.0), (0.01, 0.02, 0.03))
bond, repo = BondSpec(coupon=0.05, recovery=0.4), RepoSpec(spread=0.001)
markets = {n: (discount, survival, build_schedule(0.0, n / 4, 4), bond, repo) for n in sizes}

def report(market, clause):
    _grid(*market[:3]).sums.pop(replication._par_table, None)
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
print(json.dumps({f"{name}.n{n}_us": statistics.median(t) / 1e3
                  for name, by_n in times.items() for n, t in by_n.items()}))
"""

# The flat-hazard fit on the markets of `bench/workloads.short_markets(seed)` that give a
# `cds_quote` (half of the pool, 1-40 periods). For each market it times 21 calls of
# `curves._calibrate_flat_hazard`, each on a fresh discount curve, so that every fit pays
# its discount evaluation as a benchmark op does. Apart from the timed calls it records
# each fit's `iterations` and its survival evaluations, counted by wrapping
# `curves._exp_integrals`. Per period count N, and for `all` the markets together:
# `fit_us`, the median over the markets of the median time per fit; `points`, the mean
# `iterations`; `evaluations`, the mean survival evaluations per fit; `fits`, the count.
CALIBRATION = """
import json, statistics, sys
from time import perf_counter_ns
import workloads
from cdsreplica import DiscountCurve, build_schedule, curves

reps, seed = 21, int(sys.argv[1])
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
sizes = sorted(counts)
times["all"] = [t for n in sizes for t in times[n]]
counts["all"] = [c for n in sizes for c in counts[n]]
line = {}
for n in [*sizes, "all"]:
    key = n if n == "all" else f"n{n}"
    line[f"{key}.fit_us"] = statistics.median(times[n])
    line[f"{key}.points"] = statistics.fmean(c[0] for c in counts[n])
    line[f"{key}.evaluations"] = statistics.fmean(c[1] for c in counts[n])
    line[f"{key}.fits"] = len(counts[n])
print(json.dumps(line))
"""

# The wall time of each `cli-mix` command from process start. The child writes the
# `cli-mix` configs of one seed (`bench/workloads.py`: `cli_items`, `write_configs`) to a
# temporary directory and runs each config once as `python -m cdsreplica.cli` in a fresh
# interpreter with PYTHONPATH set to the side's `src`, as the benchmark does. Labels:
# - `per_command_ms.<label>`: the median wall time of each command label (price,
#   replicate, replicate-mc, calibrate, implied-repo, invalid) over its configs;
# - `p50_ms`: the median over every config, as `cli-mix` reports `latency_ms_p50`;
# - `import_cli_ms`: the wall time of `python -c "import cdsreplica.cli"`, and
#   `importtime_ms.<module>`, the `-X importtime` cumulative times of the package and of
#   `cdsreplica.cli`, which holds the package's; one of each per run.
STARTUP = r"""
import json, os, re, statistics, subprocess, sys, tempfile
from pathlib import Path
from time import perf_counter_ns
from workloads import cli_argv, cli_items, write_configs

root, seed = Path.cwd(), int(sys.argv[1])
env = dict(os.environ, PYTHONPATH=str(root / "src"))
importtime = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(cdsreplica(?:\.cli)?)$",
                        re.MULTILINE)

def wall_ms(args):
    start = perf_counter_ns()
    run = subprocess.run([sys.executable, *args], env=env, cwd=root, capture_output=True,
                         text=True, timeout=120)
    return (perf_counter_ns() - start) / 1e6, run

times = {}
with tempfile.TemporaryDirectory() as directory:
    items = cli_items(seed)
    for item, path in zip(items, write_configs(items, Path(directory))):
        ms, run = wall_ms(["-m", "cdsreplica.cli", *cli_argv(item, path)])
        if run.returncode not in (0, 2, 3):  # the invalid configs exit 2 or 3
            sys.exit(f"{item.command} exited {run.returncode}: {run.stderr[-300:]}")
        times.setdefault(item.command, []).append(ms)
line = {f"per_command_ms.{label}": statistics.median(ms) for label, ms in times.items()}
line["p50_ms"] = statistics.median(ms for each in times.values() for ms in each)
line["import_cli_ms"], _ = wall_ms(["-c", "import cdsreplica.cli"])
_, run = wall_ms(["-X", "importtime", "-c", "import cdsreplica.cli"])
line.update((f"importtime_ms.{name}", int(us) / 1e3) for us, name in importtime.findall(run.stderr))
print(json.dumps(line))
"""

LAYER_PROBES = {"report": REPORT, "calibration": CALIBRATION, "startup": STARTUP}
ON_PATH = "import sys; sys.path[:0] = ['src', 'bench']\n"  # run in the side's root


def side(spec: str, directory: Path) -> tuple[Path, str]:
    """The root of one side and how it was made: SPEC itself if it is a directory, else
    the git revision SPEC of this repository, exported into DIRECTORY (made here)."""
    if Path(spec).is_dir():
        root = Path(spec).resolve()
        return root, str(root)
    commit = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{spec}^{{commit}}"],
                            cwd=REPO, capture_output=True, text=True).stdout.strip()
    if not commit:
        sys.exit(f"{spec}: neither a directory nor a git revision of {REPO}")
    archive = subprocess.run(["git", "archive", commit], cwd=REPO, capture_output=True,
                             check=True).stdout
    directory.mkdir()
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, filter="data")
    return directory, f"{spec} = {commit} (git archive)"


def same_benchmark(parent: Path, change: Path) -> None:
    """Stop unless both sides hold the same `BENCHMARK.json` and files under `bench/`
    (bytecode aside): a difference there would be measured as the change's."""
    files = {path.relative_to(root) for root in (parent, change)
             for path in (root / "bench").rglob("*")
             if path.is_file() and "__pycache__" not in path.parts}
    for name in [Path("BENCHMARK.json"), *sorted(files)]:
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            sys.exit(f"the sides differ in {name}: {a} and {b}")


def quartiles(runs: list[float]) -> list[float]:
    return statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3


def summary(parent: list[float], change: list[float], better: str, bound: float | None) -> dict:
    """One label's runs on both sides, pair by pair, summarized and judged.

    The change wins a pair when its run is better than the parent's; a tie counts for
    neither side. The verdict is the first of these that holds:
    - `gain`: at least GAIN_PAIRS pairs, the change winning at least 9 of every 10, and
      its median better than the parent's by more than the parent's interquartile range;
    - `no gain`, when the label has no bound (a layer probe's labels);
    - `regression`: the change's median worse than the parent's by more than the bound,
      relative to the parent's median;
    - `unresolved`: one side's spread, (max - min) / median of its runs, wider than the
      bound, unless every change run is better than every parent run;
    - `within bound`.
    """
    sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0: the change is better
    stats = {name: {"median": statistics.median(runs), "quartiles": quartiles(runs), "runs": runs}
             for name, runs in zip(SIDES, (parent, change))}
    p_median, c_median = stats["parent"]["median"], stats["change"]["median"]
    q1, _, q3 = stats["parent"]["quartiles"]
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ratio = c_median / p_median
    spread = max((max(runs) - min(runs)) / statistics.median(runs) for runs in (parent, change))
    pairs = len(parent)
    if pairs >= GAIN_PAIRS and 10 * wins >= 9 * pairs and sign * (p_median - c_median) > q3 - q1:
        verdict = "gain"
    elif bound is None:
        verdict = "no gain"
    elif sign * (ratio - 1) > bound:
        verdict = "regression"
    elif spread > bound and not all(sign * (p - c) > 0 for p in parent for c in change):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"better": better, "bound": bound, **stats, "ratio": round(ratio, 4),
            "median_change_rel": round(ratio - 1, 4), "change_better_pairs": wins,
            "parent_iqr": q3 - q1, "spread": round(spread, 4), "verdict": verdict}


def run_json(command: list[str], root: Path) -> dict:
    """The JSON of the last line that COMMAND prints, run in ROOT."""
    run = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if run.returncode:
        sys.exit(f"{root}: {' '.join(command[:3])} exited {run.returncode}: {run.stderr[-500:]}")
    return json.loads(run.stdout.splitlines()[-1])


def alternate(roots: dict[str, Path], pairs: int, run) -> tuple[dict[str, list], list[str]]:
    """run(root) once per side in each pair, the parent first in odd pairs; the results
    keyed by side, in pair order, and the side that ran first in each pair."""
    results, first = {name: [] for name in SIDES}, []
    for pair in range(1, pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        first.append(order[0])
        for name in order:
            start = perf_counter()
            results[name].append(run(roots[name]))
            print(f"pair {pair}/{pairs}: {name} in {perf_counter() - start:.1f} s",
                  file=sys.stderr, flush=True)
    return results, first


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT", help="a directory or a git revision")
    parser.add_argument("change", metavar="CHANGE", help="a directory or a git revision")
    parser.add_argument("probe", metavar="PROBE", help="a workload or a layer probe")
    parser.add_argument("--pairs", type=int, default=GAIN_PAIRS, help="alternated pairs to run")
    parser.add_argument("--seed", type=int, default=1, help="the workload's or probe's seed")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory() as directory:
        made = {name: side(spec, Path(directory) / name)
                for name, spec in zip(SIDES, (args.parent, args.change))}
        roots = {name: root for name, (root, _) in made.items()}
        same_benchmark(roots["parent"], roots["change"])
        benchmark = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in benchmark["workloads"]]
        workload = args.probe in workloads
        if workload:
            command = [*benchmark["command"], "--workload", args.probe, "--seed", str(args.seed),
                       "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
            described = " ".join(command)
        elif args.probe in LAYER_PROBES:
            command = [sys.executable, "-c", ON_PATH + LAYER_PROBES[args.probe], str(args.seed)]
            described = f"the {args.probe} probe of tests/ab.py, seed {args.seed}"
        else:
            parser.error(f"PROBE must be one of {', '.join([*workloads, *LAYER_PROBES])}")
        runs, first = alternate(roots, args.pairs, lambda root: run_json(command, root))
    method = {
        "command": described,
        "order": f"pairs 1-{args.pairs}; the parent ran first in odd pairs, the change in even",
        "sides": {name: how for name, (_, how) in made.items()},
        "seed": args.seed,
    }
    record = {"pairs": args.pairs, "first": first}
    if workload:
        for key in ("failed", "attempted"):
            record[key] = {name: sum(r[key] for r in runs[name]) for name in SIDES}
        record["correct"] = {name: all(r["correct"] for r in runs[name]) for name in SIDES}
        declared = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
        runs = {name: [{label: r["metrics"][label]["value"] for label in declared}
                       for r in runs[name]] for name in SIDES}
    else:
        declared = dict.fromkeys(runs["parent"][0], ("lower", None))
    record["metrics"] = {label: summary(*([r[label] for r in runs[name]] for name in SIDES), *how)
                         for label, how in declared.items()}
    if workload:  # a gain does not count when a larger share of ops fails
        share = {name: record["failed"][name] / record["attempted"][name] for name in SIDES}
        for metric in record["metrics"].values():
            if metric["verdict"] == "gain" and share["change"] > share["parent"]:
                metric["verdict"] = "no gain: a larger share of ops failed"
    section = "end_to_end" if workload else "layer"
    print(json.dumps({"method": method, section: {args.probe: record}}, indent=1))


if __name__ == "__main__":
    main()
