"""Wall time of each `cli-mix` command from process start, for two checkouts side by side.

    python tests/startup_probe.py PARENT CHANGE [--seed S] [--rounds R] [--imports K]

PARENT and CHANGE are checkouts of this repository, best made fresh (`git archive`),
so that neither holds bytecode the other lacks. The script writes the `cli-mix`
configs of one seed with PARENT's `bench/workloads.py` (`cli_items`, `write_configs`)
to a temporary directory. It then runs every config's command R times per root, as
`python -m cdsreplica.cli` in a fresh interpreter with PYTHONPATH set to the root's
`src`, as the benchmark does. The two roots alternate: the parent runs first on even
(round + config) turns, the change first on odd ones. The environment is the
caller's; under PYTHONDONTWRITEBYTECODE=1 every start compiles what it imports.

It prints one JSON line per root (PARENT's first):
- `per_command_ms`: the median wall time of each command label (price, replicate,
  replicate-mc, calibrate, implied-repo, invalid) over its configs and rounds;
- `p50_ms`: the median over every run, as `cli-mix` reports `latency_ms_p50`,
  and `p50_between`, the two labels whose medians it lies between;
- `import_cli_ms`: the median wall time of `python -c "import cdsreplica.cli"` over
  K alternated runs each, and `importtime_ms`, the median `-X importtime` cumulative
  times of the package and of `cdsreplica.cli`, which holds the package's.
Only the standard library is used; the commands themselves load numpy for `--mc`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

WRITE_CONFIGS = """
import json, sys
from pathlib import Path
root, seed, directory = Path(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3])
sys.path[:0] = [str(root / "src"), str(root / "bench")]
from workloads import cli_argv, cli_items, write_configs
items = cli_items(seed)
paths = write_configs(items, directory)
print(json.dumps([[item.command, cli_argv(item, path)] for item, path in zip(items, paths)]))
"""
IMPORTTIME = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(cdsreplica(?:\.cli)?)$", re.MULTILINE)


def env_for(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def wall_ms(args: list[str], env: dict, cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter_ns()
    run = subprocess.run(args, env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    return (perf_counter_ns() - start) / 1e6, run


def alternate(roots: list[Path], turns: int, run, swapped):
    """run(root, turn) for each root on each turn, in reverse order where swapped(turn);
    the results per root, in turn order."""
    results = {root: [] for root in roots}
    for turn in range(turns):
        for root in roots[::-1] if swapped(turn) else roots:
            results[root].append(run(root, turn))
    return results


def probe(roots: list[Path], seed: int, rounds: int, imports: int) -> dict[Path, dict]:
    with tempfile.TemporaryDirectory() as directory:
        written = subprocess.run(
            [sys.executable, "-c", WRITE_CONFIGS, str(roots[0]), str(seed), directory],
            capture_output=True, text=True, check=True,
        )
        commands = json.loads(written.stdout)
        envs = {root: env_for(root) for root in roots}

        def command(root, turn):
            label, argv = commands[turn % len(commands)]
            ms, run = wall_ms([sys.executable, "-m", "cdsreplica.cli", *argv], envs[root], root)
            if run.returncode not in (0, 2, 3):  # the invalid configs exit 2 or 3
                sys.exit(f"{root}: {label} exited {run.returncode}: {run.stderr[-300:]}")
            return label, ms

        def import_cli(root, turn):
            ms, _ = wall_ms([sys.executable, "-c", "import cdsreplica.cli"], envs[root], root)
            _, run = wall_ms([sys.executable, "-X", "importtime", "-c", "import cdsreplica.cli"],
                             envs[root], root)
            return ms, {name: int(us) / 1e3 for us, name in IMPORTTIME.findall(run.stderr)}

        # turn k runs config k mod n in round k // n
        n = len(commands)
        timed = alternate(roots, rounds * n, command, lambda turn: (turn // n + turn) % 2)
        imported = alternate(roots, imports, import_cli, lambda turn: turn % 2)
    lines = {}
    for root in roots:
        per_command: dict[str, list[float]] = {}
        for label, ms in timed[root]:
            per_command.setdefault(label, []).append(ms)
        medians = {label: statistics.median(times) for label, times in per_command.items()}
        p50 = statistics.median(ms for _, ms in timed[root])
        ranked = sorted(medians, key=medians.get)
        below = [label for label in ranked if medians[label] <= p50]
        above = [label for label in ranked if medians[label] > p50]
        lines[root] = {
            "root": str(root),
            "seed": seed,
            "runs": len(timed[root]),
            "per_command_ms": {label: round(medians[label], 3) for label in ranked},
            "p50_ms": round(p50, 3),
            "p50_between": [below[-1] if below else None, above[0] if above else None],
            "import_cli_ms": round(statistics.median(ms for ms, _ in imported[root]), 3),
            "importtime_ms": {name: round(statistics.median(t[name] for _, t in imported[root]), 3)
                              for name in ("cdsreplica", "cdsreplica.cli")},
        }
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs=2, type=Path, metavar="ROOT", help="PARENT, then CHANGE")
    parser.add_argument("--seed", type=int, default=1, help="the cli-mix seed (default 1)")
    parser.add_argument("--rounds", type=int, default=3, help="passes over the configs")
    parser.add_argument("--imports", type=int, default=10, help="import probes per root")
    args = parser.parse_args()
    roots = [root.resolve() for root in args.roots]
    for line in probe(roots, args.seed, args.rounds, args.imports).values():
        print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
