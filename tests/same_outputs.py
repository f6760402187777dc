"""Digest every benchmark output of one checkout, to show that a change moves none.

    python tests/same_outputs.py ROOT
    python tests/same_outputs.py PARENT CHANGE

ROOT is a checkout of this repository. Its `src` and `bench` directories go
first on sys.path, so the package and the benchmark's inputs are ROOT's own.
The script prints one JSON line:
- the `workloads.digest` of the outputs of every `book-short` and `book-long`
  op of seeds 1-2, per workload;
- the digest of the exit code, stdout and stderr of every `cli-mix` call of
  seeds 1-6, run in process through `cli.main`, once plain, once with
  `--pretty` and once with `--pretty --bp`;
- the digest of every `mc_check` result at MC_PATHS paths and MC_SEEDS seeds on
  the seed-1 `book-long` markets and the first 40 `book-short` markets, clause
  on, and clause off where the repo runs to maturity: path counts on both
  sides of a multiple of 4, and the lowest and highest Philox keys;
- the digest of `sorted(cdsreplica.__all__)`, the package's public names.
The same line for two checkouts means the same outputs and the same public names.
Given two roots, the script digests each in its own interpreter, prints both lines
(PARENT's first), and exits 1 naming every digest that differs.

It only reads `bench/` (the pools, the ops, `_build_market`, `_repo`, `digest`,
`cli_items`, `write_configs` and `run_cli_in_process`); the configs go to a temporary
directory, whose path is masked in the outputs. A benchmark change that renames
any of those helpers must update this script.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

BOOK_SEEDS = (1, 2)
CLI_SEEDS = range(1, 7)
CLI_FLAGS = ((), ("--pretty",), ("--pretty", "--bp"))
MC_PATHS = (1000, 1001, 1003, 99_999)
MC_SEEDS = (0, 2**128 - 1)


def main(root: Path) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import cdsreplica
    from tracing import NullTracer
    from workloads import (
        _build_market, _repo, book_long_op, book_short_op, cli_items, digest, long_markets,
        run_cli_in_process, short_markets, write_configs,
    )

    line = {}
    for name, markets, op in (("book-short", short_markets, book_short_op),
                              ("book-long", long_markets, book_long_op)):
        digests = [digest(op(spec, NullTracer())) for seed in BOOK_SEEDS for spec in markets(seed)]
        line[name] = {"ops": len(digests), "digest": digest(digests)}
    outputs = []
    with tempfile.TemporaryDirectory() as directory:
        for seed in CLI_SEEDS:
            items = cli_items(seed)
            for item, path in zip(items, write_configs(items, Path(directory) / str(seed))):
                for flags in CLI_FLAGS:
                    call = replace(item, argv=(*flags, *item.argv))
                    outputs.append(tuple(
                        o.replace(directory, "<dir>") if isinstance(o, str) else o
                        for o in run_cli_in_process(call, path)
                    ))
    line["cli-mix"] = {"calls": len(outputs), "digest": digest(outputs)}
    checks = []
    for spec in [*long_markets(1), *short_markets(1)[:40]]:
        market = _build_market(spec, NullTracer())
        for clause in (True, False) if spec.repo_maturity is None else (True,):
            checks += [cdsreplica.mc_check(*market, _repo(spec), clause, n, seed)
                       for n in MC_PATHS for seed in MC_SEEDS]
    line["mc-check"] = {"checks": len(checks), "digest": digest(checks)}
    names = sorted(cdsreplica.__all__)
    line["public-names"] = {"names": len(names), "digest": digest(names)}
    return line


def compare(parent: Path, change: Path) -> list[str]:
    """Print each root's line, each from its own interpreter; return the names that differ."""
    lines = []
    for root in (parent, change):
        line = subprocess.run([sys.executable, __file__, str(root)], check=True,
                              capture_output=True, text=True).stdout.splitlines()[-1]
        print(line, flush=True)
        lines.append(json.loads(line))
    return [name for name in {**lines[0], **lines[1]} if lines[0].get(name) != lines[1].get(name)]


if __name__ == "__main__":
    roots = [Path(arg).resolve() for arg in sys.argv[1:]]
    if len(roots) == 1:
        print(json.dumps(main(roots[0])))
    elif len(roots) == 2:
        differ = compare(*roots)
        if differ:
            sys.exit(f"digests differ: {', '.join(differ)}")
    else:
        sys.exit(__doc__)
