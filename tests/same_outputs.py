"""Digest every benchmark output of one checkout, to show that a change moves none.

    python tests/same_outputs.py ROOT

ROOT is a checkout of this repository. Its `src` and `bench` directories go
first on sys.path, so the package and the benchmark's inputs are ROOT's own.
The script prints one JSON line:
- the `workloads.digest` of the outputs of every `book-short` and `book-long`
  op of seeds 1-2, per workload;
- the digest of the exit code, stdout and stderr of every `cli-mix` call of
  seeds 1-6, run in process through `cli.main`, once plain, once with
  `--pretty` and once with `--pretty --bp`;
- the digest of `sorted(cdsreplica.__all__)`, the package's public names.
Run it on two checkouts: the same line means the same outputs and the same
public names.

It only reads `bench/` (the pools, the ops, `digest`, `cli_items`,
`write_configs` and `run_cli_in_process`); the configs go to a temporary
directory, whose path is masked in the outputs. A benchmark change that renames
any of those helpers must update this script.
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

BOOK_SEEDS = (1, 2)
CLI_SEEDS = range(1, 7)
CLI_FLAGS = ((), ("--pretty",), ("--pretty", "--bp"))


def main(root: Path) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import cdsreplica
    from tracing import NullTracer
    from workloads import (
        book_long_op, book_short_op, cli_items, digest, long_markets, run_cli_in_process,
        short_markets, write_configs,
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
    names = sorted(cdsreplica.__all__)
    line["public-names"] = {"names": len(names), "digest": digest(names)}
    return line


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(json.dumps(main(Path(sys.argv[1]).resolve())))
