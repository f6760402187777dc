"""Digest every benchmark output of one checkout, to show that a change moves none.

    python tests/same_outputs.py ROOT
    python tests/same_outputs.py PARENT CHANGE

ROOT is a checkout of this repository. Its `src` and `bench` directories go
first on sys.path, so the package and the benchmark's inputs are ROOT's own.
PARENT and CHANGE are each a checkout or a git revision of this repository, made
into a side as `tests/ab.py` makes its sides: a revision is exported with
`git archive` into a temporary directory.
The script prints one JSON line:
- the `workloads.digest` of the outputs of every `book-short` and `book-long`
  op of seeds 1-2, per workload, without their Monte Carlo result (`"mc"`),
  and apart from them the digest of those results (`book-long-mc`);
- the digest of the exit code, stdout and stderr of every `cli-mix` call of
  seeds 1-6, run in process through `cli.main`, once plain, once with
  `--pretty` and once with `--pretty --bp`: the calls without `--mc`, and
  apart from them those with it (`cli-mix-mc`);
- the digest of every `mc_check` result at MC_PATHS paths and MC_SEEDS seeds on
  the seed-1 `book-long` markets and the first 40 `book-short` markets, clause
  on, and clause off where the repo runs to maturity: path counts on both
  sides of a multiple of 4, and the lowest and highest Philox keys;
- the digest of `sorted(cdsreplica.__all__)`, the package's public names;
- the digest of the seed-1 book ops run again in memo order (`memo_order`): their
  stages interleaved across markets in a shuffled order, so that every memo both hits
  and misses, without and apart from their Monte Carlo results (`memo-order-mc`). It
  must equal the digest of the same ops run one by one, each followed by its evicting
  call on a market of its own, else the script prints its line and exits 1.
The same line for two checkouts means the same outputs and the same public names; a
change to the sampler alone moves only the `mc` digests.
Given two roots, the script digests each in its own interpreter, prints both lines
(PARENT's first), and exits 1 naming every digest that differs, or the root whose
memo-order digest differs from its in-order one.

It only reads `bench/` (the pools, the ops and their stages `price_request`, `_report`
and `_mc_check`, `_build_market`, `_repo`, `digest`, `cli_items`, `write_configs` and
`run_cli_in_process`); the configs go to a temporary directory, whose path is masked
in the outputs. A benchmark change that renames any of those helpers must update this
script.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from ab import side

BOOK_SEEDS = (1, 2)
CLI_SEEDS = range(1, 7)
CLI_FLAGS = ((), ("--pretty",), ("--pretty", "--bp"))
MC_PATHS = (1000, 1001, 1003, 99_999)
MC_SEEDS = (0, 2**128 - 1)
MEMO_ORDER_SEED = 24  # the shuffle of memo_order


def evict(spec, market):
    """The market's curves priced on the one-period schedule to its maturity: a call
    that replaces each curve's memo, its last grid, with a grid on that schedule."""
    import cdsreplica

    one_period = cdsreplica.Schedule(0.0, (spec.maturity,))
    return cdsreplica.par_cds_spread(market[0], market[1], one_period, spec.recovery)


def memo_order(ops: list) -> list[dict]:
    """The outputs of ops, (op, spec) pairs of the book workloads, with every stage of
    every op run in one shuffled order.

    An op's price request comes first and builds its market; its reports, its
    mc_check and its `evict` call follow in a shuffled order, interleaved with the
    other ops' stages. Each output is assembled in the op's own key order, with the
    evicting call's result last.
    """
    from tracing import NullTracer
    from workloads import _mc_check, _report, book_long_op, price_request

    t, rng = NullTracer(), random.Random(MEMO_ORDER_SEED)
    stages, markets, outputs = [], [], []
    for op, spec in ops:
        later = ["on", "evict", *(["mc"] if op is book_long_op else []),
                 *(["off"] if op is not book_long_op and spec.repo_maturity is None else [])]
        rng.shuffle(later)
        stages.append(["prices", *later])
        markets.append(None)
        outputs.append({})
    pending = [i for i, op_stages in enumerate(stages) for _ in op_stages]
    rng.shuffle(pending)  # the k-th turn of op i runs its k-th stage
    for i in pending:
        spec, stage, market = ops[i][1], stages[i].pop(0), markets[i]
        if stage == "prices":
            markets[i], outputs[i]["prices"] = price_request(spec, t)
        elif stage == "evict":
            outputs[i]["evict"] = evict(spec, market)
        elif stage == "mc":
            outputs[i]["mc"] = _mc_check(spec, market, t)
        else:
            outputs[i][stage] = _report(spec, market, stage == "on", t)
    order = ("prices", "on", "off", "mc", "evict")
    return [{key: out[key] for key in order if key in out} for out in outputs]


def main(root: Path) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import cdsreplica
    from tracing import NullTracer
    from workloads import (
        _build_market, _repo, book_long_op, book_short_op, cli_items, digest, long_markets,
        run_cli_in_process, short_markets, write_configs,
    )

    line, in_order = {}, []
    for name, markets, op in (("book-short", short_markets, book_short_op),
                              ("book-long", long_markets, book_long_op)):
        outs = [op(spec, NullTracer()) for seed in BOOK_SEEDS for spec in markets(seed)]
        line[name] = {"ops": len(outs), "digest": digest([digest(o) for o in without_mc(outs)])}
        if op is book_long_op:
            line[f"{name}-mc"] = {"checks": len(outs), "digest": digest([o["mc"] for o in outs])}
        in_order += [(op, spec) for spec in markets(1)]
    outputs, mc_outputs = [], []
    with tempfile.TemporaryDirectory() as directory:
        for seed in CLI_SEEDS:
            items = cli_items(seed)
            for item, path in zip(items, write_configs(items, Path(directory) / str(seed))):
                for flags in CLI_FLAGS:
                    call = replace(item, argv=(*flags, *item.argv))
                    (mc_outputs if "--mc" in item.argv else outputs).append(tuple(
                        o.replace(directory, "<dir>") if isinstance(o, str) else o
                        for o in run_cli_in_process(call, path)
                    ))
    line["cli-mix"] = {"calls": len(outputs), "digest": digest(outputs)}
    line["cli-mix-mc"] = {"calls": len(mc_outputs), "digest": digest(mc_outputs)}
    checks = []
    for spec in [*long_markets(1), *short_markets(1)[:40]]:
        market = _build_market(spec, NullTracer())
        for clause in (True, False) if spec.repo_maturity is None else (True,):
            checks += [cdsreplica.mc_check(*market, _repo(spec), clause, n, seed)
                       for n in MC_PATHS for seed in MC_SEEDS]
    line["mc-check"] = {"checks": len(checks), "digest": digest(checks)}
    names = sorted(cdsreplica.__all__)
    line["public-names"] = {"names": len(names), "digest": digest(names)}
    expected = [{**op(spec, NullTracer()), "evict": evict(spec, _build_market(spec, NullTracer()))}
                for op, spec in in_order]
    shuffled = memo_order(in_order)
    line["memo-order"] = {"ops": len(in_order),
                          "digest": digest([digest(out) for out in without_mc(shuffled)]),
                          "same-as-in-order": repr(shuffled) == repr(expected)}
    line["memo-order-mc"] = {"digest": digest([out["mc"] for out in shuffled if "mc" in out])}
    return line


def without_mc(outputs: list[dict]) -> list[dict]:
    """Each op's output without its Monte Carlo result, the other keys in their order."""
    return [{key: value for key, value in out.items() if key != "mc"} for out in outputs]


def compare(parent: Path, change: Path) -> list[str]:
    """Print each root's line, each from its own interpreter; return the names that differ."""
    lines, failed = [], []
    for root in (parent, change):
        run = subprocess.run([sys.executable, __file__, str(root)], capture_output=True, text=True)
        if not run.stdout:
            sys.exit(run.stderr)
        line = run.stdout.splitlines()[-1]
        print(line, flush=True)
        lines.append(json.loads(line))
        if run.returncode:
            failed.append(f"memo-order of {root}")
    differ = [name for name in {**lines[0], **lines[1]} if lines[0].get(name) != lines[1].get(name)]
    return differ + failed


if __name__ == "__main__":
    if len(sys.argv) == 2:
        line = main(Path(sys.argv[1]).resolve())
        print(json.dumps(line))
        if not line["memo-order"]["same-as-in-order"]:
            sys.exit("the memo-order digest differs from the in-order one")
    elif len(sys.argv) == 3:
        with tempfile.TemporaryDirectory() as directory:
            differ = compare(*(side(spec, Path(directory) / name)[0]
                               for spec, name in zip(sys.argv[1:], ("parent", "change"))))
        if differ:
            sys.exit(f"digests differ: {', '.join(differ)}")
    else:
        sys.exit(__doc__)
