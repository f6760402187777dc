"""cdsreplica benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload book-short --seed 1 --seconds 30 --trace 0

Workloads (see bench/NOTES.md for why each exists):
  cli-mix     `python -m cdsreplica.cli` in a fresh interpreter per op
  book-short  in-process price requests and replication reports, N = 1-40
  book-long   in-process price request, report and Monte Carlo check, N = 120-360

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
records spans around every call into a layer and reports the per-layer
metrics instead. The metric names and units are those of BENCHMARK.json at
the root of the checkout. The last line of stdout is the JSON result; a
summary goes to stderr and the full record (provenance, failures, spans)
to .bench_out/. The package is imported from the checkout's src/ and the
run fails if it resolves anywhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "cdsreplica"
OUT = ROOT / ".bench_out"

CONDITIONS = (
    "warm page cache, CPU frequency not pinned, no CPU affinity set: "
    "machine settings are left as found"
)


def import_package() -> Path:
    """Import cdsreplica from this checkout's src/, and nowhere else."""
    if not (PACKAGE / "__init__.py").is_file():
        raise ImportError(f"no package source at {PACKAGE}")
    sys.path.insert(0, str(SRC))
    import cdsreplica

    located = Path(cdsreplica.__file__).resolve()
    if located.parent != PACKAGE.resolve():
        raise ImportError(f"cdsreplica resolved to {located}, outside {SRC}")
    return located


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (which could walk upward)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[name] = size
    return caches


def provenance(located: Path) -> dict:
    import numpy

    return {
        "package": str(located.parent),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": cpu_caches(),
        "machine": platform.machine(),
        "conditions": CONDITIONS,
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def summary(workload: str, trace: bool, declared: list[dict], values: dict, loop: dict) -> None:
    err = sys.stderr
    print(f"cdsreplica benchmark: workload {workload}, trace {int(trace)}, "
          f"{len(loop['latencies_ns'])} ops attempted, {loop['failed_ops']} failed", file=err)
    rows = [(m["name"], values[m["name"]], m["unit"]) for m in declared]
    if not trace:
        rows.insert(4, ("error_rate", values["error_rate"], "fraction"))
    for name, value, unit in rows:
        print(f"  {name:<48} {value:>14.6g} {unit}", file=err)
    for msg in loop["failures"][:10]:
        print(f"  FAILED {msg}", file=err)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli-mix", "book-short", "book-long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    try:
        located = import_package()
        declared = declared_metrics(trace)
    except (ImportError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import harness  # imports the package's modules, so only after the check above

    try:
        values, loop, spans = harness.run(args.workload, args.seed, args.seconds, trace, child_env())
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    attempted = len(loop["latencies_ns"])
    correct = loop["failed_ops"] == 0 and values.get("bench.bitwise_mismatches", 0) == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": loop["failed_ops"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(located), "result": result,
        "values": values, "ops_attempted": attempted, "ops_failed": loop["failed_ops"],
        "failures": loop["failures"][:100],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if trace:
        spans = {"fields": ["op_id", "span_id", "parent_id", "layer", "name", "start_ns", "end_ns"],
                 "spans": spans}
        Path(f"{stem}-spans.json").write_text(json.dumps(spans))
    summary(args.workload, trace, declared, values, loop)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
