"""Workloads, set-up, the closed loop, and the metrics computed from them."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, perf_counter_ns

from probes import cli_main, cli_startup, n_sweep
from tracing import NullTracer, Tracer
from workloads import (
    book_long_op, book_short_op, check_book, check_cli, cli_items, cli_op, digest,
    long_markets, probe_op, short_markets, traced_cli, write_configs,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "cdsreplica"
OUT = ROOT / ".bench_out"

SETUP_REPS = 5  # setup_s is the median of this many set-ups
OVERHEAD_SHARE = 0.25  # untraced re-run of a traced run's ops, as a share of --seconds
PROBE_MARKETS = 3


class BenchError(Exception):
    pass


def check_child_import(env: dict) -> None:
    """A fresh interpreter with the benchmark's environment must find the same package."""
    proc = subprocess.run(
        [sys.executable, "-c", "import cdsreplica.cli, cdsreplica; print(cdsreplica.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    located = Path(proc.stdout.strip()).resolve() if proc.returncode == 0 else None
    if located is None or located.parent != PACKAGE.resolve():
        raise BenchError(f"a child interpreter imported cdsreplica from {located}: {proc.stderr[-300:]}")


# -- workloads --------------------------------------------------------------------


class Book:
    """In-process ops over a pool of generated markets; RSS is the process's own."""

    rusage = resource.RUSAGE_SELF

    def __init__(self, generate, op):
        self.generate = generate
        self.run = op

    def setup(self, seed: int) -> list:
        pool = self.generate(seed)
        self.run(min(pool, key=lambda spec: spec.periods), NullTracer())
        return pool

    def check(self, entry, out) -> list[str]:
        return check_book(entry, out)

    def digest(self, out) -> str:
        return digest(out)

    def spec(self, entry):
        return entry

    def traced(self, tracer):
        return nullcontext()

    def close(self) -> None:
        pass


class CliMix:
    """One CLI command per op, in a fresh interpreter; RSS is the largest child's."""

    rusage = resource.RUSAGE_CHILDREN

    def __init__(self, env: dict):
        self.env = env
        self.directory = OUT / f"cli-{os.getpid()}"

    def setup(self, seed: int) -> list:
        items = cli_items(seed)
        return list(zip(items, write_configs(items, self.directory)))

    def run(self, entry, t):
        return cli_op(entry, t, self.env, ROOT)

    def check(self, entry, out) -> list[str]:
        return check_cli(entry, out)

    def digest(self, out) -> str:
        return digest(out[0])

    def spec(self, entry):
        return entry[0].spec

    def traced(self, tracer):
        return traced_cli(tracer)

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


def make_workload(name: str, env: dict):
    if name == "cli-mix":
        return CliMix(env)
    if name == "book-short":
        return Book(short_markets, book_short_op)
    return Book(long_markets, book_long_op)


# -- measurement ------------------------------------------------------------------


def setup(workload, seed: int, env: dict):
    """Fresh-interpreter import, input generation and warm-up; median of SETUP_REPS."""
    times = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        check_child_import(env)
        pool = workload.setup(seed)
        times.append(perf_counter() - start)
    return statistics.median(times), pool


def closed_loop(workload, pool: list, tracer, seconds: float) -> dict:
    """One client: each op starts when the previous one has been checked."""
    latencies, digests, failures = [], [], []
    failed_ops = 0
    start = perf_counter()
    i = 0
    while True:
        entry = pool[i % len(pool)]
        t0 = perf_counter_ns()
        try:
            out = tracer.op(i, workload.run, entry, tracer)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            latencies.append(perf_counter_ns() - t0)
            digests.append(None)
            failed = [repr(exc)]
        else:
            latencies.append(perf_counter_ns() - t0)
            digests.append(workload.digest(out))
            failed = workload.check(entry, out)
        failed_ops += bool(failed)
        failures.extend(f"op {i}: {msg}" for msg in failed)
        i += 1
        if perf_counter() - start >= seconds:
            break
    return {
        "latencies_ns": latencies,
        "digests": digests,
        "failed_ops": failed_ops,
        "failures": failures,
        "wall_s": perf_counter() - start,
    }


def run(name: str, seed: int, seconds: float, trace: bool, env: dict):
    """Set up, run the closed loop, and measure: (metric values, loop record, spans)."""
    workload = make_workload(name, env)
    try:
        setup_s, pool = setup(workload, seed, env)
        tracer = Tracer() if trace else NullTracer()
        with workload.traced(tracer):
            loop = closed_loop(workload, pool, tracer, seconds)
        values = end_to_end(loop, setup_s, workload.rusage)
        if trace:
            values.update(per_layer(workload, pool, tracer, loop, seconds, env))
    finally:
        workload.close()
    return values, loop, tracer.spans if trace else None


def end_to_end(loop: dict, setup_s: float, rusage: int) -> dict:
    lat_ms = [ns / 1e6 for ns in loop["latencies_ns"]]
    ops = len(lat_ms)
    return {
        "setup_s": setup_s,
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_p90": statistics.quantiles(lat_ms, n=10)[8] if ops > 1 else lat_ms[0],
        "throughput_ops_s": ops / loop["wall_s"],
        "error_rate": loop["failed_ops"] / ops,
        "peak_rss_mb": resource.getrusage(rusage).ru_maxrss / 1024.0,
    }


def untraced_rerun(workload, pool: list, loop: dict, seconds: float) -> tuple[int, int, float]:
    """Re-run the traced loop's first ops: (ops, bitwise mismatches, tracing overhead).

    Each op runs twice back to back, traced into a scratch tracer and untraced,
    alternating which goes first, so that drift in machine speed cancels. The
    untraced output must equal the traced loop's output bit for bit.
    """
    scratch = Tracer()
    timed = {True: 0, False: 0}
    mismatches = n = 0
    start = perf_counter()
    with workload.traced(scratch):
        for i, traced_digest in enumerate(loop["digests"]):
            entry = pool[i % len(pool)]
            for traced in (i % 2 == 0, i % 2 == 1):
                t0 = perf_counter_ns()
                if traced:
                    scratch.op(i, workload.run, entry, scratch)
                else:
                    out = workload.run(entry, NullTracer())
                timed[traced] += perf_counter_ns() - t0
            mismatches += workload.digest(out) != traced_digest
            n += 1
            if perf_counter() - start >= seconds:
                break
    return n, mismatches, timed[True] / timed[False] - 1.0


def per_layer(workload, pool: list, tracer, loop: dict, seconds: float, env: dict) -> dict:
    ops = set(range(len(loop["latencies_ns"])))
    counts = dict(tracer.counts)
    values = {f"{layer}.share": share for layer, share in tracer.shares(ops).items()}

    timed = {
        "schedule.build_schedule_us": ("schedule.build_schedule", 1e3),
        "curves.build_us": ("curves.build", 1e3),
        "curves.calibrate_ms": ("curves.calibrate", 1e6),
        "replication.report_ms": ("replication.report", 1e6),
        "replication.mc_check_ms": ("replication.mc_check", 1e6),
    }

    def layer_metrics(op_ids: set[int]) -> dict:
        got = {}
        for metric, (span, scale) in timed.items():
            durations = tracer.durations(span, op_ids)
            if durations:
                got[metric] = statistics.median(durations) / scale
        pricing = [ns for ns in tracer.per_op_inclusive("pricers", op_ids).values() if ns]
        if pricing:
            got["pricers.price_request_ms"] = statistics.median(pricing) / 1e6
        by_op = tracer.per_op_durations(("replication.report", "replication.mc_check"), op_ids)
        sampling = [d["replication.mc_check"] - d["replication.report"]
                    for d in by_op.values() if len(d) == 2]
        if sampling:
            got["replication.mc_sampling_ms"] = statistics.median(sampling) / 1e6
        return got

    values.update(layer_metrics(ops))
    missing = set(timed) | {"pricers.price_request_ms", "replication.mc_sampling_ms"}
    if missing - values.keys():
        # Calls this workload's ops never make (book-long never calibrates, book-short
        # never samples): time them on the workload's own first markets instead.
        first = len(loop["latencies_ns"])
        probe_ids = set(range(first, first + PROBE_MARKETS))
        for op_id in probe_ids:
            tracer.op(op_id, probe_op, workload.spec(pool[(op_id - first) % len(pool)]), tracer)
        for metric, value in layer_metrics(probe_ids).items():
            values.setdefault(metric, value)

    n_ops = len(ops)
    values["replication.scenarios"] = counts.get("replication.scenarios", 0.0) / n_ops
    values["replication.ledger_entries_computed"] = (
        counts.get("replication.ledger_entries_computed", 0.0) / n_ops
    )
    rerun_ops, mismatches, overhead = untraced_rerun(workload, pool, loop, OVERHEAD_SHARE * seconds)
    values["bench.trace_overhead"] = overhead
    values["bench.rerun_ops"] = rerun_ops
    values["bench.bitwise_mismatches"] = mismatches

    probe_dir = OUT / f"probe-{os.getpid()}"
    try:
        values.update(cli_startup(env, ROOT))
        values.update(cli_main(probe_dir))
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    values.update(n_sweep())
    return values


