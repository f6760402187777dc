"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (op_id, span_id, parent_id, layer, name, start_ns, end_ns); the spans
of one op share its op_id, and a root span has parent_id -1. A span's self
time is its duration minus the durations of its direct children. Spans are
kept in a list until the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("schedule", "curves", "pricers", "replication", "cli", "bench")


class NullTracer:
    """Untraced runs: every call goes straight through."""

    enabled = False

    def op(self, op_id: int, fn, *args):
        return fn(*args)

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, amount: float) -> None:
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op_id = -1

    def op(self, op_id: int, fn, *args):
        """Run one op as a root span of layer `bench`."""
        self._op_id = op_id
        return self.call("bench", "op", fn, *args)

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)  # reserve the id; filled in when the call returns
        self._stack.append(span_id)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = (self._op_id, span_id, parent, layer, name, start, end)

    def count(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    # -- analysis -------------------------------------------------------------

    def _of(self, ops: set[int]):
        return (s for s in self.spans if s[0] in ops)

    def durations(self, name: str, ops: set[int]) -> list[int]:
        return [s[6] - s[5] for s in self._of(ops) if s[4] == name]

    def per_op_durations(self, names: tuple[str, ...], ops: set[int]) -> dict[int, dict[str, int]]:
        """Per op, the summed duration of each named span."""
        out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for s in self._of(ops):
            if s[4] in names:
                out[s[0]][s[4]] += s[6] - s[5]
        return out

    def per_op_inclusive(self, layer: str, ops: set[int]) -> dict[int, int]:
        """Per op, the time inside spans of `layer` entered from another layer."""
        out: dict[int, int] = defaultdict(int)
        for s in self._of(ops):
            if s[3] == layer and s[2] >= 0 and self.spans[s[2]][3] != layer:
                out[s[0]] += s[6] - s[5]
        return out

    def shares(self, ops: set[int]) -> dict[str, float]:
        """Each layer's self time over the summed duration of the ops' root spans."""
        child_time: dict[int, int] = defaultdict(int)
        totals = dict.fromkeys(LAYERS, 0)
        root_time = 0
        for s in self._of(ops):
            if s[2] < 0:
                root_time += s[6] - s[5]
            else:
                child_time[s[2]] += s[6] - s[5]
        for s in self._of(ops):
            totals[s[3]] += s[6] - s[5] - child_time[s[1]]
        return {layer: t / root_time for layer, t in totals.items()}
