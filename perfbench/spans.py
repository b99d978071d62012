"""In-memory spans for the traced run, and the per-layer figures drawn from them.

A span covers one call into the package, made from the benchmark's own code.
Each op has one ``op`` span whose children are the public calls the op makes.
Layers an op reaches only inside another call are timed by probe spans: calls
on the same inputs made after the op span has closed, so they share the op id
but have no parent. Spans stay in memory and are written once the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span; None at top level
    op: int | None       # op id; None for spans outside every op

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts; ``op`` is set by the runner before each op."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.op)

    def count(self, name: str, n: float) -> None:
        self.counts[name] += n

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


class NullTracer:
    """Stand-in for untimed layers: every span and count is a no-op."""

    enabled = False
    op = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: float) -> None:
        pass


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self seconds per span name: duration minus direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.seconds
    out: dict[str, float] = defaultdict(float)
    for span, covered in zip(spans, child):
        out[span.name] += span.seconds - covered
    return dict(out)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit), over the ``ops`` traced ops.

    Timings are mean seconds per call; counts are means per op or per solve.
    A layer the workload never reaches reads 0.
    """
    seconds = defaultdict(list)
    for span in tracer.spans:
        seconds[span.name].append(span.seconds)

    def mean(name: str) -> float:
        xs = seconds.get(name)
        return sum(xs) / len(xs) if xs else 0.0

    def total(name: str) -> float:
        return sum(seconds.get(name, ()))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    c = tracer.counts
    return {
        "scenario.sample_s": (mean("sample_scenario"), "s"),
        "scenario.validate_s": (mean("validate_scenario"), "s"),
        "kinetics.compute_s": (mean("scenario_kinetics"), "s"),
        "follower.evals": (ratio(c["follower.evals"], ops), "count"),
        "follower.eval_us": (ratio(total("best_response") * 1e6,
                                   c["follower.evals"]), "us"),
        "uniform.solve_s": (mean("solve_uniform"), "s"),
        "uniform.candidates": (ratio(c["uniform.candidates"], c["uniform.walks"]),
                               "count"),
        "uniform.visited": (ratio(c["uniform.visited"], c["uniform.walks"]),
                            "count"),
        "uniform.visit_ratio": (ratio(c["uniform.visited"],
                                      c["uniform.candidates"]), "ratio"),
        "differentiated.solve_s": (mean("solve_differentiated"), "s"),
        "differentiated.build_s": (mean("build_knapsack"), "s"),
        "differentiated.items_per_s": (ratio(c["differentiated.items"],
                                             total("solve_differentiated")), "1/s"),
        "differentiated.refused": (ratio(c["differentiated.refused"],
                                         c["differentiated.solves"]), "ratio"),
        "protocol.replay_s": (mean("run_bargaining"), "s"),
        "protocol.rounds": (ratio(c["protocol.rounds"], c["protocol.replays"]),
                            "count"),
        "protocol.messages": (ratio(c["protocol.messages"], c["protocol.replays"]),
                              "count"),
        "protocol.format_s": (mean("format_trace"), "s"),
        "protocol.trace_bytes": (ratio(c["protocol.trace_bytes"],
                                       c["protocol.replays"]), "bytes"),
        "protocol.audit_s": (mean("information_audit"), "s"),
        "bench.trial_uniform_s": (mean("run_trial:uniform"), "s"),
        "bench.trial_differentiated_s": (mean("run_trial:differentiated"), "s"),
        "bench.trial_local_only_s": (mean("run_trial:local_only"), "s"),
        "bench.csv_s": (ratio(total("write_csv"), c["bench.trials"]), "s"),
        "bench.csv_bytes": (ratio(c["bench.csv_bytes"], c["bench.trials"]),
                            "bytes"),
    }
