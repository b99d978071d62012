"""Benchmark of the edgeprice package, measured from outside through its public API.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep_paper --seed 1 --seconds 60 --trace 0

One client, one thread, closed loop: the next op starts when the previous one
has been checked. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the same inputs traced and untraced and reports the per-layer metrics
and the tracing overhead. Human-readable lines come first; the last line of
standard output is one JSON object. A wrong answer exits nonzero without a
result. Run records and spans are written under ``perfbench/out/``.

No CPU pinning, cache dropping or other machine setting is used or changed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from spans import NullTracer, Tracer, layer_metrics, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# setup_s is the median of fresh processes timed this many times before the
# loop and as many after it, so one slow stretch of the machine weighs less.
SETUP_SAMPLES_EACH_SIDE = 2
CHILD_TIMEOUT_S = 120
MACHINE_SETTINGS = ("none: no CPU pinning, cache dropping or other machine "
                    "setting was used or changed")


@dataclass
class Phase:
    """What one timed loop saw: per-op latency (None if refused) and LP gap."""

    latencies: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    inputs: list = field(default_factory=list)
    busy_s: float = 0.0
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def answered(self) -> int:
        return sum(x is not None for x in self.latencies)

    def ops_per_s(self) -> float:
        return self.answered / self.busy_s

    def percentile_ms(self, pct: float, per_size: bool = False
                      ) -> tuple[float, int]:
        """Nearest-rank percentile of op latency, and the count beyond it.

        A refused op ranks slower than every answered one; a percentile that
        lands on a refusal reads as the loop's whole wall time, since that op
        was never answered within the run. With ``per_size`` the percentile
        is taken among the ops of each problem size and the sizes are
        combined by geometric mean, so every op counts, not only those of
        the size the pooled percentile lands on.
        """
        if not per_size:
            return nearest_rank(self.latencies, pct, self.wall_s)
        by_size: dict[int, list] = {}
        for inp, latency in zip(self.inputs, self.latencies):
            by_size.setdefault(inp.config.num_users, []).append(latency)
        ranked = [nearest_rank(lat, pct, self.wall_s) for lat in by_size.values()]
        return (math.exp(statistics.fmean(math.log(v) for v, _ in ranked)),
                sum(beyond for _, beyond in ranked))


def nearest_rank(latencies: list, pct: float, wall_s: float) -> tuple[float, int]:
    """Nearest-rank percentile in ms of ``latencies`` (None for a refused op)
    and the number of ops beyond it."""
    answered = sorted(x for x in latencies if x is not None)
    rank = max(1, math.ceil(pct / 100.0 * len(latencies)))
    value = answered[rank - 1] if rank <= len(answered) else wall_s
    return value * 1e3, len(latencies) - rank


def require_source() -> None:
    if not (SRC / "edgeprice" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'edgeprice'}; run "
                 f"from the root of an edgeprice checkout")


def load_source():
    """Imports the workloads against the checkout's own ``src``."""
    require_source()
    sys.path.insert(0, str(SRC))
    import edgeprice
    import workloads
    if Path(edgeprice.__file__).resolve().parent != SRC / "edgeprice":
        sys.exit(f"perfbench: imported edgeprice from {edgeprice.__file__}, "
                 f"not from {SRC}")
    return workloads


def timed_op(workload, inp, tracer) -> tuple[float, bool, float]:
    """Runs and checks one op: its seconds, whether it was refused, its LP gap.

    The op's output is freed on return, so it does not add to the next op's
    peak memory.
    """
    t0 = perf_counter()
    with tracer.span("op"):
        done = workload.op(inp, tracer)
    seconds = perf_counter() - t0
    return seconds, bool(done.refused), workload.check(done, tracer)


def run_phase(workload, inputs, tracer, *, seconds: float | None = None,
              count: int | None = None) -> Phase:
    """Closed loop over ``inputs`` until ``seconds`` have passed or ``count``
    ops are done; always at least one op."""
    phase = Phase()
    start = perf_counter()
    for i, inp in enumerate(inputs):
        if i and (i == count or (seconds is not None
                                 and perf_counter() - start >= seconds)):
            break
        tracer.op = i
        op_s, refused, gap = timed_op(workload, inp, tracer)
        phase.gaps.append(gap)
        phase.latencies.append(None if refused else op_s)
        phase.busy_s += op_s
        phase.inputs.append(inp)
    tracer.op = None
    workload.finish(tracer)
    phase.wall_s = perf_counter() - start
    return phase


def warm_up(wl_module, name: str, seed: int) -> None:
    workload = wl_module.WORKLOADS[name](str(OUT))
    for inp in workload.warmup(random.Random(f"{name}/warmup/{seed}")):
        workload.op(inp, NullTracer())


def setup_child(name: str, seed: int) -> None:
    """Times import plus warm-up in this fresh process; prints the seconds."""
    t0 = perf_counter()
    wl_module = load_source()
    warm_up(wl_module, name, seed)
    print(json.dumps({"setup_s": perf_counter() - t0}))


def measure_setup(name: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES_EACH_SIDE):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"perfbench: setup process failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((SRC / "edgeprice").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def metadata(args) -> dict:
    import numpy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine_settings": MACHINE_SETTINGS,
    }


def end_to_end(workload, phase: Phase, setup: list[float]) -> dict:
    p50, _ = phase.percentile_ms(50.0, workload.per_size_percentiles)
    tail, _ = phase.percentile_ms(workload.tail_pct,
                                  workload.per_size_percentiles)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (phase.ops_per_s(), "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "answered_ratio": (phase.answered / phase.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "lp_gap": (statistics.fmean(phase.gaps), "ratio"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_paper", "period_large", "peruser_scale"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0

    require_source()
    compileall.compile_dir(str(SRC), quiet=1)
    OUT.mkdir(parents=True, exist_ok=True)
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    wl_module = load_source()
    warm_up(wl_module, args.workload, args.seed)

    make = wl_module.WORKLOADS[args.workload]
    workload = make(str(OUT))
    inputs = workload.inputs(random.Random(f"{args.workload}/{args.seed}"))
    record = {"meta": metadata(args)}
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            tracer = Tracer()
            traced = run_phase(workload, inputs, tracer, seconds=args.seconds / 2)
            plain = run_phase(make(str(OUT)), iter(traced.inputs), NullTracer(),
                              count=traced.attempted)
            metrics = layer_metrics(tracer, traced.attempted)
            overhead = traced.ops_per_s() - plain.ops_per_s()
            metrics["trace.overhead_ops_per_s"] = (overhead, "1/s")
            phase = traced
            record["self_s"] = self_times(tracer.spans)
            record["ops_per_s"] = {"traced": traced.ops_per_s(),
                                   "untraced": plain.ops_per_s()}
            tracer.write(str(stem) + ".spans.jsonl")
        else:
            phase = run_phase(workload, inputs, NullTracer(), seconds=args.seconds)
            setup += measure_setup(args.workload, args.seed)
            metrics = end_to_end(workload, phase, setup)
            record["setup_samples_s"] = setup
    except wl_module.CheckFailed as exc:
        print(f"perfbench: wrong answer on {args.workload}: {exc}", file=sys.stderr)
        return 1

    result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["metrics"] = result
    record["attempted"] = phase.attempted
    record["op_sizes"] = [inp.config.num_users for inp in phase.inputs]
    record["op_latencies_s"] = phase.latencies
    record["refused"] = phase.attempted - phase.answered
    with open(str(stem) + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for key, value in record["meta"].items():
        print(f"# {key}: {value}")
    print(f"# ops attempted {phase.attempted}, refused "
          f"{record['refused']} (fail_ratio "
          f"{record['refused'] / phase.attempted:.4f})")
    if args.trace:
        print(f"# ops_per_s traced {record['ops_per_s']['traced']:.6g}, "
              f"untraced {record['ops_per_s']['untraced']:.6g}")
        for name, secs in sorted(record["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"# self time {name}: {secs:.6f} s")
    else:
        _, beyond = phase.percentile_ms(workload.tail_pct,
                                        workload.per_size_percentiles)
        where = (f"each size's ops, geometric mean over sizes"
                 if workload.per_size_percentiles else f"{phase.attempted} ops")
        print(f"# op_tail_ms is p{workload.tail_pct:g} of {where}, "
              f"{beyond} beyond it" + ("" if beyond >= 10 else
                                       " (fewer than 10: read it as a bound)"))
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(json.dumps({"correct": True, "attempted": phase.attempted, "failed": 0,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
