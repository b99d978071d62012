"""Command-line front end: solve one scenario, sweep, trace, or verify."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .bench import (SCHEMES, SOLVERS, load_sweep_spec, run_sweep, run_trial,
                    write_csv)
from .protocol import _trace_lines, run_bargaining, write_trace
from .scenario import ScenarioConfig, load_scenario_config, sample_scenario
from .text import SHOWN, format_rows
from .verify import run_verify

_USER_LINE = ("user %d: price={0} offload=%d bits={0} latency_s={0} "
              "payment_s={0} cost_s={0}\n").format(SHOWN)


def _scenario_config(args) -> ScenarioConfig:
    config = load_scenario_config(args.config) if args.config else ScenarioConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _cmd_run(args) -> int:
    config = _scenario_config(args)
    scenario = sample_scenario(config)
    print(f"scheme={args.scheme}")
    print(f"num_users={scenario.system.num_users}")
    print(f"capacity_cycles={SHOWN % scenario.system.cloud_capacity_cycles}")
    if args.scheme == "local_only":
        result = run_trial(scenario, args.scheme)
        print(f"avg_latency_s={SHOWN % result.avg_latency_s}")
        print(f"revenue_s={SHOWN % result.revenue_s}")
        return 0
    outcome = SOLVERS[args.scheme](scenario)
    if args.scheme == "uniform":
        print(f"price_s_per_cycle={SHOWN % outcome.prices[0]}")
    print(f"feasible={outcome.feasible}")
    print(f"total_load_cycles={SHOWN % outcome.total_load_cycles}")
    print(f"revenue_s={SHOWN % outcome.revenue_s}")
    sys.stdout.writelines(format_rows(_USER_LINE, (
        np.arange(len(outcome.prices)), np.asarray(outcome.prices),
        outcome.decisions.offload, outcome.decisions.offloaded_bits,
        outcome.decisions.latency_s, outcome.decisions.payment_s,
        outcome.decisions.cost_s)))
    return 0


def _cmd_sweep(args) -> int:
    spec = load_sweep_spec(args.config)   # one replace: one check of the result
    base = spec.base if args.seed is None else replace(spec.base, seed=args.seed)
    trials = spec.trials if args.trials is None else args.trials
    spec = replace(spec, base=base, trials=trials)
    results = run_sweep(spec)
    write_csv(results, args.out)
    print(f"wrote {len(results)} rows to {args.out}")
    return 0


def _cmd_trace(args) -> int:
    config = _scenario_config(args)
    scenario = sample_scenario(config)
    trace = run_bargaining(scenario)
    if args.out:
        write_trace(trace, args.out)
        # a broadcast and one report per user each round, then the terminate
        messages = len(trace.rounds) * (1 + len(scenario.users)) + 1
        print(f"wrote {messages} messages to {args.out}")
    else:
        sys.stdout.writelines(_trace_lines(trace))
    return 0


def _cmd_verify(args) -> int:
    results = run_verify(seed=args.seed, trials=args.trials)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeprice",
        description="Price-based computation offloading for a capacity-limited "
                    "edge cloud")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="solve one sampled scenario")
    run_p.add_argument("--config", help="scenario config file")
    run_p.add_argument("--seed", type=int, help="override the config seed")
    run_p.add_argument("--scheme", choices=SCHEMES, default="uniform")
    run_p.set_defaults(handler=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="Monte Carlo sweep to CSV")
    sweep_p.add_argument("--config", required=True, help="sweep spec file")
    sweep_p.add_argument("--out", required=True, help="CSV output path")
    sweep_p.add_argument("--seed", type=int, help="override the base seed")
    sweep_p.add_argument("--trials", type=int, help="override trials per point")
    sweep_p.set_defaults(handler=_cmd_sweep)

    trace_p = sub.add_parser("trace", help="run the bargaining protocol and "
                                           "write its message log")
    trace_p.add_argument("--config", help="scenario config file")
    trace_p.add_argument("--seed", type=int, help="override the config seed")
    trace_p.add_argument("--out", help="log path (stdout when omitted)")
    trace_p.set_defaults(handler=_cmd_trace)

    verify_p = sub.add_parser("verify", help="run the oracle/property checks")
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--trials", type=int,
                          help="instances per check (defaults per check)")
    verify_p.set_defaults(handler=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()   # a reader gone early shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout, as ``| head`` does: no more output, and
        # none of the exit's flush either (the Python docs' SIGPIPE note)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
