"""The three workloads: inputs drawn from the seed, the op, and its output checks.

Every op is a sequence of calls into the public ``edgeprice`` API on a
``ScenarioConfig`` the benchmark generated. A ``ValueError`` from a solver is
the package refusing the input (``TableBudgetExceeded`` is one); it is
counted, not treated as an error. A wrong answer raises ``CheckFailed``.

Problem sizes follow a log-uniform range through a fixed grid: the centres
of equal slices of log K, visited in seed-shuffled cycles. Every run covers
the whole range and two seeds see the same size mix, while the seed still
draws each scenario. The grid has an odd number of points. A pooled
percentile sits inside one point's share of the ops, so a run's length does
not move it from one problem size to the next; ``period_large``, which fits
few ops per size, takes its percentiles per size instead.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, fields
from typing import Iterator

from edgeprice import (SCHEMES, PriceOutcome, Scenario, ScenarioConfig,
                       best_response, build_knapsack, candidate_prices,
                       format_trace, information_audit, read_csv,
                       run_bargaining, run_trial, sample_scenario,
                       scenario_kinetics, solve_differentiated, solve_uniform,
                       validate_scenario, write_csv)

CAPACITY_PER_USER = 2e8   # the default 6e9 cycles shared by 30 users
REL_TOL = 1e-9            # float slack when comparing revenue with the LP bound


class CheckFailed(Exception):
    """The program returned a wrong answer."""


@dataclass(frozen=True)
class OpInput:
    config: ScenarioConfig
    sweep_param: str = "none"
    sweep_value: float = 0.0


@dataclass
class Done:
    scenario: Scenario
    value: object = None
    refused: str | None = None


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def log_grid_cycles(rng: random.Random, lo: int, hi: int,
                    points: int) -> Iterator[int]:
    """Endless seed-shuffled cycles over the sizes at the centres of
    ``points`` equal slices of [log lo, log hi]."""
    a, b = math.log(lo), math.log(hi)
    grid = [round(math.exp(a + (b - a) * (i + 0.5) / points))
            for i in range(points)]
    while True:
        rng.shuffle(grid)
        yield from grid


def seeded_config(rng: random.Random, num_users: int,
                  capacity: float) -> ScenarioConfig:
    return ScenarioConfig(num_users=num_users, capacity_cycles=capacity,
                          seed=rng.getrandbits(63))


def lp_bound(scenario: Scenario, kin_all) -> float:
    """Dantzig's fractional-knapsack bound on any pricing's revenue.

    Item weight is balance_bits * cycles_per_bit, value weight / local_cpu_cps;
    items are taken by falling value density until the capacity is full, the
    last one fractionally.
    """
    items = sorted(((1.0 / u.local_cpu_cps, k.balance_bits * u.cycles_per_bit,
                     u.local_cpu_cps) for k, u in zip(kin_all, scenario.users)),
                   reverse=True)
    room = scenario.system.cloud_capacity_cycles
    bound = 0.0
    for _, weight, cpu in items:
        if weight <= room:
            bound += weight / cpu
            room -= weight
        else:
            bound += room / cpu
            break
    return bound


def revenue_gap(revenue: float, bound: float, what: str) -> float:
    require(0.0 <= revenue <= bound * (1 + REL_TOL),
            f"{what}: revenue {revenue!r} outside [0, LP bound {bound!r}]")
    return (bound - revenue) / bound


def check_load(outcome: PriceOutcome, scenario: Scenario, what: str) -> None:
    capacity = scenario.system.cloud_capacity_cycles
    require(outcome.total_load_cycles <= capacity,
            f"{what}: load {outcome.total_load_cycles!r} exceeds capacity "
            f"{capacity!r}")


def validated_kinetics(scenario: Scenario, tr):
    """Checks the scenario and returns its kinetics; both are layer probes."""
    with tr.span("validate_scenario"):
        problems = validate_scenario(scenario)
    require(not problems, f"sampled scenario is invalid: {problems[:3]}")
    with tr.span("scenario_kinetics"):
        return scenario_kinetics(scenario)


def follower_walk(scenario: Scenario, kin_all, tr) -> int:
    """Probe: every user's best response at each candidate the uniform walk
    visits, from the top price down to the first one over capacity."""
    users = scenario.users
    capacity = scenario.system.cloud_capacity_cycles
    candidates = candidate_prices(scenario)
    visited = 0
    for price in reversed(candidates):
        visited += 1
        with tr.span("best_response"):
            decisions = [best_response(k, u, price, user_index=i)
                         for i, (k, u) in enumerate(zip(kin_all, users))]
        load = math.fsum(d.offloaded_bits * u.cycles_per_bit
                         for d, u in zip(decisions, users))
        if load > capacity:
            break
    tr.count("uniform.walks", 1)
    tr.count("uniform.candidates", len(candidates))
    tr.count("uniform.visited", visited)
    tr.count("follower.evals", visited * len(users))
    return visited


def build_probe(scenario: Scenario, kin_all, tr) -> None:
    with tr.span("build_knapsack"):
        build_knapsack(scenario, kin_all)


class Workload:
    """One op kind: its inputs, the op itself, and the checks on its output."""

    # Take latency percentiles per problem size, then combine the sizes.
    per_size_percentiles = False

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir

    def finish(self, tr) -> None:
        """Runs once after the loop."""


class SweepPaper(Workload):
    """One Monte Carlo trial of the paper's scheme comparison.

    Why: this is what reproducing the paper's figures runs. Problems are
    tiny, so fixed per-call overhead dominates, along with the small-K
    knapsack paths (subset enumeration to K = 20, the DP beyond).
    """

    name = "sweep_paper"
    tail_pct = 99.0
    users_points = (10, 20, 30, 40, 50)            # at 6e9 cycles
    capacity_points = (2e9, 4e9, 6e9, 8e9, 10e9, 12e9)   # at K = 30

    def __init__(self, out_dir: str) -> None:
        super().__init__(out_dir)
        self.results = []
        self.csv_path = os.path.join(out_dir, f"{self.name}.csv")

    def inputs(self, rng: random.Random) -> Iterator[OpInput]:
        """Trials alternate between the user-count and the capacity sweep."""
        users = list(self.users_points)
        caps = list(self.capacity_points)
        while True:
            rng.shuffle(users)
            rng.shuffle(caps)
            for i in range(max(len(users), len(caps))):
                if i < len(users):
                    yield OpInput(seeded_config(rng, users[i], 6e9),
                                  "num_users", float(users[i]))
                if i < len(caps):
                    yield OpInput(seeded_config(rng, 30, caps[i]),
                                  "capacity_cycles", caps[i])

    def warmup(self, rng: random.Random) -> list[OpInput]:
        gen = self.inputs(rng)
        return [next(gen) for _ in range(len(self.users_points)
                                         + len(self.capacity_points))]

    def op(self, inp: OpInput, tr) -> Done:
        with tr.span("sample_scenario"):
            scenario = sample_scenario(inp.config)
        trials = []
        try:
            for scheme in SCHEMES:
                with tr.span("run_trial:" + scheme):
                    trials.append(run_trial(scenario, scheme,
                                            sweep_param=inp.sweep_param,
                                            sweep_value=inp.sweep_value,
                                            seed=inp.config.seed))
        except ValueError as exc:
            return Done(scenario, refused=repr(exc))
        return Done(scenario, trials)

    def check(self, done: Done, tr) -> float:
        s = done.scenario
        kin_all = validated_kinetics(s, tr)
        if done.refused:
            return 1.0
        by_scheme = {t.scheme: t for t in done.value}
        require(by_scheme["local_only"].revenue_s == 0.0,
                f"local_only revenue is {by_scheme['local_only'].revenue_s!r}")
        # run_trial keeps its outcomes; solve again on the same scenario to
        # check them, which is also the probe of both solvers.
        with tr.span("solve_uniform"):
            uni = solve_uniform(s)
        with tr.span("solve_differentiated"):
            per_user = solve_differentiated(s)
        for scheme, outcome in (("uniform", uni), ("differentiated", per_user)):
            check_load(outcome, s, scheme)
            trial = by_scheme[scheme]
            latency = (math.fsum(d.latency_s for d in outcome.decisions)
                       / len(outcome.decisions))
            require(trial.revenue_s == outcome.revenue_s
                    and trial.avg_latency_s == latency,
                    f"run_trial({scheme}) disagrees with its solver")
        tr.count("differentiated.solves", 1)
        tr.count("differentiated.items", len(s.users))
        if tr.enabled:
            follower_walk(s, kin_all, tr)
            build_probe(s, kin_all, tr)
        self.results.extend(done.value)
        tr.count("bench.trials", 1)
        bound = lp_bound(s, kin_all)
        revenue_gap(uni.revenue_s, bound, "uniform")
        return revenue_gap(per_user.revenue_s, bound, "differentiated")

    def finish(self, tr) -> None:
        """Writes the run's trials as the sweep CSV and reads them back."""
        with tr.span("write_csv"):
            write_csv(self.results, self.csv_path)
        tr.count("bench.csv_bytes", os.path.getsize(self.csv_path))
        require(read_csv(self.csv_path) == self.results,
                "CSV does not read back to the trials written")
        os.remove(self.csv_path)


class PeriodLarge(Workload):
    """One offloading period at the shared price, replayed as a bargain.

    Why: per-user throughput of the follower, uniform and protocol layers
    dominates, along with trace memory (K x rounds messages). Same walk as
    sweep_paper at scale, so a change that helps large K but slows small K
    shows on one of the two.
    """

    name = "period_large"
    # Few ops fit in a run (10-20 per size), so a pooled percentile would rest
    # on the ops of one size; per size, every op counts. At 10 or more ops per
    # size, p80 leaves 2 beyond it at each of the 5 sizes.
    per_size_percentiles = True
    tail_pct = 80.0
    k_range = (1_000, 10_000)
    k_points = 5

    def inputs(self, rng: random.Random) -> Iterator[OpInput]:
        for k in log_grid_cycles(rng, *self.k_range, self.k_points):
            yield OpInput(seeded_config(rng, k, CAPACITY_PER_USER * k))

    def warmup(self, rng: random.Random) -> list[OpInput]:
        k = self.k_range[0]
        return [OpInput(seeded_config(rng, k, CAPACITY_PER_USER * k))]

    def op(self, inp: OpInput, tr) -> Done:
        with tr.span("sample_scenario"):
            scenario = sample_scenario(inp.config)
        try:
            with tr.span("solve_uniform"):
                uni = solve_uniform(scenario)
            with tr.span("run_bargaining"):
                trace = run_bargaining(scenario)
            with tr.span("format_trace"):
                text = format_trace(trace)
            with tr.span("information_audit"):
                audit = information_audit(trace)
        except ValueError as exc:
            return Done(scenario, refused=repr(exc))
        return Done(scenario, (uni, trace, text, audit))

    def check(self, done: Done, tr) -> float:
        s = done.scenario
        kin_all = validated_kinetics(s, tr)
        if done.refused:
            return 1.0
        uni, trace, text, audit = done.value
        for f in fields(PriceOutcome):
            require(getattr(trace.final, f.name) == getattr(uni, f.name),
                    f"run_bargaining final.{f.name} differs from solve_uniform")
        require(audit == [], f"information audit flagged: {audit[:3]}")
        messages = sum(1 + len(r.reports) for r in trace.rounds) + 1
        require(text.count("\n") == messages,
                f"trace has {text.count(chr(10))} lines for {messages} messages")
        check_load(uni, s, "uniform")
        check_load(trace.final, s, "bargaining")
        if tr.enabled:
            visited = follower_walk(s, kin_all, tr)
            require(visited == len(trace.rounds),
                    f"bargaining took {len(trace.rounds)} rounds, the walk "
                    f"visits {visited} candidates")
        tr.count("protocol.replays", 1)
        tr.count("protocol.rounds", len(trace.rounds))
        tr.count("protocol.messages", messages)
        tr.count("protocol.trace_bytes", len(text.encode("utf-8")))
        return revenue_gap(uni.revenue_s, lp_bound(s, kin_all), "uniform")


class PeruserScale(Workload):
    """Per-user prices for one period, across every knapsack branch.

    Why: K spans subset enumeration (K <= 20), the quantized DP, and refusal
    once the DP table passes its 20 M-cell budget (K >= 317 here), so the
    refusal share is measured rather than hidden.
    """

    name = "peruser_scale"
    # 13 of the 21 grid points are answered (K <= 298) and 8 refused
    # (K >= 368); 59% sits inside the largest answered point's share.
    tail_pct = 59.0
    k_range = (10, 3_000)
    k_points = 21

    def inputs(self, rng: random.Random) -> Iterator[OpInput]:
        for k in log_grid_cycles(rng, *self.k_range, self.k_points):
            yield OpInput(seeded_config(rng, k, CAPACITY_PER_USER * k))

    def warmup(self, rng: random.Random) -> list[OpInput]:
        return [OpInput(seeded_config(rng, k, CAPACITY_PER_USER * k))
                for k in (10, 100, 1_000)]

    def op(self, inp: OpInput, tr) -> Done:
        with tr.span("sample_scenario"):
            scenario = sample_scenario(inp.config)
        try:
            with tr.span("solve_differentiated"):
                outcome = solve_differentiated(scenario)
        except ValueError as exc:
            return Done(scenario, refused=repr(exc))
        return Done(scenario, outcome)

    def check(self, done: Done, tr) -> float:
        s = done.scenario
        kin_all = validated_kinetics(s, tr)
        if tr.enabled:
            build_probe(s, kin_all, tr)
        tr.count("differentiated.solves", 1)
        tr.count("differentiated.items", len(s.users))
        if done.refused:
            tr.count("differentiated.refused", 1)
            return 1.0
        check_load(done.value, s, "differentiated")
        return revenue_gap(done.value.revenue_s, lp_bound(s, kin_all),
                           "differentiated")


WORKLOADS = {w.name: w for w in (SweepPaper, PeriodLarge, PeruserScale)}
