"""Randomized oracle and property checks, runnable from the command line.

Every check draws fresh instances from a seeded stream, compares the fast
path against an independent reference (grid scan, dense price grid, subset
enumeration, exhaustive candidate evaluation), and reports one pass/fail
line. The acceptance test suite runs the same checks at pinned trial counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .differentiated import (build_knapsack, solve_differentiated,
                             solve_knapsack_branch_and_bound,
                             solve_knapsack_bruteforce)
from .follower import best_response
from .kinetics import (UserKinetics, local_time, offload_time, task_latency,
                       user_cost)
from .protocol import run_bargaining
from .scenario import Scenario, ScenarioConfig, UserProfile, sample_scenario
from .uniform import (PriceOutcome, best_settled, candidate_prices,
                      evaluate_price, ration_tie, solve_uniform)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def random_scenario_config(rng: np.random.Generator, max_users: int = 12,
                           min_users: int = 1) -> ScenarioConfig:
    """Default distributions with randomized size, seed and capacity.

    The capacity spans from far below one user's demand to well above the
    total demand, so feasible, binding and infeasible regimes all occur.
    """
    return ScenarioConfig(
        num_users=int(rng.integers(min_users, max_users + 1)),
        seed=int(rng.integers(0, 2**63)),
        capacity_cycles=float(10.0 ** rng.uniform(8.0, 10.8)),
    )


def _sample(rng: np.random.Generator, max_users: int = 12,
            min_users: int = 1) -> Scenario:
    return sample_scenario(random_scenario_config(rng, max_users, min_users))


def _random_price(rng: np.random.Generator, threshold: float) -> float:
    mode = int(rng.integers(0, 4))
    if mode == 0:
        return 0.0
    if mode == 1:
        return threshold  # exactly at the tie
    if mode == 2:
        return float(rng.uniform(0.0, threshold))
    return float(rng.uniform(threshold, 4.0 * threshold))


def best_response_oracle(kin: UserKinetics, user: UserProfile, price: float,
                         grid_points: int) -> float:
    """Cost argmin over a uniform offload-size grid; ties go to larger sizes.

    Deliberately shares no logic with best_response: the cost is rebuilt
    from the raw timing formulas and scanned exhaustively.
    """
    if grid_points < 1000:
        raise ValueError(f"grid_points must be >= 1000 (got {grid_points})")
    ell = np.linspace(0.0, user.data_bits, grid_points)
    local = (user.data_bits - ell) * user.cycles_per_bit / user.local_cpu_cps
    offload = kin.beta_s_per_bit * ell
    payment = np.where(ell > 0.0, price * (ell * user.cycles_per_bit), 0.0)
    cost = np.maximum(local, offload) + payment
    idx = (grid_points - 1) - int(np.argmin(cost[::-1]))
    return float(ell[idx])


def check_follower_oracle(seed: int = 0, pairs: int = 1000,
                          grid_points: int = 100_000) -> CheckResult:
    """Fast decision never loses to a grid scan; support is exactly {0, balance}."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        scenario = _sample(rng, max_users=8)
        k = int(rng.integers(0, len(scenario.users)))
        user, kin = scenario.users[k], scenario.kinetics[k]
        price = _random_price(rng, 1.0 / user.local_cpu_cps)
        decision = best_response(kin, user, price)
        if decision.offloaded_bits not in (0.0, kin.balance_bits):
            return CheckResult("follower_oracle", False,
                               f"offload size off the {{0, balance}} support: "
                               f"{decision.offloaded_bits}")
        grid_ell = best_response_oracle(kin, user, price, grid_points)
        grid_cost = user_cost(kin, user, grid_ell, price)
        excess = (decision.cost_s - grid_cost) / (1.0 + abs(grid_cost))
        worst = max(worst, excess)
        if excess > 1e-9:
            return CheckResult("follower_oracle", False,
                               f"decision cost exceeds grid cost by {excess:.3e} "
                               f"relative")
    return CheckResult("follower_oracle", True,
                       f"{pairs} (user, price) pairs vs {grid_points}-point grid, "
                       f"worst relative excess {worst:.3e}")


def grid_revenue_max(scenario: Scenario, grid_points: int) -> float:
    """Best revenue over a dense shared-price grid on (0, 2 * max threshold]."""
    inv_cpu = np.array([1.0 / u.local_cpu_cps for u in scenario.users])
    demand = np.array([k.balance_bits * u.cycles_per_bit
                       for k, u in zip(scenario.kinetics, scenario.users)])
    top = 2.0 * float(inv_cpu.max())
    prices = np.linspace(top / grid_points, top, grid_points)
    offload = prices[None, :] <= inv_cpu[:, None]
    load = demand @ offload
    revenue = np.where(load <= scenario.system.cloud_capacity_cycles,
                       prices * load, 0.0)
    return float(revenue.max())


def check_uniform_grid_optimality(seed: int = 0, scenarios: int = 1000,
                                  grid_points: int = 10_000,
                                  max_users: int = 12) -> CheckResult:
    """No shared price on a dense grid beats the candidate-set search."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(scenarios):
        scenario = _sample(rng, max_users=max_users)
        solved = solve_uniform(scenario).revenue_s
        grid_best = grid_revenue_max(scenario, grid_points)
        excess = (grid_best - solved) / (1.0 + solved)
        worst = max(worst, excess)
        if excess > 1e-9:
            return CheckResult("uniform_grid_optimality", False,
                               f"grid price beats the solver by {excess:.3e} "
                               f"relative")
    return CheckResult("uniform_grid_optimality", True,
                       f"{scenarios} scenarios x {grid_points}-point price grid, "
                       f"worst relative excess {worst:.3e}")


def solve_uniform_exhaustive(scenario: Scenario) -> PriceOutcome:
    """Reference solver: settle every candidate, with no early exit.

    Below the first overflowing candidate the users strictly above the price
    overflow too, so ``ration_tie`` settles nothing there. Exists to check
    the early-exit walk against; same tie-breaking.
    """
    settled = []
    for price in reversed(candidate_prices(scenario)):
        induced = evaluate_price(scenario, price)
        settled.append(induced if induced.feasible
                       else ration_tie(scenario, price))
    return best_settled(scenario, settled)


def check_bargaining_equivalence(seed: int = 0,
                                 scenarios: int = 1000) -> CheckResult:
    """Early-exit search == exhaustive scoring == protocol replay, exactly."""
    rng = np.random.default_rng(seed)
    for _ in range(scenarios):
        scenario = _sample(rng)
        fast = solve_uniform(scenario)
        full = solve_uniform_exhaustive(scenario)
        if fast != full:
            return CheckResult("bargaining_equivalence", False,
                               "early exit diverged from exhaustive scoring")
        trace = run_bargaining(scenario)
        if trace.final != fast:
            return CheckResult("bargaining_equivalence", False,
                               "protocol replay diverged from the direct solver")
    return CheckResult("bargaining_equivalence", True,
                       f"{scenarios} scenarios, all outcomes identical "
                       f"field for field")


def check_knapsack_oracle(seed: int = 0, instances: int = 500,
                          max_items: int = 20) -> CheckResult:
    """Branch and bound vs subset enumeration: the same selection, proved."""
    rng = np.random.default_rng(seed)
    for _ in range(instances):
        scenario = _sample(rng, max_users=max_items)
        inst = build_knapsack(scenario)
        bb = solve_knapsack_branch_and_bound(inst)
        bf = solve_knapsack_bruteforce(inst)
        if (bb.selected, bb.total_value, bb.value_bound) != (
                bf.selected, bf.total_value, 0.0):
            return CheckResult("knapsack_oracle", False,
                               f"branch and bound {bb} differs from "
                               f"enumeration {bf}")
    return CheckResult("knapsack_oracle", True,
                       f"{instances} instances up to {max_items} items: "
                       f"branch and bound picks enumeration's selection, "
                       f"each proved optimal")


def check_revenue_dominance(seed: int = 0, scenarios: int = 1000,
                            max_users: int = 20) -> CheckResult:
    """Per-user pricing never earns less than the shared price (exact solve)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(scenarios):
        scenario = _sample(rng, max_users=max_users)
        uniform = solve_uniform(scenario).revenue_s
        per_user = solve_differentiated(scenario).revenue_s
        short = (uniform - per_user) / (1.0 + uniform)
        worst = max(worst, short)
        if short > 1e-12:
            return CheckResult("revenue_dominance", False,
                               f"per-user pricing fell {short:.3e} relative "
                               f"below the shared price")
    return CheckResult("revenue_dominance", True,
                       f"{scenarios} scenarios, worst relative shortfall "
                       f"{worst:.3e}")


def check_cost_model(seed: int = 0, users: int = 10_000) -> CheckResult:
    """Branch continuity, cost = latency + payment, and the balance identity."""
    rng = np.random.default_rng(seed)
    done = 0
    while done < users:
        scenario = _sample(rng, max_users=50, min_users=10)
        for user, kin in zip(scenario.users, scenario.kinetics):
            m = kin.balance_bits
            price = _random_price(rng, 1.0 / user.local_cpu_cps)

            at_break = user_cost(kin, user, m, price)
            second_branch = (kin.beta_s_per_bit * m
                             + price * (m * user.cycles_per_bit))
            if abs(at_break - second_branch) > 1e-9 * abs(at_break):
                return CheckResult("cost_model", False,
                                   f"branch mismatch at the balance point: "
                                   f"{at_break!r} vs {second_branch!r}")

            for ell in (0.0, 0.5 * m, m, 0.5 * (m + user.data_bits),
                        user.data_bits):
                total = user_cost(kin, user, ell, price)
                rebuilt = (task_latency(kin, user, ell)
                           + price * (ell * user.cycles_per_bit))
                if abs(total - rebuilt) > 1e-12 * (1.0 + abs(total)):
                    return CheckResult("cost_model", False,
                                       f"cost != latency + payment at ell={ell}")

            gap = abs(local_time(user, m) - offload_time(kin, user, m))
            if gap > 1e-9 * local_time(user, m):
                return CheckResult("cost_model", False,
                                   f"paths differ at the balance point by {gap}")
            done += 1
            if done >= users:
                break
    return CheckResult("cost_model", True,
                       f"{users} users: branch continuity, cost identity and "
                       f"balance equality all within tolerance")


ALL_CHECKS = (
    check_follower_oracle,
    check_uniform_grid_optimality,
    check_bargaining_equivalence,
    check_knapsack_oracle,
    check_revenue_dominance,
    check_cost_model,
)

# CLI defaults; the acceptance suite pins the full counts.
_DEFAULT_COUNTS = {
    "check_follower_oracle": {"pairs": 200},
    "check_uniform_grid_optimality": {"scenarios": 100},
    "check_bargaining_equivalence": {"scenarios": 200},
    "check_knapsack_oracle": {"instances": 100},
    "check_revenue_dominance": {"scenarios": 200},
    "check_cost_model": {"users": 2000},
}


def run_verify(seed: int = 0, trials: int | None = None) -> list[CheckResult]:
    """Run every check; ``trials`` overrides each check's instance count."""
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be >= 1 (got {trials})")
    results = []
    for check in ALL_CHECKS:
        kwargs = dict(_DEFAULT_COUNTS[check.__name__])
        if trials is not None:
            kwargs = {key: trials for key in kwargs}
        results.append(check(seed=seed, **kwargs))
    return results
