"""Property tests on both pricing schemes, over random and edge inputs."""

import math
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from edgeprice import (BRUTE_FORCE_MAX_ITEMS, NO_OFFLOAD_PRICE, Scenario,
                       ScenarioConfig, build_knapsack, run_bargaining,
                       sample_scenario, solve_differentiated,
                       solve_knapsack_branch_and_bound,
                       solve_knapsack_bruteforce, solve_uniform)
from edgeprice.uniform import candidate_prices, evaluate_price
from edgeprice.verify import solve_uniform_exhaustive

seeds = st.integers(0, 2**63 - 1)
fractions = st.floats(0.0, 1.1)   # of the users' total balance load


def _with_capacity(s: Scenario, capacity: float) -> Scenario:
    return Scenario(replace(s.system, cloud_capacity_cycles=capacity), s.users)


def _total_load(s: Scenario) -> float:
    return math.fsum(s.columns.load_cycles.tolist())


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 50), seeds, fractions)
def test_revenue_is_the_knapsack_value(num_users, seed, fraction):
    # the knapsack scores each user at the payment the outcome reports, so
    # the value it maximizes is the revenue, bit for bit
    s = sample_scenario(ScenarioConfig(num_users=num_users, seed=seed))
    s = _with_capacity(s, fraction * _total_load(s))
    out = solve_differentiated(s)
    solve = (solve_knapsack_bruteforce if num_users <= BRUTE_FORCE_MAX_ITEMS
             else solve_knapsack_branch_and_bound)
    assert out.revenue_s == solve(build_knapsack(s)).total_value
    assert out.total_load_cycles <= s.system.cloud_capacity_cycles


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 60), seeds, st.sampled_from((1e5, 1e7, 1e8)))
def test_shared_load_grows_as_the_price_falls(num_users, seed, step):
    s = sample_scenario(ScenarioConfig(num_users=num_users, seed=seed,
                                       local_cpu_step_cps=step))
    prices = [NO_OFFLOAD_PRICE] + candidate_prices(s)[::-1] + [0.0]
    loads = [evaluate_price(s, p).total_load_cycles for p in prices]
    assert loads[0] == 0.0
    assert all(a <= b for a, b in zip(loads, loads[1:]))


@st.composite
def edge_scenarios(draw):
    """1-12 users, on one CPU tier or the default grid, at zero capacity, a
    random share of the total load, or exactly the load of the users with
    the j highest thresholds (ties in index order)."""
    num_users = draw(st.integers(1, 12))
    config = ScenarioConfig(num_users=num_users, seed=draw(seeds))
    cpu = draw(st.sampled_from((None, 1e8, 5e8, 1e9)))
    if cpu is not None:
        config = replace(config, local_cpu_min_cps=cpu, local_cpu_max_cps=cpu)
    s = sample_scenario(config)
    c = s.columns
    order = sorted(range(num_users), key=lambda i: (-c.threshold[i], i))
    prefix = draw(st.integers(0, num_users))
    return _with_capacity(s, draw(st.sampled_from((
        0.0,
        draw(fractions) * _total_load(s),
        math.fsum(c.load_cycles[order[:prefix]].tolist())))))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(edge_scenarios())
def test_edge_inputs_agree_with_the_references(s):
    capacity = s.system.cloud_capacity_cycles
    uniform = solve_uniform(s)
    assert uniform == solve_uniform_exhaustive(s)
    assert uniform == run_bargaining(s).final
    assert uniform.total_load_cycles <= capacity

    per_user = solve_differentiated(s)
    inst = build_knapsack(s)
    bf = solve_knapsack_bruteforce(inst)
    bb = solve_knapsack_branch_and_bound(inst)
    assert (bb.selected, bb.total_value, bb.value_bound) == (
        bf.selected, bf.total_value, 0.0)
    assert tuple(d.offload_flag == 1 for d in per_user.decisions) == bf.selected
    assert per_user.revenue_s == bf.total_value
    assert per_user.revenue_s >= uniform.revenue_s * (1.0 - 1e-12)
    assert per_user.total_load_cycles <= capacity
    if capacity == 0.0:
        assert per_user.revenue_s == uniform.revenue_s == 0.0
