from dataclasses import replace

import numpy as np
import pytest

from edgeprice import (KnapsackInstance, NO_OFFLOAD_PRICE, TableBudgetExceeded,
                       build_knapsack, sample_scenario, solve_differentiated, solve_knapsack_bruteforce,
                       solve_knapsack_dp, solve_uniform)
from edgeprice.verify import random_knapsack, random_scenario_config, snap_weights_up

from conftest import balanced_two_user_scenario


TWO_ITEMS = KnapsackInstance(weights=(4e8, 3e8), values=(0.4, 0.6),
                             capacity=1e9, quantum=1e6)


def test_build_knapsack_hand_values(two_user_scenario):
    inst = build_knapsack(two_user_scenario, two_user_scenario.kinetics)
    assert inst.weights[0] == pytest.approx(4e8, rel=1e-9)
    assert inst.weights[1] == pytest.approx(3e8, rel=1e-9)
    assert inst.values[0] == pytest.approx(0.4, rel=1e-9)
    assert inst.values[1] == pytest.approx(0.6, rel=1e-9)
    assert inst.capacity == two_user_scenario.system.cloud_capacity_cycles
    for v, w, u in zip(inst.values, inst.weights, two_user_scenario.users):
        assert v / w == pytest.approx(1.0 / u.local_cpu_cps, rel=1e-12)


def test_dp_two_items_both_fit():
    sol = solve_knapsack_dp(TWO_ITEMS)
    assert sol.selected == (True, True)
    assert sol.total_value == pytest.approx(1.0, rel=1e-12)
    assert sol.value_bound == 0.0  # weights already on the grid


def test_dp_two_items_tight_capacity():
    sol = solve_knapsack_dp(replace(TWO_ITEMS, capacity=5e8))
    assert sol.selected == (False, True)
    assert sol.total_value == pytest.approx(0.6, rel=1e-12)


def test_dp_zero_capacity():
    sol = solve_knapsack_dp(replace(TWO_ITEMS, capacity=0.0))
    assert sol.selected == (False, False)
    assert sol.total_value == 0.0


def test_bruteforce_matches_dp_on_hand_instances():
    for capacity in (1e9, 5e8, 0.0):
        inst = replace(TWO_ITEMS, capacity=capacity)
        assert (solve_knapsack_bruteforce(inst).selected
                == solve_knapsack_dp(inst).selected)


def test_bruteforce_nothing_fits():
    inst = KnapsackInstance(weights=(5.0, 7.0), values=(1.0, 2.0), capacity=4.0)
    sol = solve_knapsack_bruteforce(inst)
    assert sol.selected == (False, False)
    assert sol.total_value == 0.0


def test_bruteforce_empty_instance():
    sol = solve_knapsack_bruteforce(KnapsackInstance((), (), capacity=10.0))
    assert sol.selected == ()
    assert sol.total_value == 0.0


def test_bruteforce_item_cap():
    inst = KnapsackInstance(weights=(1.0,) * 21, values=(1.0,) * 21, capacity=5.0)
    with pytest.raises(ValueError, match="enumeration"):
        solve_knapsack_bruteforce(inst)


def test_dp_tie_prefers_lighter_selection():
    inst = KnapsackInstance(weights=(3e6, 1e6), values=(0.5, 0.5),
                            capacity=3e6, quantum=1e6)
    assert solve_knapsack_dp(inst).selected == (False, True)


def test_bruteforce_tie_prefers_lexicographically_smallest():
    inst = KnapsackInstance(weights=(3e6, 1e6), values=(0.5, 0.5),
                            capacity=3e6, quantum=1e6)
    assert solve_knapsack_bruteforce(inst).selected == (False, True)


def test_dp_exact_on_grid_weights():
    rng = np.random.default_rng(41)
    for _ in range(200):
        inst = snap_weights_up(random_knapsack(rng, max_items=14))
        dp = solve_knapsack_dp(inst)
        bf = solve_knapsack_bruteforce(inst)
        assert dp.total_value == bf.total_value


def test_dp_within_reported_bound_on_raw_weights():
    rng = np.random.default_rng(42)
    for _ in range(200):
        inst = random_knapsack(rng, max_items=14)
        dp = solve_knapsack_dp(inst)
        bf = solve_knapsack_bruteforce(inst)
        assert dp.total_weight <= inst.capacity
        assert dp.total_value >= bf.total_value - dp.value_bound \
            - 1e-12 * (1.0 + abs(bf.total_value))


def test_dp_table_budget():
    with pytest.raises(TableBudgetExceeded, match="coarser quantum"):
        solve_knapsack_dp(replace(TWO_ITEMS, quantum=1.0))
    # the same instance fits with a coarser quantum
    solve_knapsack_dp(replace(TWO_ITEMS, quantum=1e6))


def test_instance_validation():
    with pytest.raises(ValueError):
        solve_knapsack_dp(KnapsackInstance((0.0,), (1.0,), capacity=1.0))
    with pytest.raises(ValueError):
        solve_knapsack_dp(KnapsackInstance((1.0,), (-1.0,), capacity=1.0))
    with pytest.raises(ValueError):
        solve_knapsack_dp(KnapsackInstance((1.0,), (1.0,), capacity=-1.0))
    with pytest.raises(ValueError):
        solve_knapsack_dp(KnapsackInstance((1.0,), (1.0,), capacity=1.0,
                                           quantum=0.0))
    with pytest.raises(ValueError):
        solve_knapsack_dp(KnapsackInstance((1.0, 2.0), (1.0,), capacity=1.0))


def test_solve_differentiated_serves_both(two_user_scenario):
    out = solve_differentiated(two_user_scenario)
    assert out.prices[0] == 1.0 / two_user_scenario.users[0].local_cpu_cps
    assert out.prices[1] == 1.0 / two_user_scenario.users[1].local_cpu_cps
    assert out.revenue_s == pytest.approx(1.0, rel=1e-9)
    assert out.feasible


def test_solve_differentiated_tight_capacity_picks_denser_user():
    out = solve_differentiated(balanced_two_user_scenario(capacity=5e8))
    assert out.prices[0] == NO_OFFLOAD_PRICE
    assert out.decisions[0].offload_flag == 0
    assert out.decisions[1].offload_flag == 1
    assert out.revenue_s == pytest.approx(0.6, rel=1e-9)


def test_solve_differentiated_zero_capacity():
    out = solve_differentiated(balanced_two_user_scenario(capacity=0.0))
    assert out.prices == (NO_OFFLOAD_PRICE, NO_OFFLOAD_PRICE)
    assert out.revenue_s == 0.0
    assert out.total_load_cycles == 0.0


def test_selected_users_offload_balance_bits():
    rng = np.random.default_rng(43)
    for _ in range(100):
        s = sample_scenario(random_scenario_config(rng))
        out = solve_differentiated(s)
        for d, kin in zip(out.decisions, s.kinetics):
            if d.offload_flag:
                assert d.offloaded_bits == kin.balance_bits
            else:
                assert d.offloaded_bits == 0.0


def test_revenue_dominates_uniform_exact_path():
    rng = np.random.default_rng(44)
    for _ in range(200):
        s = sample_scenario(random_scenario_config(rng, max_users=20))
        uniform = solve_uniform(s).revenue_s
        per_user = solve_differentiated(s).revenue_s
        assert per_user >= uniform - 1e-12 * (1.0 + uniform)


def test_revenue_dominates_uniform_dp_path_within_bound():
    rng = np.random.default_rng(45)
    for _ in range(100):
        s = sample_scenario(random_scenario_config(rng, max_users=30,
                                                   min_users=21))
        uniform = solve_uniform(s).revenue_s
        out = solve_differentiated(s)  # above 20 users: the quantized DP
        bound = solve_knapsack_dp(build_knapsack(s, s.kinetics)).value_bound
        assert out.revenue_s >= uniform - bound - 1e-12 * (1.0 + uniform)
