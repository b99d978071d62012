from dataclasses import replace

import numpy as np
import pytest

from edgeprice import (KnapsackInstance, NO_OFFLOAD_PRICE, ScenarioConfig,
                       build_knapsack, sample_scenario, solve_differentiated,
                       solve_knapsack_branch_and_bound, solve_knapsack_bruteforce,
                       solve_uniform)
from edgeprice.uniform import evaluate_prices
from edgeprice.verify import random_scenario_config

from conftest import balanced_two_user_scenario


TWO_ITEMS = KnapsackInstance(weights=(4e8, 3e8), values=(0.4, 0.6),
                             capacity=1e9)


def test_build_knapsack_hand_values(two_user_scenario):
    inst = build_knapsack(two_user_scenario)
    assert inst.weights[0] == pytest.approx(4e8, rel=1e-9)
    assert inst.weights[1] == pytest.approx(3e8, rel=1e-9)
    assert inst.values[0] == pytest.approx(0.4, rel=1e-9)
    assert inst.values[1] == pytest.approx(0.6, rel=1e-9)
    assert inst.capacity == two_user_scenario.system.cloud_capacity_cycles
    # each value is the payment the user makes at its own threshold
    served = evaluate_prices(two_user_scenario,
                             two_user_scenario.columns.threshold.tolist())
    assert inst.values == tuple(d.payment_s for d in served.decisions)
    assert inst.weights == tuple(two_user_scenario.columns.load_cycles.tolist())


def test_bb_two_items_both_fit():
    sol = solve_knapsack_branch_and_bound(TWO_ITEMS)
    assert sol.selected == (True, True)
    assert sol.total_value == pytest.approx(1.0, rel=1e-12)
    assert sol.value_bound == 0.0


def test_bb_two_items_tight_capacity():
    sol = solve_knapsack_branch_and_bound(replace(TWO_ITEMS, capacity=5e8))
    assert sol.selected == (False, True)
    assert sol.total_value == pytest.approx(0.6, rel=1e-12)
    assert sol.value_bound == 0.0


def test_bb_zero_capacity():
    sol = solve_knapsack_branch_and_bound(replace(TWO_ITEMS, capacity=0.0))
    assert sol.selected == (False, False)
    assert sol.total_value == 0.0


def test_bruteforce_matches_bb_on_hand_instances():
    for capacity in (1e9, 5e8, 0.0):
        inst = replace(TWO_ITEMS, capacity=capacity)
        assert (solve_knapsack_bruteforce(inst).selected
                == solve_knapsack_branch_and_bound(inst).selected)


def test_bruteforce_nothing_fits():
    inst = KnapsackInstance(weights=(5.0, 7.0), values=(1.0, 2.0), capacity=4.0)
    sol = solve_knapsack_bruteforce(inst)
    assert sol.selected == (False, False)
    assert sol.total_value == 0.0


def test_bb_nothing_fits():
    inst = KnapsackInstance(weights=(5.0, 7.0), values=(1.0, 2.0), capacity=4.0)
    sol = solve_knapsack_branch_and_bound(inst)
    assert sol.selected == (False, False)
    assert sol.total_value == 0.0
    assert sol.value_bound == 0.0


def test_bruteforce_empty_instance():
    sol = solve_knapsack_bruteforce(KnapsackInstance((), (), capacity=10.0))
    assert sol.selected == ()
    assert sol.total_value == 0.0


def test_bb_empty_instance():
    sol = solve_knapsack_branch_and_bound(KnapsackInstance((), (), capacity=10.0))
    assert sol.selected == ()
    assert sol.total_value == 0.0


def test_bruteforce_item_cap():
    inst = KnapsackInstance(weights=(1.0,) * 21, values=(1.0,) * 21, capacity=5.0)
    with pytest.raises(ValueError, match="enumeration"):
        solve_knapsack_bruteforce(inst)


def test_bb_tie_prefers_denser_item():
    # equal values: the denser item, considered first, is the one kept
    inst = KnapsackInstance(weights=(3e6, 1e6), values=(0.5, 0.5),
                            capacity=3e6)
    assert solve_knapsack_branch_and_bound(inst).selected == (False, True)


def test_bb_tie_at_equal_density_prefers_lower_index():
    inst = KnapsackInstance(weights=(2e6, 2e6), values=(0.5, 0.5),
                            capacity=3e6)
    assert solve_knapsack_branch_and_bound(inst).selected == (True, False)


def test_bruteforce_tie_prefers_lexicographically_smallest():
    inst = KnapsackInstance(weights=(3e6, 1e6), values=(0.5, 0.5),
                            capacity=3e6)
    assert solve_knapsack_bruteforce(inst).selected == (False, True)


def test_bb_matches_enumeration():
    rng = np.random.default_rng(41)
    for _ in range(200):
        s = sample_scenario(random_scenario_config(rng, max_users=14))
        inst = build_knapsack(s)
        bb = solve_knapsack_branch_and_bound(inst)
        bf = solve_knapsack_bruteforce(inst)
        assert bb.selected == bf.selected
        assert bb.total_value == bf.total_value
        assert bb.value_bound == 0.0
        assert bb.total_weight <= inst.capacity


def test_bb_exact_on_grid_weights():
    # weights rounded up to a coarse grid: sums land exactly on the capacity
    # and on each other, the case where a float slip changes the selection
    rng = np.random.default_rng(42)
    for _ in range(200):
        s = sample_scenario(random_scenario_config(rng, max_users=14))
        inst = build_knapsack(s)
        grid = float(10.0 ** rng.integers(5, 8))
        inst = replace(inst, weights=tuple(grid * np.ceil(np.divide(inst.weights, grid))))
        bb = solve_knapsack_branch_and_bound(inst)
        bf = solve_knapsack_bruteforce(inst)
        assert bb.total_value == bf.total_value
        assert bb.value_bound == 0.0
        assert bb.total_weight <= inst.capacity


def test_bb_feasibility_is_the_rounded_sum():
    # the exact sum of 0.1 and 0.2 lies halfway between 0.3 and the next
    # float up and rounds to that one, so the pair does not fit 0.3
    inst = KnapsackInstance(weights=(0.1, 0.2), values=(1.0, 1.0), capacity=0.3)
    assert solve_knapsack_branch_and_bound(inst).total_weight <= 0.3
    exact = replace(inst, capacity=0.1 + 0.2)
    assert solve_knapsack_branch_and_bound(exact).selected == (True, True)
    # 1 + 2**-60 rounds to 1.0, so the pair fits a capacity of 1.0
    tiny = KnapsackInstance(weights=(1.0, 2.0**-60), values=(1.0, 1.0),
                            capacity=1.0)
    assert solve_knapsack_branch_and_bound(tiny).selected == (True, True)


def test_bruteforce_feasibility_is_the_rounded_sum():
    # numpy adds the subset sums one weight at a time: 1.0 + 2**-53 rounds
    # to 1.0 twice, but the three weights' exact sum rounds to 1 + 2**-52,
    # which overflows a capacity of 1.0
    cases = [KnapsackInstance(weights=(1.0, 2.0**-53, 2.0**-53),
                              values=(1.0, 1.0, 1.0), capacity=1.0)]
    # the 0.1 + 0.2 round-half-even tie against 0.3 and against its own sum
    # (unequal values, so one selection is optimal)
    pair = KnapsackInstance(weights=(0.1, 0.2), values=(1.0, 1.5),
                            capacity=0.3)
    cases += [pair, replace(pair, capacity=0.1 + 0.2)]
    for inst in cases:
        bf = solve_knapsack_bruteforce(inst)
        assert bf.selected == solve_knapsack_branch_and_bound(inst).selected
        assert bf.total_weight <= inst.capacity
    assert solve_knapsack_bruteforce(cases[0]).selected == (False, True, True)


def test_bb_decodes_a_large_selection():
    # 10**4 items of one weight, valued in a shuffled order: the 3,000 most
    # valuable are the optimum, scattered over the indices
    n, room = 10_000, 3_000
    rank = np.random.default_rng(46).permutation(n)
    inst = KnapsackInstance(weights=(1.0,) * n,
                            values=tuple(1.0 + rank.astype(float)),
                            capacity=float(room))
    sol = solve_knapsack_branch_and_bound(inst)
    assert sol.selected == tuple((rank >= n - room).tolist())
    assert sol.value_bound == 0.0


def _dantzig_bound(inst: KnapsackInstance) -> float:
    """Fractional-knapsack optimum: fill by falling density, split the first
    item that does not fit."""
    room, total = inst.capacity, 0.0
    for v, w in sorted(zip(inst.values, inst.weights),
                       key=lambda vw: vw[0] / vw[1], reverse=True):
        if w > room:
            return total + room * v / w
        room -= w
        total += v
    return total


def test_bb_budget_cut_certifies_its_gap():
    # binding capacity at 300 users: the node budget runs out before the
    # search proves optimality, and the answer is certified, not refused
    s = sample_scenario(ScenarioConfig(num_users=300, seed=1,
                                       capacity_cycles=300 * 2e8))
    inst = build_knapsack(s)
    sol = solve_knapsack_branch_and_bound(inst)
    assert sol.value_bound > 0.0
    assert sol.total_weight <= inst.capacity
    bound = _dantzig_bound(inst)
    assert sol.total_value + sol.value_bound >= bound * (1.0 - 1e-12)


def test_instance_validation():
    with pytest.raises(ValueError):
        solve_knapsack_branch_and_bound(KnapsackInstance((0.0,), (1.0,), capacity=1.0))
    with pytest.raises(ValueError):
        solve_knapsack_branch_and_bound(KnapsackInstance((1.0,), (-1.0,), capacity=1.0))
    with pytest.raises(ValueError):
        solve_knapsack_branch_and_bound(KnapsackInstance((1.0,), (1.0,), capacity=-1.0))
    with pytest.raises(ValueError):
        solve_knapsack_branch_and_bound(KnapsackInstance((1.0, 2.0), (1.0,), capacity=1.0))


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


def test_revenue_dominates_uniform_branch_and_bound_path():
    rng = np.random.default_rng(45)
    for _ in range(100):
        s = sample_scenario(random_scenario_config(rng, max_users=50,
                                                   min_users=21))
        uniform = solve_uniform(s).revenue_s
        per_user = solve_differentiated(s).revenue_s  # above 20 users
        assert per_user >= uniform - 1e-12 * (1.0 + uniform)
        inst = build_knapsack(s)
        assert solve_knapsack_branch_and_bound(inst).value_bound == 0.0


@pytest.mark.parametrize("num_users", [1_000, 3_000])
def test_solve_differentiated_answers_thousands_of_users(num_users):
    s = sample_scenario(ScenarioConfig(num_users=num_users, seed=2,
                                       capacity_cycles=num_users * 2e8))
    out = solve_differentiated(s)
    assert out.feasible
    assert out.total_load_cycles <= s.system.cloud_capacity_cycles
    assert out.revenue_s > 0.0
