"""Property tests on both pricing schemes, over random and edge inputs."""

import math
from dataclasses import fields, replace

import numpy as np
from hypothesis import given, settings, strategies as st

from edgeprice import (BRUTE_FORCE_MAX_ITEMS, NO_OFFLOAD_PRICE, Scenario,
                       ScenarioConfig, build_knapsack, db_to_linear,
                       run_bargaining, sample_scenario, scenario_kinetics,
                       solve_differentiated, solve_knapsack_branch_and_bound,
                       solve_knapsack_bruteforce, solve_uniform, task_latency)
from edgeprice.kinetics import UserColumns
from edgeprice.uniform import (_FSUM_BELOW, _SHORT, _exact_sums, _exact_units,
                               _fsum, candidate_prices, evaluate_price,
                               ration_tie)
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


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


@st.composite
def wide_configs(draw):
    """1-300 users on CPU steps of 1e5-1e8, gains down to -200 dB, and
    varied powers and output ratios."""
    gain_min = draw(st.floats(-200.0, -20.0))
    return ScenarioConfig(
        num_users=draw(st.integers(1, 300)), seed=draw(seeds),
        local_cpu_step_cps=draw(st.sampled_from((1e5, 1e6, 1e7, 1e8))),
        gain_db_min=gain_min,
        gain_db_max=gain_min + draw(st.floats(0.0, 40.0)),
        uplink_power_w=draw(st.floats(1e-3, 1.0)),
        downlink_power_w=draw(st.floats(1e-2, 10.0)),
        output_ratio=draw(st.floats(0.01, 2.0)))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(wide_configs())
def test_columns_are_the_scalar_kinetics_bit_for_bit(config):
    s = sample_scenario(config)
    users, kin_all = s.users, scenario_kinetics(s)
    scalar = UserColumns(
        threshold=[1.0 / u.local_cpu_cps for u in users],
        balance_bits=[k.balance_bits for k in kin_all],
        load_cycles=[k.balance_bits * u.cycles_per_bit
                     for k, u in zip(kin_all, users)],
        local_s=[u.data_bits * u.cycles_per_bit / u.local_cpu_cps
                 for u in users],
        offload_latency_s=[task_latency(k, u, k.balance_bits)
                           for k, u in zip(kin_all, users)])
    for f in fields(UserColumns):
        assert np.array_equal(_bits(getattr(s.columns, f.name)),
                              _bits(getattr(scalar, f.name))), f.name
    # the gains are the scalar dB conversion of the first draw
    gains_db = np.random.default_rng(config.seed).uniform(
        config.gain_db_min, config.gain_db_max, config.num_users)
    assert np.array_equal(_bits(users.channel_gain_linear),
                          _bits([db_to_linear(g) for g in gains_db.tolist()]))
    # the same profiles given as records build the same scenario
    again = Scenario(s.system, tuple(users))
    assert again == s
    for f in fields(UserColumns):
        assert np.array_equal(_bits(getattr(again.columns, f.name)),
                              _bits(getattr(s.columns, f.name))), f.name


# column lengths on both sides of the per-item and the fsum cuts
CUT_LENGTHS = (0, 1, 2, 7, _SHORT - 1, _SHORT, _SHORT + 1, 300,
               _FSUM_BELOW - 1, _FSUM_BELOW, 2000)
# signed floats from 2**-1074 to 2**1000: subnormals, zeros, mixed exponents
WIDE_FLOATS = st.one_of(
    st.floats(-2.0**1000, 2.0**1000, allow_nan=False),
    st.floats(-2.0**-1000, 2.0**-1000),
    st.sampled_from((5e-324, -5e-324, 2.0**-1022, 0.0, -0.0, 1.0, 2.0**1000)))


@st.composite
def grouped_columns(draw):
    """A column drawn from a few wide floats, so values repeat, and each
    item's group among 1-40 groups, some of them empty."""
    palette = np.array(draw(st.lists(WIDE_FLOATS, min_size=1, max_size=12)))
    rng = np.random.default_rng(draw(seeds))
    n = draw(st.sampled_from(CUT_LENGTHS))
    groups = draw(st.sampled_from((1, 2, 3, 40)))
    return (palette[rng.integers(0, len(palette), n)],
            rng.integers(0, groups, n), groups)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(grouped_columns())
def test_exact_column_sums_are_the_exact_units_and_round_as_fsum(column):
    x, group, groups = column
    assert _exact_sums(x, group, groups) == [
        sum(map(_exact_units, x[group == g].tolist())) for g in range(groups)]
    assert _exact_sums(x) == [sum(map(_exact_units, x.tolist()))]
    # repr tells -0.0 from 0.0; fsum returns 0.0 for every zero sum
    assert repr(_fsum(x)) == repr(math.fsum(x.tolist()))


@st.composite
def prefix_capacities(draw):
    """Users on 1-3 CPU tiers, fewer or more than each cut, with the capacity
    at the fsum of the loads a shared price serves (the users above it, then
    the first j tied ones in index order), or one ulp above that sum."""
    num_users = draw(st.sampled_from((5, _SHORT - 1, _SHORT + 1,
                                      _FSUM_BELOW + 1)))
    cpus = draw(st.sampled_from(((1e9,), (5e8, 1e9), (2e8, 6e8, 1e9))))
    config = ScenarioConfig(num_users=num_users, seed=draw(seeds),
                            local_cpu_min_cps=cpus[0], local_cpu_max_cps=cpus[-1],
                            local_cpu_step_cps=(cpus[-1] - cpus[0]) / 2 or 1e8)
    s = sample_scenario(config)
    c = s.columns
    price = float(draw(st.sampled_from(sorted(set(c.threshold.tolist())))))
    above = c.load_cycles[c.threshold > price].tolist()
    tied = c.load_cycles[c.threshold == price].tolist()
    capacity = math.fsum(above + tied[:draw(st.integers(0, len(tied)))])
    if draw(st.booleans()):
        capacity = math.nextafter(capacity, math.inf)
    return _with_capacity(s, capacity)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(prefix_capacities())
def test_prefix_on_the_capacity_or_one_ulp_above(s):
    capacity = s.system.cloud_capacity_cycles
    out = solve_uniform(s)
    assert out == solve_uniform_exhaustive(s) == run_bargaining(s).final
    assert out.total_load_cycles <= capacity
    induced = run_bargaining(s).rounds[-1].outcome
    settled = None if induced.feasible else ration_tie(s, induced.prices[0])
    if settled is None:
        return
    # the rationed round admits as a running fsum of the loads does
    c = s.columns
    price = induced.prices[0]
    admitted = c.load_cycles[c.threshold > price].tolist()
    flags = (c.threshold > price).tolist()
    for k in np.flatnonzero(c.threshold == price).tolist():
        if math.fsum(admitted + [c.load_cycles[k]]) <= capacity:
            admitted.append(c.load_cycles[k])
            flags[k] = True
    assert settled.decisions.offload.tolist() == flags
    assert settled.total_load_cycles == math.fsum(admitted)
