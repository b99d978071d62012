import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgeprice import (NO_OFFLOAD_PRICE, Scenario, ScenarioConfig,
                       best_response, candidate_prices, evaluate_price,
                       run_bargaining, sample_scenario, solve_uniform)
from edgeprice.uniform import (_EXACT_UNIT, _exact_units, _priced_outcome,
                               best_settled, evaluate_prices, ration_tie)
from edgeprice.verify import (grid_revenue_max, random_scenario_config,
                              solve_uniform_exhaustive)

from conftest import (balanced_single_user_scenario, balanced_two_user_scenario,
                      make_profile, make_system, tied_tier_scenario)

TIER_CPUS = (1e9, 5e8, 2.5e8)


def test_candidates_are_sorted_reciprocals():
    system = make_system(2, 1e9)
    users = (make_profile(local_cpu_cps=1e9), make_profile(local_cpu_cps=5e8))
    assert candidate_prices(Scenario(system, users)) == [1e-9, 2e-9]


def test_candidates_deduplicate_equal_cpus():
    system = make_system(3, 1e9)
    users = (make_profile(local_cpu_cps=1e9), make_profile(local_cpu_cps=1e9),
             make_profile(local_cpu_cps=5e8))
    assert candidate_prices(Scenario(system, users)) == [1e-9, 2e-9]


def test_default_sampler_has_few_candidates():
    s = sample_scenario(ScenarioConfig(num_users=30, seed=21))
    assert len(candidate_prices(s)) <= 10


def test_evaluate_price_low_price_serves_both():
    scenario = balanced_two_user_scenario()
    out = evaluate_price(scenario, 1e-9)
    assert [d.offload_flag for d in out.decisions] == [1, 1]
    assert out.total_load_cycles == pytest.approx(7e8, rel=1e-12)
    assert out.revenue_s == pytest.approx(0.7, rel=1e-12)
    assert out.feasible


def test_evaluate_price_high_price_serves_slow_cpu_only():
    scenario = balanced_two_user_scenario()
    out = evaluate_price(scenario, 2e-9)
    assert [d.offload_flag for d in out.decisions] == [0, 1]
    assert out.revenue_s == pytest.approx(0.6, rel=1e-12)


def test_evaluate_price_above_all_thresholds():
    scenario = balanced_two_user_scenario()
    out = evaluate_price(scenario, 1e-8)
    assert out.total_load_cycles == 0.0
    assert out.revenue_s == 0.0
    assert out.feasible


def test_evaluate_price_overload_scores_zero():
    scenario = balanced_two_user_scenario(capacity=5e8)
    out = evaluate_price(scenario, 1e-9)
    assert not out.feasible
    assert out.revenue_s == 0.0
    assert out.total_load_cycles > scenario.system.cloud_capacity_cycles


def test_solve_uniform_two_user_hand_instance(two_user_scenario):
    out = solve_uniform(two_user_scenario)
    assert out.prices[0] == 1e-9
    assert out.revenue_s == pytest.approx(0.7, rel=1e-9)
    assert out.total_load_cycles == pytest.approx(7e8, rel=1e-9)


def test_solve_uniform_all_infeasible_returns_no_offload():
    scenario = balanced_two_user_scenario(capacity=1.0)
    out = solve_uniform(scenario)
    assert out.prices == (NO_OFFLOAD_PRICE,) * 2
    assert out.revenue_s == 0.0
    assert out.total_load_cycles == 0.0
    assert all(d.offload_flag == 0 for d in out.decisions)
    assert out.feasible


def test_solve_uniform_single_user():
    scenario = balanced_single_user_scenario()
    kin = scenario.kinetics[0]
    out = solve_uniform(scenario)
    assert out.prices[0] == 1.0 / scenario.users[0].local_cpu_cps
    expected = (1.0 / scenario.users[0].local_cpu_cps
                * kin.balance_bits * scenario.users[0].cycles_per_bit)
    assert out.revenue_s == pytest.approx(expected, rel=1e-12)


def test_revenue_matches_price_times_load():
    rng = np.random.default_rng(31)
    for _ in range(200):
        s = sample_scenario(random_scenario_config(rng))
        out = solve_uniform(s)
        recomputed = math.fsum(p * d.offloaded_bits * u.cycles_per_bit
                               for p, d, u in zip(out.prices, out.decisions,
                                                  s.users)
                               if d.offload_flag)
        assert abs(out.revenue_s - recomputed) \
            <= 1e-12 * (1.0 + abs(out.revenue_s))


def test_load_nonincreasing_in_price():
    rng = np.random.default_rng(32)
    for _ in range(100):
        s = sample_scenario(random_scenario_config(rng))
        loads = [evaluate_price(s, p).total_load_cycles
                 for p in candidate_prices(s)]
        assert all(a >= b for a, b in zip(loads, loads[1:]))


def test_positive_revenue_implies_feasible_load():
    rng = np.random.default_rng(33)
    for _ in range(200):
        s = sample_scenario(random_scenario_config(rng))
        out = solve_uniform(s)
        if out.revenue_s > 0:
            assert out.total_load_cycles <= s.system.cloud_capacity_cycles


def test_early_exit_matches_exhaustive():
    rng = np.random.default_rng(34)
    for _ in range(300):
        s = sample_scenario(random_scenario_config(rng))
        assert solve_uniform(s) == solve_uniform_exhaustive(s)


def test_revenue_tie_breaks_toward_larger_price():
    # best_settled keeps the first of equal revenues, and the walk hands it
    # the candidates from the largest price down
    scenario = balanced_two_user_scenario()
    high = evaluate_price(scenario, 2e-9)
    low = replace(evaluate_price(scenario, 1e-9), revenue_s=high.revenue_s)
    assert best_settled(scenario, [high, low]) is high
    assert best_settled(scenario, [low, high]) is low
    roomy = sample_scenario(ScenarioConfig(num_users=30, seed=21,
                                           capacity_cycles=1e12))
    walked = [r.broadcast.payload for r in run_bargaining(roomy).rounds]
    assert len(walked) > 2
    assert walked == sorted(candidate_prices(roomy), reverse=True)


def test_no_grid_price_beats_solver(two_user_scenario):
    best = grid_revenue_max(two_user_scenario, 10_000)
    solved = solve_uniform(two_user_scenario).revenue_s
    assert best <= solved + 1e-9 * (1.0 + solved)


def test_capacity_boundary_is_inclusive():
    # induced load exactly equal to the budget still trades
    scenario = balanced_two_user_scenario()
    load = evaluate_price(scenario, 1e-9).total_load_cycles
    tight = Scenario(system=make_system(2, load), users=scenario.users)
    out = evaluate_price(tight, 1e-9)
    assert out.feasible and out.revenue_s > 0


def test_solve_rejects_invalid_scenario():
    system = make_system(2, 1e9)
    with pytest.raises(ValueError,
                       match=r"^invalid scenario: [^;]*num_users [^;]*$"):
        Scenario(system, (make_profile(),))  # length mismatch


def _served_load(out, scenario):
    return math.fsum(d.offloaded_bits * u.cycles_per_bit
                     for d, u in zip(out.decisions, scenario.users))


def _solve_all_ways(scenario):
    out = solve_uniform(scenario)
    assert out == solve_uniform_exhaustive(scenario)
    assert out == run_bargaining(scenario).final
    assert out.feasible
    assert out.total_load_cycles <= scenario.system.cloud_capacity_cycles
    assert out.total_load_cycles == _served_load(out, scenario)
    return out


def test_overflowing_tie_serves_first_tied_user():
    # two ~3e8-cycle users tied at 2e-9 overflow a 5e8 budget together
    scenario = tied_tier_scenario(5e8, (6e5, 6e5))
    kin_all = scenario.kinetics
    assert not evaluate_price(scenario, 2e-9).feasible
    out = _solve_all_ways(scenario)
    assert out.prices == (2e-9, 2e-9)
    assert [d.offload_flag for d in out.decisions] == [1, 0]
    assert out.decisions[0].offloaded_bits == kin_all[0].balance_bits
    assert out.decisions[1].offloaded_bits == 0.0
    assert out.decisions[1].payment_s == 0.0
    assert out.total_load_cycles == pytest.approx(3e8, rel=1e-9)
    assert out.revenue_s == pytest.approx(0.6, rel=1e-9)


def test_later_tied_user_served_when_earlier_does_not_fit():
    # tied loads ~4e8 then ~3e8, above-tier load ~1e8, budget 4.5e8: the
    # above user plus the first tied user overflow, the second one fits
    scenario = tied_tier_scenario(4.5e8, (8e5, 6e5), above_data_bits=(2e5,))
    out = _solve_all_ways(scenario)
    assert out.prices == (2e-9,) * 3
    assert [d.offload_flag for d in out.decisions] == [0, 1, 1]
    assert out.total_load_cycles == pytest.approx(4e8, rel=1e-9)
    # 2e-9 * 4e8 beats the above tier alone at 4e-9 * 1e8
    assert out.revenue_s == pytest.approx(0.8, rel=1e-9)


def test_tie_admission_boundary_is_inclusive():
    # a budget of exactly the first two tied loads takes both of them
    loose = tied_tier_scenario(1e10, (8e5, 6e5, 6e5))
    loads = [d.offloaded_bits * u.cycles_per_bit
             for d, u in zip(solve_uniform(loose).decisions, loose.users)]
    budget = math.fsum(loads[:2])
    scenario = tied_tier_scenario(budget, (8e5, 6e5, 6e5))
    out = _solve_all_ways(scenario)
    assert [d.offload_flag for d in out.decisions] == [1, 1, 0]
    assert out.total_load_cycles == budget


def test_rationed_load_never_exceeds_capacity():
    rng = np.random.default_rng(35)
    rationed = 0
    for _ in range(300):
        s = sample_scenario(random_scenario_config(rng))
        out = solve_uniform(s)
        assert out.total_load_cycles <= s.system.cloud_capacity_cycles
        assert out.total_load_cycles == _served_load(out, s)
        if out.revenue_s > 0:
            rationed += out != evaluate_price(s, out.prices[0])
    assert rationed > 0


def test_exact_load_units_round_like_fsum():
    # cancellation-free but rounding-sensitive sums: tiny terms beside large ones
    rng = np.random.default_rng(36)
    for _ in range(2000):
        n = int(rng.integers(1, 40))
        xs = [float(v) for v in 10.0 ** rng.uniform(-320.0, 12.0, size=n)]
        xs += [5e-324, 1e9, 1.0 + 2.0 ** -52]
        assert sum(map(_exact_units, xs)) / _EXACT_UNIT == math.fsum(xs)


def _reference_ration(scenario, kin_all, price):
    """Offload flags and admitted loads of an overflowing round, by hand.

    Users strictly above the price are served; then each tied user, in index
    order, iff the fsum of the loads admitted so far plus its own fits.
    """
    capacity = scenario.system.cloud_capacity_cycles
    loads = [k.balance_bits * u.cycles_per_bit
             for k, u in zip(kin_all, scenario.users)]
    thresholds = [1.0 / u.local_cpu_cps for u in scenario.users]
    flags = [int(t > price) for t in thresholds]
    admitted = [x for x, f in zip(loads, flags) if f]
    for k, t in enumerate(thresholds):
        if t == price and math.fsum(admitted + [loads[k]]) <= capacity:
            admitted.append(loads[k])
            flags[k] = 1
    return flags, admitted


def test_rationed_round_matches_independent_reference():
    # the walk's last round, when it overflows, against a hand-built ration
    rng = np.random.default_rng(37)
    rationed = tied_served = 0
    for _ in range(400):
        s = sample_scenario(random_scenario_config(rng))
        induced = run_bargaining(s).rounds[-1].outcome
        if induced.feasible:
            continue
        rationed += 1
        price = induced.prices[0]
        settled = ration_tie(s, price)
        flags, admitted = _reference_ration(s, s.kinetics, price)
        assert settled is not None
        assert [d.offload_flag for d in settled.decisions] == flags
        assert settled.total_load_cycles == math.fsum(admitted)
        assert settled.revenue_s == math.fsum(price * x for x in admitted)
        assert settled.prices == (price,) * len(s.users)
        assert settled.feasible
        tied_served += any(f and 1.0 / u.local_cpu_cps == price
                           for f, u in zip(flags, s.users))
    assert rationed >= 100
    assert tied_served > 0


@st.composite
def tied_tier_capacities(draw):
    """K users on 1-3 CPU tiers with the capacity at an exact prefix sum of
    the loads served at one tier's price (those above it, then its tied
    users in index order), or one ulp below or above that sum."""
    k = draw(st.integers(1, 12))
    cpus = draw(st.lists(st.sampled_from(TIER_CPUS), min_size=1, max_size=3,
                         unique=True))
    users = tuple(make_profile(
        data_bits=draw(st.floats(1e5, 4e6)),
        cycles_per_bit=draw(st.floats(500.0, 1500.0)),
        local_cpu_cps=draw(st.sampled_from(cpus)),
        channel_gain_linear=draw(st.floats(1e-6, 1e-3))) for _ in range(k))
    drawn = Scenario(make_system(k, 0.0), users)
    price = 1.0 / draw(st.sampled_from(cpus))
    loads = [(1.0 / u.local_cpu_cps, kin.balance_bits * u.cycles_per_bit)
             for kin, u in zip(drawn.kinetics, users)]
    above = [x for t, x in loads if t > price]
    tied = [x for t, x in loads if t == price]
    capacity = math.fsum(above + tied[:draw(st.integers(0, len(tied)))])
    capacity = math.nextafter(capacity, draw(st.sampled_from(
        (capacity, -math.inf, math.inf))))
    return Scenario(make_system(k, max(capacity, 0.0)), users)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(tied_tier_capacities())
def test_rationing_at_exact_and_one_ulp_capacities(s):
    out = solve_uniform(s)
    assert out == solve_uniform_exhaustive(s)
    assert out == run_bargaining(s).final
    assert out.total_load_cycles <= s.system.cloud_capacity_cycles
    induced = run_bargaining(s).rounds[-1].outcome
    settled = None if induced.feasible else ration_tie(s, induced.prices[0])
    if settled is not None:
        flags, admitted = _reference_ration(s, s.kinetics, induced.prices[0])
        assert [d.offload_flag for d in settled.decisions] == flags
        assert settled.total_load_cycles == math.fsum(admitted)


def _scalar_decisions(scenario, prices):
    return tuple(best_response(k, u, p, user_index=i) for i, (k, u, p)
                 in enumerate(zip(scenario.kinetics, scenario.users, prices)))


def test_column_responses_equal_scalar_best_response():
    # repr tells every float apart, signed zeros included
    rng = np.random.default_rng(38)
    checked = 0
    for _ in range(80):
        s = sample_scenario(random_scenario_config(rng, max_users=40))
        ks = len(s.users)
        cands = candidate_prices(s)
        shared = (cands + [(a + b) / 2 for a, b in zip(cands, cands[1:])]
                  + [0.0, 0.5 * cands[0], 2.0 * cands[-1], NO_OFFLOAD_PRICE])
        for price in shared:
            out = evaluate_price(s, price)
            assert repr(out.decisions) == repr(
                _scalar_decisions(s, (price,) * ks))
            load = _served_load(out, s)
            feasible = load <= s.system.cloud_capacity_cycles
            revenue = math.fsum(d.payment_s for d in out.decisions)
            assert (out.total_load_cycles, out.feasible, out.revenue_s) == (
                load, feasible, revenue if feasible else 0.0)
            checked += 1
        picks = rng.integers(0, len(shared), size=(3, ks))
        for row in picks:
            prices = tuple(shared[i] for i in row)
            out = evaluate_prices(s, prices)
            assert repr(out.decisions) == repr(_scalar_decisions(s, prices))
            assert out.prices == prices
            checked += 1
    assert checked > 1500


def test_negative_or_nan_price_rejected():
    scenario = balanced_two_user_scenario()
    for bad in (-1e-9, math.nan):
        with pytest.raises(ValueError, match="price must be >= 0"):
            evaluate_price(scenario, bad)
        with pytest.raises(ValueError, match="price must be >= 0"):
            evaluate_prices(scenario, (1e-9, bad))


def test_prices_of_the_wrong_shape_rejected():
    # one price per user: numpy would broadcast a single price to everyone,
    # and fail on other lengths or a nesting without naming the field
    scenario = sample_scenario(ScenarioConfig(num_users=5, seed=1))
    for bad, got in (([1e-9], 1), ([1e-9] * 4, 4), ([[1e-9] * 5], 5),
                     ([[1e-9]] * 5, 5)):
        with pytest.raises(ValueError, match=rf"^prices .* each of the 5 "
                                             rf"users, got {got} in shape"):
            evaluate_prices(scenario, bad)
    with pytest.raises(ValueError, match=r"^prices .* each of the 5 users: "):
        evaluate_prices(scenario, [[1e-9], [1e-9, 2e-9], 1e-9, 1e-9, 1e-9])


def test_shared_price_must_be_one_real_number():
    # numpy would broadcast a list to one price per user, and fail on text
    # without naming the field
    scenario = sample_scenario(ScenarioConfig(num_users=5, seed=1))
    for bad in ([1e-9], (1e-9,), np.array([1e-9]), "1e-9", None):
        with pytest.raises(ValueError, match=r"^price must be one real number"):
            evaluate_price(scenario, bad)
    for fine in (1e-9, np.float64(1e-9), 0, NO_OFFLOAD_PRICE):
        assert evaluate_price(scenario, fine).prices == (fine,) * 5


def test_sorted_solve_matches_exhaustive_on_fine_grids():
    # fine CPU grids give ~K candidates; capacities cut the total balance
    # load anywhere from nothing to all of it
    rng = np.random.default_rng(39)
    binding = rationed_wins = 0
    for _ in range(100):
        config = replace(random_scenario_config(rng, max_users=100),
                         local_cpu_step_cps=float(10.0 ** rng.uniform(5, 7)))
        drawn = sample_scenario(config)
        total = math.fsum(k.balance_bits * u.cycles_per_bit
                          for k, u in zip(drawn.kinetics, drawn.users))
        s = Scenario(replace(drawn.system, cloud_capacity_cycles=float(
            total * rng.uniform(0.0, 1.1))), drawn.users)
        out = solve_uniform(s)
        assert out == solve_uniform_exhaustive(s)
        walk = [r.outcome for r in run_bargaining(s).rounds]
        for induced in walk[:-1]:
            # the screen's premise: price * load is within 2**-50 of revenue
            screened = induced.prices[0] * induced.total_load_cycles
            assert abs(screened - induced.revenue_s) \
                <= 2.0**-50 * induced.revenue_s
        binding += not walk[-1].feasible
        rationed_wins += (out.revenue_s > 0
                          and out != evaluate_price(s, out.prices[0]))
    assert binding >= 70
    assert rationed_wins > 0


def test_sorted_solve_rescores_few_candidates():
    # the walk builds ~2,564 outcomes here, one per candidate
    scenario = sample_scenario(ScenarioConfig(
        num_users=3000, seed=3, capacity_cycles=6e11, local_cpu_step_cps=1e5))
    assert len(candidate_prices(scenario)) > 2500
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is _priced_outcome.__code__:
            calls += 1

    sys.setprofile(profile)
    try:
        out = solve_uniform(scenario)
    finally:
        sys.setprofile(None)
    assert 1 <= calls <= 3
    assert out.revenue_s > 0


@st.composite
def priced_scenarios(draw):
    """A random scenario and per-user prices: thresholds, points between and
    around them, 0 and NO_OFFLOAD_PRICE."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = sample_scenario(random_scenario_config(rng, max_users=30))
    cands = candidate_prices(s)
    menu = cands + [0.0, 0.5 * cands[0], 2.0 * cands[-1], NO_OFFLOAD_PRICE]
    ks = len(s.users)
    prices = draw(st.one_of(
        st.sampled_from(menu).map(lambda p: (p,) * ks),
        st.lists(st.sampled_from(menu), min_size=ks, max_size=ks).map(tuple)))
    return s, prices


@settings(max_examples=200, derandomize=True, deadline=None)
@given(priced_scenarios(), st.data())
def test_column_decisions_read_as_scalar_tuple(case, data):
    s, prices = case
    decisions = evaluate_prices(s, prices).decisions
    scalar = _scalar_decisions(s, prices)
    assert decisions == scalar and scalar == decisions
    assert not decisions != scalar
    assert hash(decisions) == hash(scalar)
    assert repr(decisions) == repr(scalar)
    assert decisions.offloaded_bits.tolist() == [d.offloaded_bits for d in scalar]
    assert decisions.latency_s.tolist() == [d.latency_s for d in scalar]
    assert len(decisions) == len(scalar) and tuple(decisions) == scalar
    ks = len(scalar)
    i = data.draw(st.integers(-ks, ks - 1))
    assert repr(decisions[i]) == repr(scalar[i])
    cut = data.draw(st.slices(ks))
    assert repr(decisions[cut]) == repr(scalar[cut])
    assert decisions == evaluate_prices(s, prices).decisions
    assert decisions != scalar[:-1] + (replace(scalar[-1], cost_s=-1.0),)
