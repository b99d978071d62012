import numpy as np
import pytest

from edgeprice import (NO_OFFLOAD_PRICE, best_response, sample_scenario,
                       scenario_kinetics, user_cost)
from edgeprice.verify import best_response_oracle, random_scenario_config

from conftest import make_kinetics, make_profile


def _pair():
    u = make_profile(data_bits=8e5, cycles_per_bit=1000.0, local_cpu_cps=1e9)
    return u, make_kinetics(u, beta=1e-6)


def test_zero_price_offloads_balance():
    u, kin = _pair()
    d = best_response(kin, u, 0.0)
    assert d.offload_flag == 1
    assert d.offloaded_bits == kin.balance_bits
    assert d.payment_s == 0.0


def test_price_above_threshold_stays_local():
    u, kin = _pair()
    d = best_response(kin, u, 2.0 / u.local_cpu_cps)
    assert d.offload_flag == 0
    assert d.offloaded_bits == 0.0
    assert d.cost_s == pytest.approx(
        u.data_bits * u.cycles_per_bit / u.local_cpu_cps, rel=1e-12)


def test_tie_price_resolves_to_offloading():
    u, kin = _pair()
    d = best_response(kin, u, 1.0 / u.local_cpu_cps)
    assert d.offload_flag == 1
    assert d.offloaded_bits == kin.balance_bits


def test_negative_price_rejected():
    u, kin = _pair()
    with pytest.raises(ValueError):
        best_response(kin, u, -1e-12)


def test_decision_accounting():
    rng = np.random.default_rng(2)
    for _ in range(300):
        s = sample_scenario(random_scenario_config(rng, max_users=6))
        kin_all = scenario_kinetics(s)
        k = int(rng.integers(0, len(s.users)))
        u, kin = s.users[k], kin_all[k]
        price = float(rng.uniform(0.0, 3.0 / u.local_cpu_cps))
        d = best_response(kin, u, price, user_index=k)
        assert d.user_index == k
        assert d.offloaded_bits == kin.balance_bits * d.offload_flag
        assert 0.0 <= d.offloaded_bits <= u.data_bits
        assert abs(d.cost_s - (d.latency_s + d.payment_s)) \
            <= 1e-12 * (1.0 + abs(d.cost_s))
        assert d.cost_s == user_cost(kin, u, d.offloaded_bits, price)


def test_offload_size_nonincreasing_in_price():
    u, kin = _pair()
    prices = np.linspace(0.0, 3.0 / u.local_cpu_cps, 200)
    sizes = [best_response(kin, u, float(p)).offloaded_bits for p in prices]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert set(sizes) == {0.0, kin.balance_bits}


def test_threshold_case_structure_exact():
    rng = np.random.default_rng(3)
    for _ in range(500):
        s = sample_scenario(random_scenario_config(rng, max_users=4))
        kin_all = scenario_kinetics(s)
        k = int(rng.integers(0, len(s.users)))
        u, kin = s.users[k], kin_all[k]
        threshold = 1.0 / u.local_cpu_cps
        below = best_response(kin, u, float(rng.uniform(0, 0.999)) * threshold)
        above = best_response(kin, u, threshold * (1.0 + float(rng.uniform(0.001, 3))))
        assert below.offloaded_bits == kin.balance_bits
        assert above.offloaded_bits == 0.0


def test_slow_cpus_prefer_offloading():
    # at a fixed positive price, exactly the users with cpu <= 1/price offload
    rng = np.random.default_rng(4)
    for _ in range(100):
        s = sample_scenario(random_scenario_config(rng, max_users=12))
        kin_all = scenario_kinetics(s)
        price = float(rng.uniform(1.05e-9, 9.5e-9))  # clear of grid reciprocals
        for u, kin in zip(s.users, kin_all):
            d = best_response(kin, u, price)
            assert d.offload_flag == (1 if u.local_cpu_cps <= 1.0 / price else 0)


def test_oracle_finds_balance_at_zero_price():
    u, kin = _pair()
    ell = best_response_oracle(kin, u, 0.0, 100_000)
    assert abs(ell - kin.balance_bits) <= u.data_bits / 100_000


def test_oracle_finds_zero_above_threshold():
    u, kin = _pair()
    assert best_response_oracle(kin, u, 2.0 / u.local_cpu_cps, 100_000) == 0.0


def test_oracle_rejects_small_grids():
    u, kin = _pair()
    with pytest.raises(ValueError):
        best_response_oracle(kin, u, 0.0, 999)


def test_best_response_never_loses_to_oracle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = sample_scenario(random_scenario_config(rng, max_users=6))
        kin_all = scenario_kinetics(s)
        k = int(rng.integers(0, len(s.users)))
        u, kin = s.users[k], kin_all[k]
        price = float(rng.uniform(0.0, 3.0 / u.local_cpu_cps))
        d = best_response(kin, u, price)
        grid_cost = user_cost(kin, u, best_response_oracle(kin, u, price, 10_000),
                              price)
        assert d.cost_s <= grid_cost + 1e-9 * (1.0 + abs(grid_cost))


def test_declined_tie_costs_the_same_as_offloading():
    u, kin = _pair()
    tie = 1.0 / u.local_cpu_cps
    offloading = best_response(kin, u, tie, user_index=3)
    declined = best_response(kin, u, NO_OFFLOAD_PRICE, user_index=3)
    assert declined.user_index == 3
    assert declined.offload_flag == 0 and declined.offloaded_bits == 0.0
    assert declined.payment_s == 0.0
    assert declined.cost_s == offloading.cost_s
    assert declined.latency_s == declined.cost_s
