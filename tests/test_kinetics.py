import math
from dataclasses import replace

import numpy as np
import pytest

from edgeprice import (compute_kinetics, downlink_rate, local_time,
                       offload_time, sample_scenario, scenario_kinetics,
                       task_latency, uplink_rate, user_cost)
from edgeprice.verify import random_scenario_config

from conftest import (balanced_two_user_scenario, make_kinetics, make_profile,
                      make_system)


def _user_pool(count, seed, max_users=50):
    rng = np.random.default_rng(seed)
    pool = []
    while len(pool) < count:
        s = sample_scenario(random_scenario_config(rng, max_users=max_users,
                                                   min_users=10))
        for u, k in zip(s.users, scenario_kinetics(s)):
            pool.append((u, k))
            if len(pool) == count:
                break
    return pool


# ---------------------------------------------------------------- rates

def test_uplink_rate_unity_snr_anchor():
    # received power equal to sub-band noise power: log2(2) = 1
    system = make_system(4, 6e9)
    w = system.per_user_bandwidth_hz
    u = make_profile(uplink_power_w=1.0,
                     channel_gain_linear=w * system.noise_psd_w_per_hz / 1.0)
    assert uplink_rate(system, u) == pytest.approx(w, rel=1e-12)


def test_uplink_rate_vanishes_with_signal():
    system = make_system(4, 6e9)
    u = make_profile(channel_gain_linear=1e-30)
    r = uplink_rate(system, u)
    assert 0.0 < r < 1e-3 * system.per_user_bandwidth_hz


def test_uplink_rate_hand_value():
    system = make_system(1, 6e9, bandwidth=1e6)
    system = replace(system, noise_psd_w_per_hz=3.981e-21)
    u = make_profile(uplink_power_w=0.1, channel_gain_linear=1e-4)
    snr = 0.1 * 1e-4 / (1e6 * 3.981e-21)
    expected = 1e6 * math.log10(1.0 + snr) / math.log10(2.0)
    assert uplink_rate(system, u) == pytest.approx(expected, rel=1e-12)
    assert uplink_rate(system, u) == pytest.approx(3.13e7, rel=1e-2)


def test_downlink_rate_mirrors_uplink():
    system = make_system(5, 6e9)
    u = make_profile(uplink_power_w=0.1, downlink_power_w=0.1)
    assert downlink_rate(system, u) == uplink_rate(system, u)
    boosted = replace(u, downlink_power_w=1.0)
    assert downlink_rate(system, boosted) > uplink_rate(system, boosted)


def test_rates_reject_nonfinite_inputs():
    system = make_system(2, 6e9)
    with pytest.raises(ValueError):
        uplink_rate(system, make_profile(channel_gain_linear=math.inf))
    with pytest.raises(ValueError):
        uplink_rate(system, make_profile(uplink_power_w=math.nan))


@pytest.mark.parametrize("rate", [uplink_rate, downlink_rate])
@pytest.mark.parametrize("field", ["power", "channel_gain_linear",
                                   "noise_psd_w_per_hz"])
def test_rates_reject_zero_inputs(rate, field):
    system, user = make_system(2, 6e9), make_profile()
    if field == "noise_psd_w_per_hz":
        system = replace(system, noise_psd_w_per_hz=0.0)
    elif field == "power":
        user = replace(user, uplink_power_w=0.0, downlink_power_w=0.0)
    else:
        user = replace(user, channel_gain_linear=0.0)
    with pytest.raises(ValueError, match="must be finite and > 0"):
        rate(system, user)


# ---------------------------------------------------------- kinetics

def test_balance_hand_value():
    # beta 1e-6 s/bit, 1000 cycles/bit, 8e5 bits, 1 GHz CPU -> 4e5 bits
    s = balanced_two_user_scenario()
    kin = compute_kinetics(s.system, s.users[0])
    assert kin.beta_s_per_bit == pytest.approx(1e-6, rel=1e-12)
    expected = 1000.0 * 8e5 / (kin.beta_s_per_bit * 1e9 + 1000.0)
    assert kin.balance_bits == pytest.approx(expected, rel=1e-12)
    assert kin.balance_bits == pytest.approx(4e5, rel=1e-9)


def test_balance_inside_data_bits():
    for u, kin in _user_pool(500, seed=5):
        assert 0.0 < kin.balance_bits < u.data_bits


def test_balance_shrinks_when_feedback_grows():
    system = make_system(3, 6e9)
    u = make_profile()
    base = compute_kinetics(system, u)
    fat = compute_kinetics(system, replace(u, output_ratio=2 * u.output_ratio))
    assert fat.beta_s_per_bit > base.beta_s_per_bit
    assert fat.balance_bits < base.balance_bits


# ------------------------------------------------------------- timings

def test_local_time_values():
    u = make_profile(data_bits=8e5, cycles_per_bit=1000.0, local_cpu_cps=1e9)
    assert local_time(u, u.data_bits) == 0.0
    assert local_time(u, 0.0) == pytest.approx(0.8, rel=1e-12)
    assert local_time(u, 4e5) == pytest.approx(0.4, rel=1e-12)
    with pytest.raises(ValueError):
        local_time(u, -1.0)
    with pytest.raises(ValueError):
        local_time(u, u.data_bits + 1.0)


def test_offload_time_is_beta_times_bits():
    u = make_profile()
    kin = make_kinetics(u, beta=1e-6)
    assert offload_time(kin, u, 0.0) == 0.0
    assert offload_time(kin, u, 4e5) == pytest.approx(0.4, rel=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(100):
        ell = float(rng.uniform(0, u.data_bits))
        assert offload_time(kin, u, ell) == kin.beta_s_per_bit * ell


def test_offload_time_matches_three_stage_sum():
    for u, kin in _user_pool(200, seed=6):
        ell = 0.37 * u.data_bits
        staged = (ell / kin.uplink_rate_bps
                  + ell * u.cycles_per_bit / kin.cloud_speed_share_cps
                  + u.output_ratio * ell / kin.downlink_rate_bps)
        assert offload_time(kin, u, ell) == pytest.approx(staged, rel=1e-12)


def test_task_latency_endpoints_and_balance():
    u = make_profile(data_bits=8e5, cycles_per_bit=1000.0, local_cpu_cps=1e9)
    kin = make_kinetics(u, beta=1e-6)
    assert task_latency(kin, u, 0.0) == pytest.approx(0.8, rel=1e-12)
    assert task_latency(kin, u, u.data_bits) == pytest.approx(
        kin.beta_s_per_bit * u.data_bits, rel=1e-12)
    m = kin.balance_bits
    assert local_time(u, m) == pytest.approx(offload_time(kin, u, m), rel=1e-12)


# ---------------------------------------------------------------- cost

def test_user_cost_values():
    u = make_profile(data_bits=8e5, cycles_per_bit=1000.0, local_cpu_cps=1e9)
    kin = make_kinetics(u, beta=1e-6)
    for price in (0.0, 1e-9, math.inf):
        assert user_cost(kin, u, 0.0, price) == pytest.approx(0.8, rel=1e-12)
    assert user_cost(kin, u, kin.balance_bits, 0.0) == pytest.approx(0.4, rel=1e-9)
    with pytest.raises(ValueError):
        user_cost(kin, u, 1.0, -1e-9)
    with pytest.raises(ValueError):
        user_cost(kin, u, u.data_bits * 2, 0.0)


def test_cost_branch_continuity_and_identity():
    rng = np.random.default_rng(12)
    for u, kin in _user_pool(10_000, seed=13):
        m = kin.balance_bits
        price = float(rng.uniform(0.0, 2.0 / u.local_cpu_cps))
        first = user_cost(kin, u, m, price)
        second = kin.beta_s_per_bit * m + price * (m * u.cycles_per_bit)
        assert abs(first - second) <= 1e-9 * abs(first)
        for ell in (0.0, 0.5 * m, m, 0.5 * (m + u.data_bits), u.data_bits):
            total = user_cost(kin, u, ell, price)
            rebuilt = task_latency(kin, u, ell) + price * (ell * u.cycles_per_bit)
            assert abs(total - rebuilt) <= 1e-12 * (1.0 + abs(total))
        assert abs(local_time(u, m) - offload_time(kin, u, m)) \
            <= 1e-9 * local_time(u, m)


def test_cost_piecewise_slopes():
    # cheap price: strictly down to the balance point, strictly up after;
    # expensive price: strictly up everywhere (finite differences on a grid)
    for u, kin in _user_pool(100, seed=14):
        m = kin.balance_bits
        threshold = 1.0 / u.local_cpu_cps
        for price, expect_down_first in ((0.5 * threshold, True),
                                         (2.0 * threshold, False)):
            below = np.linspace(0.0, m, 1000)
            above = np.linspace(m, u.data_bits, 1000)
            cost_below = [user_cost(kin, u, float(x), price) for x in below]
            cost_above = [user_cost(kin, u, float(x), price) for x in above]
            diffs_below = np.diff(cost_below)
            diffs_above = np.diff(cost_above)
            if expect_down_first:
                assert np.all(diffs_below < 0)
            else:
                assert np.all(diffs_below > 0)
            assert np.all(diffs_above > 0)


# ---------------------------------------------------------- unit audit

class Quantity:
    """Value with unit exponents; addition requires matching units."""

    def __init__(self, value, **units):
        self.value = value
        self.units = {k: v for k, v in units.items() if v != 0}

    def __mul__(self, other):
        units = dict(self.units)
        for k, v in other.units.items():
            units[k] = units.get(k, 0) + v
        return Quantity(self.value * other.value, **units)

    def __truediv__(self, other):
        units = dict(self.units)
        for k, v in other.units.items():
            units[k] = units.get(k, 0) - v
        return Quantity(self.value / other.value, **units)

    def __add__(self, other):
        assert self.units == other.units, (self.units, other.units)
        return Quantity(self.value + other.value, **self.units)


def test_formula_unit_audit():
    rate = Quantity(1.2e6, bit=1, s=-1)
    cycles_per_bit = Quantity(1000.0, cycle=1, bit=-1)
    cloud_share = Quantity(3.3e9, cycle=1, s=-1)
    feedback_ratio = Quantity(0.2)          # output bits per input bit
    data = Quantity(8e5, bit=1)
    local_cpu = Quantity(1e9, cycle=1, s=-1)
    price = Quantity(1e-9, s=1, cycle=-1)
    one = Quantity(1.0)

    beta = one / rate + cycles_per_bit / cloud_share + feedback_ratio / rate
    assert beta.units == {"s": 1, "bit": -1}

    balance = cycles_per_bit * data / (beta * local_cpu + cycles_per_bit)
    assert balance.units == {"bit": 1}

    local = (data + balance) * cycles_per_bit / local_cpu
    assert local.units == {"s": 1}

    offload = beta * balance
    assert offload.units == {"s": 1}

    payment = price * balance * cycles_per_bit
    assert payment.units == {"s": 1}

    cost = local + payment
    assert cost.units == {"s": 1}
