"""Deterministic timing and cost formulas for a single user.

Offloading ell of the user's data_bits costs three sequential stages
(uplink transfer, cloud execution, downlink feedback of output_ratio * ell
bits), collapsing to beta * ell seconds; the remaining bits run locally in
parallel. The per-bit coefficient and the balance point where both paths
take equally long are

    beta = 1/r_up + cycles_per_bit/cloud_share + output_ratio/r_down
    balance = cycles_per_bit * data_bits / (beta * local_cpu + cycles_per_bit)

Prices are quoted in seconds per CPU cycle, so a payment
price * ell * cycles_per_bit carries seconds and adds directly to latency.

``user_columns`` derives every user's kinetics at once, elementwise from the
profile columns; ``compute_kinetics`` is their scalar reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # scenario imports this module to derive Scenario.columns
    from .scenario import Scenario, SystemParams, UserProfile


@dataclass(frozen=True)
class UserKinetics:
    """Derived per-user rates and breakpoints, fixed for one offloading period."""

    uplink_rate_bps: float
    downlink_rate_bps: float
    beta_s_per_bit: float        # offload seconds per offloaded bit
    balance_bits: float          # offload size where local and offload times meet
    cloud_speed_share_cps: float


def _shannon_rate(sys_: SystemParams, power_w: float, gain: float) -> float:
    """Sub-band rate W * log2(1 + p*h / (W*N0)) with W = bandwidth/num_users.

    log1p keeps the rate strictly positive down to vanishing signal power;
    arrays map ``math.log1p``, since ``np.log1p`` rounds differently.
    Unchecked: the public rates check their inputs, and a built ``Scenario``
    has already validated its own.
    """
    w = sys_.per_user_bandwidth_hz
    snr = power_w * gain / (w * sys_.noise_psd_w_per_hz)
    if isinstance(snr, np.ndarray):
        return (w * np.fromiter(map(math.log1p, snr.tolist()), float, len(snr))
                / math.log(2.0))
    return w * math.log1p(snr) / math.log(2.0)


def _checked_rate(sys_: SystemParams, power_w: float, gain: float) -> float:
    for name, v in (("bandwidth share", sys_.per_user_bandwidth_hz),
                    ("power", power_w), ("gain", gain),
                    ("noise psd", sys_.noise_psd_w_per_hz)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and > 0 (got {v})")
    return _shannon_rate(sys_, power_w, gain)


def uplink_rate(sys_: SystemParams, user: UserProfile) -> float:
    return _checked_rate(sys_, user.uplink_power_w, user.channel_gain_linear)


def downlink_rate(sys_: SystemParams, user: UserProfile) -> float:
    return _checked_rate(sys_, user.downlink_power_w, user.channel_gain_linear)


def compute_kinetics(sys_: SystemParams, user: UserProfile) -> UserKinetics:
    """One user's kinetics from validated inputs (a built ``Scenario``'s);
    unlike ``uplink_rate`` and ``downlink_rate`` it does not re-check them.
    Valid inputs can still round to a rate that is not finite and > 0, or to
    a balance point outside (0, data_bits); either raises ``ValueError``."""
    r_up = _shannon_rate(sys_, user.uplink_power_w, user.channel_gain_linear)
    r_down = _shannon_rate(sys_, user.downlink_power_w, user.channel_gain_linear)
    for name, rate in (("uplink rate", r_up), ("downlink rate", r_down)):
        if not (math.isfinite(rate) and rate > 0):
            raise ValueError(f"{name} must be finite and > 0 (got {rate!r})")
    share = sys_.per_user_cloud_speed_cps
    beta = 1.0 / r_up + user.cycles_per_bit / share + user.output_ratio / r_down
    balance = (user.cycles_per_bit * user.data_bits
               / (beta * user.local_cpu_cps + user.cycles_per_bit))
    if not 0.0 < balance < user.data_bits:
        raise ValueError(f"balance_bits {balance!r} outside (0, data_bits "
                         f"{user.data_bits!r})")
    return UserKinetics(
        uplink_rate_bps=r_up,
        downlink_rate_bps=r_down,
        beta_s_per_bit=beta,
        balance_bits=balance,
        cloud_speed_share_cps=share,
    )


def scenario_kinetics(scenario: Scenario) -> tuple[UserKinetics, ...]:
    """Every user's ``compute_kinetics``; an error names the user."""
    kin_all = []
    for i, user in enumerate(scenario.users):
        try:
            kin_all.append(compute_kinetics(scenario.system, user))
        except ValueError as exc:
            raise ValueError(f"invalid scenario: user {i}: {exc}") from None
    return tuple(kin_all)


@dataclass(frozen=True, eq=False)
class UserColumns:
    """Per-user read-only float arrays, in user order, for pricing every user
    at once, derived from the profile columns. Each entry is computed with
    the same operations, in the same order, as the scalar formulas of this
    module, and elementwise + - * / on float64 rounds like Python floats, so
    results built from them are bit-identical to the scalar ones."""

    threshold: np.ndarray          # 1 / local_cpu_cps: offload iff price <= it
    balance_bits: np.ndarray
    load_cycles: np.ndarray        # balance_bits * cycles_per_bit
    local_s: np.ndarray            # all-local latency and cost
    offload_latency_s: np.ndarray  # task_latency at balance_bits


def user_columns(scenario: Scenario) -> UserColumns:
    """Every user's kinetics, as ``compute_kinetics`` derives them, computed
    elementwise from the profile columns, and the pricing columns from those.
    A user ``compute_kinetics`` refuses raises ``scenario_kinetics``' error."""
    sys_, users = scenario.system, scenario.users
    data, cycles, cpu = users.data_bits, users.cycles_per_bit, users.local_cpu_cps
    with np.errstate(all="ignore"):   # a bad rate raises below instead
        r_up = _shannon_rate(sys_, users.uplink_power_w, users.channel_gain_linear)
        r_down = _shannon_rate(sys_, users.downlink_power_w, users.channel_gain_linear)
        beta = (1.0 / r_up + cycles / sys_.per_user_cloud_speed_cps
                + users.output_ratio / r_down)
        balance = cycles * data / (beta * cpu + cycles)
        ok = ((r_up > 0) & (r_up < math.inf) & (r_down > 0)
              & (r_down < math.inf) & (balance > 0) & (balance < data))
    if not ok.all():   # the scalar pass words the first user's error
        scenario_kinetics(scenario)
        raise RuntimeError("kinetics columns refuse what compute_kinetics takes")
    columns = UserColumns(1.0 / cpu, balance, balance * cycles, data * cycles / cpu,
                          np.maximum((data - balance) * cycles / cpu, beta * balance))
    for column in vars(columns).values():
        column.flags.writeable = False
    return columns


def _check_offload_size(user: UserProfile, ell: float) -> None:
    if not 0.0 <= ell <= user.data_bits:
        raise ValueError(f"offloaded bits {ell} outside [0, {user.data_bits}]")


def local_time(user: UserProfile, ell: float) -> float:
    """Seconds to compute the (data_bits - ell) bits kept on the device."""
    _check_offload_size(user, ell)
    return (user.data_bits - ell) * user.cycles_per_bit / user.local_cpu_cps


def offload_time(kin: UserKinetics, user: UserProfile, ell: float) -> float:
    """Seconds for the upload/execute/feedback pipeline: beta * ell."""
    _check_offload_size(user, ell)
    return kin.beta_s_per_bit * ell


def task_latency(kin: UserKinetics, user: UserProfile, ell: float) -> float:
    """Both paths run concurrently, so the task finishes at the slower one."""
    return max(local_time(user, ell), offload_time(kin, user, ell))


def user_cost(kin: UserKinetics, user: UserProfile, ell: float, price: float) -> float:
    """Latency plus payment, as the piecewise-linear closed form.

    Below the balance point the local path dominates latency and the cost is
    (price - 1/local_cpu) * ell * cycles_per_bit + data_bits * cycles_per_bit / local_cpu;
    above it the offload path dominates and the cost is
    beta * ell + price * ell * cycles_per_bit. The breakpoint itself is
    evaluated with the first branch (both agree there).
    """
    _check_offload_size(user, ell)
    if not price >= 0.0:
        raise ValueError(f"price must be >= 0 (got {price})")
    c = user.cycles_per_bit
    if ell == 0.0:
        return user.data_bits * c / user.local_cpu_cps
    if ell <= kin.balance_bits:
        return ((price - 1.0 / user.local_cpu_cps) * (ell * c)
                + user.data_bits * c / user.local_cpu_cps)
    return kin.beta_s_per_bit * ell + price * (ell * c)
