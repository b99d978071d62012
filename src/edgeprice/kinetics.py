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
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # scenario imports this module to derive Scenario.kinetics
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

    log1p keeps the rate strictly positive down to vanishing signal power.
    Unchecked: the public rates check their inputs, and a built ``Scenario``
    has already validated its own.
    """
    w = sys_.per_user_bandwidth_hz
    snr = power_w * gain / (w * sys_.noise_psd_w_per_hz)
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
    unlike ``uplink_rate`` and ``downlink_rate`` it does not re-check them."""
    r_up = _shannon_rate(sys_, user.uplink_power_w, user.channel_gain_linear)
    r_down = _shannon_rate(sys_, user.downlink_power_w, user.channel_gain_linear)
    share = sys_.per_user_cloud_speed_cps
    beta = 1.0 / r_up + user.cycles_per_bit / share + user.output_ratio / r_down
    balance = (user.cycles_per_bit * user.data_bits
               / (beta * user.local_cpu_cps + user.cycles_per_bit))
    # beta > 0 forces 0 < balance < data_bits
    if not 0.0 < balance < user.data_bits:
        raise RuntimeError(f"balance {balance!r} outside (0, data_bits "
                           f"{user.data_bits!r})")
    return UserKinetics(
        uplink_rate_bps=r_up,
        downlink_rate_bps=r_down,
        beta_s_per_bit=beta,
        balance_bits=balance,
        cloud_speed_share_cps=share,
    )


def scenario_kinetics(scenario: Scenario) -> tuple[UserKinetics, ...]:
    return tuple(compute_kinetics(scenario.system, u) for u in scenario.users)


@dataclass(frozen=True, eq=False)
class UserColumns:
    """Per-user read-only float arrays, in user order, for pricing every user
    at once. Each entry is computed with the same operations, in the same
    order, as the scalar formulas below, and elementwise + - * / on float64
    rounds like Python floats, so results built from them are bit-identical
    to the scalar ones."""

    threshold: np.ndarray          # 1 / local_cpu_cps: offload iff price <= it
    balance_bits: np.ndarray
    load_cycles: np.ndarray        # balance_bits * cycles_per_bit
    local_s: np.ndarray            # all-local latency and cost
    offload_latency_s: np.ndarray  # task_latency at balance_bits


def user_columns(users: Sequence[UserProfile],
                 kin_all: Sequence[UserKinetics]) -> UserColumns:
    data = np.array([u.data_bits for u in users])
    cycles = np.array([u.cycles_per_bit for u in users])
    cpu = np.array([u.local_cpu_cps for u in users])
    balance = np.array([k.balance_bits for k in kin_all])
    beta = np.array([k.beta_s_per_bit for k in kin_all])
    columns = UserColumns(
        threshold=1.0 / cpu,
        balance_bits=balance,
        load_cycles=balance * cycles,
        local_s=data * cycles / cpu,
        offload_latency_s=np.maximum((data - balance) * cycles / cpu,
                                     beta * balance),
    )
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
