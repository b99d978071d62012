"""User-side decision: the cost-minimizing offload size for an announced price.

The cost is piecewise linear in the offload size with a kink at the balance
point, so the minimizer is bang-bang: offload the balance size when the price
is at most 1/local_cpu_cps (seconds per cycle the user's own CPU would spend),
otherwise offload nothing. At exactly 1/local_cpu_cps the cost is flat in
the offload size up to the balance point, so the user is indifferent. The
tie resolves to offloading, which is what lets the seller price right at
that threshold. A cloud whose budget cannot take every tied user may decline
some of them (see ``uniform.ration_tie``); a declined user keeps everything
local at the same cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kinetics import UserKinetics, task_latency, user_cost
from .scenario import UserProfile


@dataclass(frozen=True)
class OffloadDecision:
    user_index: int
    offloaded_bits: float
    offload_flag: int      # 1 = offload balance_bits, 0 = all-local
    cost_s: float
    latency_s: float
    payment_s: float


def best_response(kin: UserKinetics, user: UserProfile, price: float,
                  user_index: int = 0) -> OffloadDecision:
    """Threshold policy: offload balance_bits iff price <= 1/local_cpu_cps."""
    if not price >= 0.0:
        raise ValueError(f"price must be >= 0 (got {price})")
    flag = 1 if price <= 1.0 / user.local_cpu_cps else 0
    ell = kin.balance_bits * flag
    payment = price * (ell * user.cycles_per_bit) if flag else 0.0
    return OffloadDecision(
        user_index=user_index,
        offloaded_bits=ell,
        offload_flag=flag,
        cost_s=user_cost(kin, user, ell, price),
        latency_s=task_latency(kin, user, ell),
        payment_s=payment,
    )


def declined_response(kin: UserKinetics, user: UserProfile, price: float,
                      user_index: int = 0) -> OffloadDecision:
    """All-local decision of a tied user whom the cloud does not serve.

    Only defined at the user's threshold price 1/local_cpu_cps, where keeping
    everything local costs exactly as much as offloading the balance size.
    """
    if price != 1.0 / user.local_cpu_cps:
        raise ValueError(f"only a tied user can be declined: price {price!r} "
                         f"!= 1/local_cpu_cps {1.0 / user.local_cpu_cps!r}")
    return OffloadDecision(
        user_index=user_index,
        offloaded_bits=0.0,
        offload_flag=0,
        cost_s=user_cost(kin, user, 0.0, price),
        latency_s=task_latency(kin, user, 0.0),
        payment_s=0.0,
    )
