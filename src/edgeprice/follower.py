"""User-side decision: the cost-minimizing offload size for an announced price.

The cost is piecewise linear in the offload size with a kink at the balance
point, so the minimizer is bang-bang: offload the balance size when the price
is at most 1/local_cpu_cps (seconds per cycle the user's own CPU would spend),
otherwise offload nothing. At exactly 1/local_cpu_cps the cost is flat in
the offload size up to the balance point, so the user is indifferent. The
tie resolves to offloading, which is what lets the seller price right at
that threshold. A cloud whose budget cannot take every tied user may decline
some of them (see ``uniform.ration_tie``); a declined user answers
``uniform.NO_OFFLOAD_PRICE``, keeping everything local at the same cost.

``best_response`` is the scalar reference: the solvers compute the same
decisions from ``Scenario.columns`` (``uniform._priced_outcome``), tested bit
for bit against it, and only the oracles in ``verify`` call it.
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
