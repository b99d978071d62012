"""Seller-side per-user pricing, reduced to a 0/1 knapsack.

A user charged its own threshold 1/local_cpu_cps offloads balance_bits and
pays balance_bits * cycles_per_bit / local_cpu_cps; any higher price earns
nothing. Choosing which users to serve is therefore a knapsack with weight
balance_bits * cycles_per_bit, value weight / local_cpu_cps, and the cloud
cycle budget as capacity. Unserved users get the no-offload sentinel price.

The DP solver works on a quantized copy of the instance: weights round UP to
the quantum grid and the capacity rounds DOWN, so any DP selection is
feasible for the real instance. The value it may give up relative to the
true optimum is reported as ``value_bound`` next to the solution: the
smaller of (a) the total value of items whose weights were inflated by the
rounding (dropping them from any real-feasible set leaves an on-grid set
that still fits) and (b) the gap to a second, optimistic DP run with weights
rounded DOWN and capacity rounded UP, whose value can never fall below the
true optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinetics import UserKinetics
from .scenario import Scenario
from .uniform import NO_OFFLOAD_PRICE, PriceOutcome, evaluate_prices

DEFAULT_QUANTUM_CYCLES = 1e6
MAX_TABLE_CELLS = 20_000_000     # DP table budget; past it, coarsen the quantum
BRUTE_FORCE_MAX_ITEMS = 20


class TableBudgetExceeded(ValueError):
    """DP table would not fit the cell budget; coarsen the quantum."""


@dataclass(frozen=True)
class KnapsackInstance:
    weights: tuple[float, ...]   # cycles per item
    values: tuple[float, ...]    # seconds per item
    capacity: float              # cycles
    quantum: float = DEFAULT_QUANTUM_CYCLES


@dataclass(frozen=True)
class KnapsackSolution:
    selected: tuple[bool, ...]
    total_weight: float
    total_value: float
    value_bound: float = 0.0     # certified cap on value lost to quantization


def _validate_instance(inst: KnapsackInstance) -> None:
    if len(inst.weights) != len(inst.values):
        raise ValueError("weights and values must have equal length")
    for name, xs in (("weight", inst.weights), ("value", inst.values)):
        for i, x in enumerate(xs):
            if not (math.isfinite(x) and x > 0):
                raise ValueError(f"{name} {i} must be finite and > 0 (got {x})")
    if not (math.isfinite(inst.capacity) and inst.capacity >= 0):
        raise ValueError(f"capacity must be finite and >= 0 (got {inst.capacity})")
    if not (math.isfinite(inst.quantum) and inst.quantum > 0):
        raise ValueError(f"quantum must be finite and > 0 (got {inst.quantum})")


def build_knapsack(scenario: Scenario, kin_all: tuple[UserKinetics, ...],
                   quantum: float = DEFAULT_QUANTUM_CYCLES) -> KnapsackInstance:
    """One item per user; ``kin_all`` is the scenario's ``kinetics``."""
    weights = tuple(k.balance_bits * u.cycles_per_bit
                    for k, u in zip(kin_all, scenario.users))
    values = tuple(w / u.local_cpu_cps for w, u in zip(weights, scenario.users))
    return KnapsackInstance(weights=weights, values=values,
                            capacity=scenario.system.cloud_capacity_cycles,
                            quantum=quantum)


def _units_round_up(weight: float, quantum: float) -> int:
    units = int(math.ceil(weight / quantum))
    while units * quantum < weight:  # guard against a low-rounded quotient
        units += 1
    return units


def _units_round_down(value: float, quantum: float) -> int:
    units = int(math.floor(value / quantum))
    while units > 0 and units * quantum > value:
        units -= 1
    return units


def _optimistic_value(inst: KnapsackInstance) -> float:
    """Exact optimum of the relaxed instance (weights down, capacity up)."""
    cap_units = _units_round_up(inst.capacity, inst.quantum)
    best = np.zeros(cap_units + 1)
    free = 0.0
    for w, v in zip(inst.weights, inst.values):
        units = _units_round_down(w, inst.quantum)
        if units == 0:
            free += v
            continue
        if units > cap_units:
            continue
        cand = best[: cap_units + 1 - units] + v
        best[units:] = np.maximum(best[units:], cand)
    return float(best[-1]) + free


def solve_knapsack_dp(inst: KnapsackInstance) -> KnapsackSolution:
    """Exact DP on the conservatively quantized instance.

    Value ties prefer the lighter selection. The returned selection always
    satisfies the raw (unquantized) capacity.
    """
    _validate_instance(inst)
    n = len(inst.weights)
    cap_units = _units_round_down(inst.capacity, inst.quantum)
    if n * (cap_units + 1) > MAX_TABLE_CELLS:
        raise TableBudgetExceeded(
            f"{n} items x {cap_units + 1} capacity units exceeds the "
            f"{MAX_TABLE_CELLS}-cell budget; use a coarser quantum")
    item_units = [_units_round_up(w, inst.quantum) for w in inst.weights]

    best_val = np.zeros(cap_units + 1)
    best_wt = np.zeros(cap_units + 1, dtype=np.int64)
    take = np.zeros((n, cap_units + 1), dtype=bool)
    for i in range(n):
        w = item_units[i]
        if w > cap_units:
            continue
        cand_val = best_val[: cap_units + 1 - w] + inst.values[i]
        cand_wt = best_wt[: cap_units + 1 - w] + w
        cur_val = best_val[w:]
        cur_wt = best_wt[w:]
        better = (cand_val > cur_val) | ((cand_val == cur_val) & (cand_wt < cur_wt))
        take[i, w:] = better
        best_val[w:] = np.where(better, cand_val, cur_val)
        best_wt[w:] = np.where(better, cand_wt, cur_wt)

    selected = [False] * n
    c = cap_units
    for i in range(n - 1, -1, -1):
        if take[i, c]:
            selected[i] = True
            c -= item_units[i]

    total_weight = math.fsum(w for w, s in zip(inst.weights, selected) if s)
    total_value = math.fsum(v for v, s in zip(inst.values, selected) if s)
    if total_weight > inst.capacity:
        raise RuntimeError(f"DP selection weight {total_weight!r} exceeds "
                           f"capacity {inst.capacity!r}")

    inflated = math.fsum(
        v for w, u, v in zip(inst.weights, item_units, inst.values)
        if w <= inst.capacity and u * inst.quantum > w)
    bound = max(0.0, min(inflated, _optimistic_value(inst) - total_value))
    return KnapsackSolution(selected=tuple(selected), total_weight=total_weight,
                            total_value=total_value, value_bound=bound)


def solve_knapsack_bruteforce(inst: KnapsackInstance) -> KnapsackSolution:
    """Exact optimum by subset enumeration; ties pick the lexicographically
    smallest selection vector. Test oracle, capped at 20 items."""
    _validate_instance(inst)
    n = len(inst.weights)
    if n > BRUTE_FORCE_MAX_ITEMS:
        raise ValueError(f"{n} items exceeds the 2^{BRUTE_FORCE_MAX_ITEMS} "
                         f"enumeration cap")
    wsum = np.zeros(1)
    vsum = np.zeros(1)
    for w, v in zip(inst.weights, inst.values):
        wsum = np.concatenate([wsum, wsum + w])
        vsum = np.concatenate([vsum, vsum + v])
    scored = np.where(wsum <= inst.capacity, vsum, -1.0)
    top = float(scored.max())
    tied = np.flatnonzero(scored == top)
    selected = min(
        tuple(bool((int(mask) >> i) & 1) for i in range(n)) for mask in tied)
    total_weight = math.fsum(w for w, s in zip(inst.weights, selected) if s)
    total_value = math.fsum(v for v, s in zip(inst.values, selected) if s)
    return KnapsackSolution(selected=selected, total_weight=total_weight,
                            total_value=total_value, value_bound=0.0)


def solve_differentiated(scenario: Scenario) -> PriceOutcome:
    """Per-user prices: 1/local_cpu_cps for knapsack winners, sentinel otherwise.

    The winners come from subset enumeration up to 20 users and from the
    DP quantized to ``DEFAULT_QUANTUM_CYCLES`` beyond.
    """
    inst = build_knapsack(scenario, scenario.kinetics)
    if len(scenario.users) <= BRUTE_FORCE_MAX_ITEMS:
        solution = solve_knapsack_bruteforce(inst)
    else:
        solution = solve_knapsack_dp(inst)
    prices = np.where(solution.selected, scenario.columns.threshold,
                      NO_OFFLOAD_PRICE).tolist()
    outcome = evaluate_prices(scenario, prices)
    if not outcome.feasible:
        raise RuntimeError(f"per-user load {outcome.total_load_cycles!r} exceeds "
                           f"capacity {scenario.system.cloud_capacity_cycles!r}")
    return outcome
